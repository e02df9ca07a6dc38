"""Binary I/O for grid fields, path ensembles included.

Every binary artifact is one self-describing grid field file
(little-endian throughout):

========  ====================================================
bytes     content
========  ====================================================
0:8       magic ``b"SCGRID02"``
8:12      flags (uint32); bit 0 set for complex payload
12:16     number of grid axes (uint32)
16:20     tensor rank, i.e. trailing non-grid axes (uint32)
20:24     support mask (uint32); bit k set when the values vary
          along grid axis k
...       axis node counts, uint64 per grid axis
...       tensor dimensions, uint64 per tensor axis
...       extents: float64 start and stop per grid axis
...       payload: the profile, the field with length 1 on every
          grid axis outside the support, float64 row-major; a
          complex payload is its ``<c16`` bytes, real and
          imaginary parts interleaved per element
========  ====================================================

:func:`_header` forms every header and :func:`_read_header` parses
every one, rejecting the earlier full-grid layout (magic
``b"SCGRID01"``, extents in a JSON file beside it) and both earlier
path-ensemble layouts (magic ``b"SCPATH..."``).  An axis is outside the
support only when its slices are bit-identical, so every value, ``-0.0``
and NaN included, reads back as written.  :func:`read_grid` returns a
read-only broadcast view of the profile, so a reader such as
:class:`geometry.MetricField` finds the support from the strides.

A path ensemble is the real field of ``(components, paths)`` states on
the one-axis time grid of ``steps + 1`` nodes on ``(0, horizon)``,
support mask 1: its payload is the states of every path at the first
time, component by component, then at the next time.
:class:`EnsembleWriter` writes it a time step at a time, and
:func:`read_ensemble` maps it read-only as ``values[path, step,
component]``, a transposed view that the in-memory sink of
:func:`market.simulate` shares, so this module alone turns payload
bytes into arrays.  The writers digest the bytes they write, so no file
is read back for its digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import mmap
import os
import struct

import numpy as np

from .errors import ValidationError
from .geometry import _joint_support, _on_support
from .grids import GridSpec

_GRID_MAGIC = b"SCGRID02"
_FULL_GRID_MAGIC = b"SCGRID01"
# numpy arrays have at most 64 axes; no field of this package has more than 5
_MAX_AXES = 32
# a file holds only the profile, so its size no longer bounds the grid it
# declares; at most 2**40 nodes keeps every per-node tensor of up to
# _MAX_AXES**3 float64 values the package forms within numpy's 2**63 bytes
_MAX_NODES = 2**40


def _write_array(fh, array):
    """Write the bytes of a C-contiguous array without copying it."""
    fh.write(array.reshape(-1).view(np.uint8))


def _check_remaining(fh, nbytes, path):
    """The bytes after the position of ``fh``; raise ValidationError when
    fewer than ``nbytes``, before anything that large is read or
    allocated."""
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if remaining < nbytes:
        raise ValidationError(
            f"{path}: file is truncated: {nbytes} more bytes expected, "
            f"{max(remaining, 0)} remain"
        )
    return remaining


def _read_exact(fh, nbytes, path):
    _check_remaining(fh, nbytes, path)
    return fh.read(nbytes)


def _header(grid, shape, is_complex, mask):
    """The header of a field of ``shape`` on ``grid``, its leading axes
    the grid's, with support mask ``mask``."""
    return (
        _GRID_MAGIC
        + struct.pack("<IIII", int(is_complex), grid.n_axes, len(shape) - grid.n_axes, mask)
        + struct.pack(f"<{len(shape)}Q", *shape)
        + struct.pack(f"<{2 * grid.n_axes}d", *(x for extent in grid.extents for x in extent))
    )


def _read_header(fh, path):
    """``(grid, shape, profile_shape, is_complex)`` of the file open as
    ``fh``, left at its payload.  Raises ValidationError when the file
    is not a grid field or is in an earlier layout, its header declares
    more axes than an array holds, a support bit beyond its grid axes,
    an empty axis, more than 2**40 nodes or an invalid grid, or its
    length is not the header's."""
    magic = fh.read(8)
    if magic == _FULL_GRID_MAGIC:
        raise ValidationError(
            f"{path}: the grid field is in the old full-grid layout "
            f"({_FULL_GRID_MAGIC.decode()}) with a JSON descriptor; write it again "
            f"to get the self-describing {_GRID_MAGIC.decode()} layout"
        )
    if magic.startswith(b"SCPATH"):
        raise ValidationError(
            f"{path}: the ensemble is in the old path-ensemble layout "
            f"({magic.decode(errors='backslashreplace')}); simulate it again to write "
            f"the {_GRID_MAGIC.decode()} layout"
        )
    if magic != _GRID_MAGIC:
        raise ValidationError(f"{path}: not a grid field file")
    flags, n_axes, rank, mask = struct.unpack("<IIII", _read_exact(fh, 16, path))
    if n_axes + rank > _MAX_AXES:
        raise ValidationError(
            f"{path}: header declares {n_axes} grid axes and tensor rank {rank}; "
            f"at most {_MAX_AXES} axes in all"
        )
    if mask >> n_axes:
        raise ValidationError(
            f"{path}: support mask {mask:#x} sets a bit beyond its {n_axes} grid axes"
        )
    shape = struct.unpack(f"<{n_axes + rank}Q", _read_exact(fh, 8 * (n_axes + rank), path))
    if 0 in shape:
        raise ValidationError(f"{path}: header declares an empty axis in shape {shape}")
    if math.prod(shape[:n_axes]) > _MAX_NODES:
        raise ValidationError(
            f"{path}: header declares grid counts {shape[:n_axes]}; at most 2**40 nodes in all"
        )
    ends = np.frombuffer(_read_exact(fh, 16 * n_axes, path), dtype="<f8")
    try:
        grid = GridSpec(tuple(zip(ends[::2], ends[1::2])), shape[:n_axes])
    except ValidationError as exc:
        raise ValidationError(f"{path}: header declares an invalid grid", exc.problems) from exc
    profile_shape = tuple(
        n if mask >> k & 1 else 1 for k, n in enumerate(shape[:n_axes])
    ) + shape[n_axes:]
    nbytes = 8 * (1 + (flags & 1)) * math.prod(profile_shape)
    extra = _check_remaining(fh, nbytes, path) - nbytes
    if extra:
        raise ValidationError(f"{path}: {extra} bytes follow the payload its header describes")
    return grid, shape, profile_shape, bool(flags & 1)


@contextlib.contextmanager
def open_output(path):
    """Open ``path`` for binary writing; an OSError while opening or
    writing it is a ValidationError that names the path."""
    try:
        with open(path, "wb") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def write_grid(path, values, grid):
    """Write a grid field on its support.

    Parameters
    ----------
    path : str
    values : ndarray
        Leading axes are the axes of ``grid``, trailing axes (if any) are
        tensor components.  Complex data is stored as its ``<c16`` bytes.
    grid : GridSpec
        The field's grid; its node counts and extents go in the header.

    The payload is the profile: every grid axis along which the slices
    are bit-identical is cut to length 1, a stride-0 axis of a broadcast
    view without a comparison.

    Returns
    -------
    (sha256, nbytes)
        Hex digest and size of the file.
    """
    values = np.asarray(values)
    n_axes = grid.n_axes
    if values.shape[:n_axes] != grid.shape:
        raise ValidationError(
            "field shape does not match grid",
            [f"grid shape {grid.shape}, field shape {values.shape}"],
        )
    is_complex = np.iscomplexobj(values)
    values = np.asarray(values, dtype="<c16" if is_complex else "<f8")
    # compared as bit patterns, so -0.0 differs from 0.0 and NaN equals itself
    parts = (values.real, values.imag) if is_complex else (values,)
    support = _joint_support(n_axes, *(part.view("<u8") for part in parts))
    profile = np.ascontiguousarray(_on_support(values, support, n_axes))
    header = _header(grid, values.shape, is_complex, sum(1 << k for k in support))
    with open_output(path) as fh:
        fh.write(header)
        _write_array(fh, profile)
    digest = hashlib.sha256(header)
    digest.update(profile)
    return digest.hexdigest(), len(header) + profile.nbytes


def _open_input(path, kind):
    """``path`` opened to read bytes; an OSError is a ValidationError."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise ValidationError(f"cannot read {kind} file {path}: {exc}") from exc


def read_grid(path):
    """Read a grid field, such as one written by :func:`write_grid` or
    :class:`EnsembleWriter`.

    Returns
    -------
    (values, grid)
        ``grid`` is the :class:`GridSpec` of the header, and ``values``
        a read-only view of the stored profile at every node of it.

    Raises
    ------
    ValidationError
        When the file cannot be opened, when :func:`_read_header`
        rejects it, or when numpy cannot hold its shape.
    """
    with _open_input(path, "grid") as fh:
        grid, shape, profile_shape, is_complex = _read_header(fh, path)
        profile = np.fromfile(fh, dtype="<f8", count=(1 + is_complex) * math.prod(profile_shape))
    profile = (profile.view("<c16") if is_complex else profile).reshape(profile_shape)
    try:
        return np.broadcast_to(profile, shape), grid
    except ValueError as exc:  # such as a field of more than 2**63 bytes
        raise ValidationError(f"{path}: header declares shape {shape}: {exc}") from exc


def _ensemble_view(buffer, offset, rows):
    """``values[path, step, component]``: the transposed view of the
    time-major float64 payload of shape ``rows``, ``(points, components,
    paths)``, at byte ``offset`` of ``buffer``, read-only when ``buffer``
    is."""
    return np.ndarray(rows, dtype="<f8", buffer=buffer, offset=offset).transpose(2, 0, 1)


class _ArraySink:
    """In-memory sink of :func:`market.simulate`: state rows are copied
    into a time-major array, and ``values`` is its ensemble view."""

    def __init__(self, shape):
        paths, points, components = shape
        self._rows = np.empty((points, components, paths))
        self.values = _ensemble_view(self._rows, 0, self._rows.shape)

    def step(self, k, row):
        self._rows[k] = row


class EnsembleWriter:
    """Sink of :func:`market.simulate` that writes the path ensemble on
    the time grid ``grid`` one time step at a time and, with ``digest``,
    hashes it on the way.

    :meth:`step` takes each time point's ``(components, paths)`` state
    row, in time order, one call at a time (possibly from different
    threads, each after the call before has returned), writes it after
    the rows before it and, with ``digest``, feeds it to a SHA-256 seeded
    with the header.  The writer opens the file write-only and maps none
    of it: once every row is in, ``values`` (None until then) is the
    file read back through :func:`read_ensemble`; no stage reads it, and
    the benchmark's tracer reads its shape.  Use the writer as a context
    manager::

        with EnsembleWriter(path, grid, paths, 3, digest=True) as writer:
            ...  # writer.step(k, row) for each k in range(grid.counts[0])
        writer.sha256, writer.nbytes  # sha256 stays None without digest

    The file, the only one the writer leaves, is built under ``path +
    ".partial"`` and moved to ``path`` by ``os.replace``, so a map of the
    file it replaces keeps its values, when the block ends without an
    exception and every row is in; otherwise it is removed, so a failed
    simulation leaves no ensemble behind.  An OSError while writing or
    moving it is a ValidationError naming ``path``.  Nothing is synced to
    disk, as with ``write``.
    """

    def __init__(self, path, grid, paths, components, digest):
        shape = (grid.counts[0], int(components), int(paths))
        if 0 in shape:
            raise ValidationError(f"ensemble shape {shape} has an empty axis")
        self._path = str(path)
        self._shape = shape
        head = _header(grid, shape, False, 1)
        self.nbytes = len(head) + 8 * math.prod(shape)
        self.sha256 = None
        self.values = None
        self._hash = hashlib.sha256(head) if digest else None
        self._next = 0
        self._partial = self._path + ".partial"
        self._fh = None
        try:
            self._fh = open(self._partial, "wb")
            self._fh.write(head)
        except OSError as exc:
            self._discard(exc)

    def _discard(self, exc=None):
        """Close and remove the partial file; raise ``exc`` again as a
        ValidationError."""
        if self._fh is not None:
            with contextlib.suppress(OSError):
                self._fh.close()
        with contextlib.suppress(FileNotFoundError, IsADirectoryError):
            os.unlink(self._partial)
        if exc is not None:
            raise ValidationError(f"cannot write ensemble {self._path}: {exc}") from exc

    def step(self, k, row):
        """Write ``row``, the ``(components, paths)`` states at time point
        ``k``, which must follow the rows written so far, and hash it with
        ``digest``."""
        points, states = self._shape[0], self._shape[1:]
        if k >= points:
            raise ValidationError(f"ensemble step {k} is past the last step {points - 1}")
        if k != self._next:
            raise ValidationError(f"ensemble step {k} out of order: step {self._next} comes next")
        if row.shape != states:
            raise ValidationError(
                f"ensemble row of shape {row.shape} does not hold the states of shape {states}"
            )
        row = np.ascontiguousarray(row, dtype="<f8")
        if self._hash is not None:
            self._hash.update(row)
        try:
            _write_array(self._fh, row)
            if k == points - 1:
                self._fh.flush()
                self.values = read_ensemble(self._partial)[1]
        except OSError as exc:
            self._discard(exc)
        self._next = k + 1

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None and self._next == self._shape[0]:
            try:
                self._fh.close()
                os.replace(self._partial, self._path)
            except OSError as err:
                self._discard(err)
            if self._hash is not None:
                self.sha256 = self._hash.hexdigest()
            return False
        self._discard()
        if exc_type is None:
            raise ValidationError(
                f"ensemble steps from {self._next} of {self._shape[0]} were never finished"
            )
        return False


def read_ensemble(path):
    """``(times, values)`` of a path ensemble written by
    :class:`EnsembleWriter`: the nodes of its time grid, and
    ``values[path, step, component]``, a view of a read-only map of the
    payload.  Raises ValidationError, before mapping anything, when the
    file cannot be opened, :func:`_read_header` rejects it or it holds
    any other field."""
    with _open_input(path, "ensemble") as fh:
        grid, shape, profile_shape, is_complex = _read_header(fh, path)
        if is_complex or grid.n_axes != 1 or len(shape) != 3 or profile_shape != shape:
            raise ValidationError(
                f"{path}: not a path ensemble: a {'complex' if is_complex else 'real'} field "
                f"of shape {shape} on {grid.n_axes} grid axes, stored as {profile_shape}"
            )
        offset = fh.tell()
        # the map keeps its own descriptor of the file; the array keeps the map
        view = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    return grid.coordinates(0), _ensemble_view(view, offset, shape)


def sha256_of(path):
    """Hex SHA-256 of a file read in full, such as a metric file a
    scenario names or a file whose writer returned a digest."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
