"""Binary I/O for grid fields and path ensembles.

Grid field layout (little-endian throughout), one self-describing file
per field:

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

An axis is outside the support only when its slices are bit-identical,
so every value, ``-0.0`` and NaN included, reads back as written.
:func:`read_grid` rebuilds the grid from the header and returns the
field as a read-only broadcast view of its profile, so a reader such as
:class:`geometry.MetricField` finds the support from the strides, with
no pass over the values.  It rejects the earlier full-grid layout, magic
``b"SCGRID01"``, whose extents were kept in a JSON file beside it.

Path ensemble layout (little-endian throughout), time-major:

========  ====================================================
bytes     content
========  ====================================================
0:8       magic ``b"SCPATH02"``
8:16      paths (uint64)
16:24     time points, steps + 1 (uint64)
24:28     components (uint32)
28:32     reserved (uint32, zero)
...       times, one float64 per time point
...       payload: float64, ``(time points, components, paths)``
          row-major: the states of every path at the first time,
          component by component, then at the next time
========  ====================================================

:class:`EnsembleWriter` is the one writer of that layout: it writes the
header and times, then each time point's ``(components, paths)`` row
once, in time order, hashing it on the way when asked for a digest, so
no file is read back for its digest.  The file is moved in by
``os.replace`` when every row is in, so a map of the file it replaces
keeps its values.  :func:`read_ensemble` is the one reader: it maps the
payload read-only as ``values[path, step, component]``, a transposed
view, which the in-memory sink of :func:`market.simulate` shares, so
this module alone turns payload bytes into arrays.  It rejects the
earlier path-major layout, magic ``b"SCPATH01"``.

The writers digest the bytes they write: :func:`write_grid` returns
``(sha256, nbytes)`` of its file, and an :class:`EnsembleWriter` holds
both once its file is in place, the digest only if asked for one.
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
_PATH_MAGIC = b"SCPATH02"
_PATH_MAJOR_MAGIC = b"SCPATH01"
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
    """Raise ValidationError unless ``nbytes`` remain after the position
    of ``fh``, before anything that large is read or allocated."""
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if remaining < nbytes:
        raise ValidationError(
            f"{path}: file is truncated: {nbytes} more bytes expected, "
            f"{max(remaining, 0)} remain"
        )


def _check_at_end(fh, path):
    """Raise ValidationError when bytes follow the payload the header
    describes."""
    extra = os.fstat(fh.fileno()).st_size - fh.tell()
    if extra:
        raise ValidationError(f"{path}: {extra} bytes follow the payload its header describes")


def _read_exact(fh, nbytes, path):
    _check_remaining(fh, nbytes, path)
    return fh.read(nbytes)


def _read_floats(fh, count, path):
    """Read ``count`` little-endian float64 values in one pass."""
    _check_remaining(fh, 8 * count, path)
    return np.fromfile(fh, dtype="<f8", count=count)


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
    rank = values.ndim - n_axes
    header = (
        _GRID_MAGIC
        + struct.pack("<IIII", int(is_complex), n_axes, rank, sum(1 << k for k in support))
        + struct.pack(f"<{values.ndim}Q", *values.shape)
        + struct.pack(f"<{2 * n_axes}d", *(x for extent in grid.extents for x in extent))
    )
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
    """Read a grid field written by :func:`write_grid`.

    Returns
    -------
    (values, grid)
        ``grid`` is the :class:`GridSpec` of the header, and ``values``
        a read-only view of the stored profile at every node of it.

    Raises
    ------
    ValidationError
        When the file cannot be opened, is not a grid field or is in the
        earlier ``SCGRID01`` layout, when its header declares more axes
        than an array holds, a support bit beyond its grid axes, an empty
        axis, more than 2**40 nodes, an invalid grid or a shape numpy
        cannot hold, or when the file is shorter or longer than its
        header says.
    """
    with _open_input(path, "grid") as fh:
        magic = fh.read(8)
        if magic == _FULL_GRID_MAGIC:
            raise ValidationError(
                f"{path}: the grid field is in the old full-grid layout "
                f"({_FULL_GRID_MAGIC.decode()}) with a JSON descriptor; write it again "
                f"to get the self-describing {_GRID_MAGIC.decode()} layout"
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
                f"{path}: header declares grid counts {shape[:n_axes]}; "
                f"at most 2**40 nodes in all"
            )
        ends = _read_floats(fh, 2 * n_axes, path)
        try:
            grid = GridSpec(tuple(zip(ends[::2], ends[1::2])), shape[:n_axes])
        except ValidationError as exc:
            raise ValidationError(f"{path}: header declares an invalid grid", exc.problems) from exc
        profile_shape = tuple(
            n if mask >> k & 1 else 1 for k, n in enumerate(shape[:n_axes])
        ) + shape[n_axes:]
        profile = _read_floats(fh, (1 + (flags & 1)) * math.prod(profile_shape), path)
        _check_at_end(fh, path)
    profile = (profile.view("<c16") if flags & 1 else profile).reshape(profile_shape)
    try:
        return np.broadcast_to(profile, shape), grid
    except ValueError as exc:  # such as a field of more than 2**63 bytes
        raise ValidationError(f"{path}: header declares shape {shape}: {exc}") from exc


def _ensemble_view(buffer, offset, shape):
    """``values[path, step, component]`` of ``shape``: the transposed view
    of the time-major ``(points, components, paths)`` float64 payload at
    byte ``offset`` of ``buffer``, read-only when ``buffer`` is."""
    paths, points, components = shape
    rows = np.ndarray((points, components, paths), dtype="<f8", buffer=buffer, offset=offset)
    return rows.transpose(2, 0, 1)


class _ArraySink:
    """In-memory sink of :func:`market.simulate`: state rows are copied
    into a time-major array, and ``values`` is its ensemble view."""

    def __init__(self, shape):
        paths, points, components = shape
        self._rows = np.empty((points, components, paths))
        self.values = _ensemble_view(self._rows, 0, shape)

    def step(self, k, row):
        self._rows[k] = row


class EnsembleWriter:
    """Sink of :func:`market.simulate` that writes a path ensemble one
    time step at a time and, with ``digest``, hashes it on the way.

    :meth:`step` takes each time point's ``(components, paths)`` state
    row, in time order, one call at a time (possibly from different
    threads, each after the call before has returned), writes it after
    the rows before it and, with ``digest``, feeds it to a SHA-256 seeded
    with the header and times.  The writer opens the file write-only
    and maps none of it: once every row is in, ``values`` (None until
    then) is the file read back through :func:`read_ensemble`; no stage
    reads it, and the benchmark's tracer reads its shape.  Use the writer
    as a context manager::

        with EnsembleWriter(path, times, paths, 3, digest=True) as writer:
            ...  # writer.step(k, row) for each k in range(len(times))
        writer.sha256, writer.nbytes  # sha256 stays None without digest

    The file, the only one the writer leaves, is built under ``path +
    ".partial"`` and moved to ``path`` when the block ends without an
    exception and every row is in; otherwise it is removed, so a failed
    simulation leaves no ensemble behind.  An OSError while writing or
    moving it is a ValidationError naming ``path``.  Nothing is synced to
    disk, as with ``write``.
    """

    def __init__(self, path, times, paths, components, digest):
        times = np.ascontiguousarray(times, dtype="<f8")
        shape = (int(paths), times.size, int(components))
        if times.ndim != 1 or 0 in shape:
            raise ValidationError(f"ensemble shape {shape} has an empty axis")
        self._path = str(path)
        self._shape = shape
        head = _PATH_MAGIC + struct.pack("<QQI I", *shape, 0) + times.tobytes()
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
        paths, points, components = self._shape
        if k >= points:
            raise ValidationError(f"ensemble step {k} is past the last step {points - 1}")
        if k != self._next:
            raise ValidationError(f"ensemble step {k} out of order: step {self._next} comes next")
        if row.shape != (components, paths):
            raise ValidationError(
                f"ensemble row of shape {row.shape} does not hold the states of shape "
                f"{(components, paths)}"
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
        if exc_type is None and self._next == self._shape[1]:
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
                f"ensemble steps from {self._next} of {self._shape[1]} were never finished"
            )
        return False


def read_ensemble(path):
    """Read a path ensemble written by :class:`EnsembleWriter`.

    Returns ``(times, values)``, ``values[path, step, component]`` the
    ensemble view of a read-only map of the payload; raises
    ValidationError, before mapping anything, when the file cannot be
    opened, is not a path ensemble or is in the earlier path-major
    layout, declares an empty axis, or is shorter or longer than said.
    """
    with _open_input(path, "ensemble") as fh:
        magic = fh.read(8)
        if magic == _PATH_MAJOR_MAGIC:
            raise ValidationError(
                f"{path}: the ensemble is in the old path-major layout "
                f"({_PATH_MAJOR_MAGIC.decode()}); simulate it again to write the "
                f"time-major {_PATH_MAGIC.decode()} layout"
            )
        if magic != _PATH_MAGIC:
            raise ValidationError(f"{path}: not a path ensemble file")
        paths, nsteps, comps, _ = struct.unpack("<QQI I", _read_exact(fh, 24, path))
        if 0 in (paths, nsteps, comps):
            raise ValidationError(
                f"{path}: header declares an empty axis in shape {(paths, nsteps, comps)}"
            )
        times = _read_floats(fh, nsteps, path)
        offset, nbytes = fh.tell(), 8 * paths * nsteps * comps
        _check_remaining(fh, nbytes, path)
        fh.seek(nbytes, os.SEEK_CUR)
        _check_at_end(fh, path)
        # the map keeps its own descriptor of the file; the array keeps the map
        view = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    return times, _ensemble_view(view, offset, (paths, nsteps, comps))


def sha256_of(path):
    """Hex SHA-256 of a file read in full, such as a metric file a
    scenario names or a file whose writer returned a digest."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
