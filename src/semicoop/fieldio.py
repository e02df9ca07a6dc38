"""Binary I/O for grid fields and path ensembles.

Grid field layout (little-endian throughout):

========  ====================================================
bytes     content
========  ====================================================
0:8       magic ``b"SCGRID01"``
8:12      flags (uint32); bit 0 set for complex payload
12:16     number of grid axes (uint32)
16:20     tensor rank, i.e. trailing non-grid axes (uint32)
20:24     reserved (uint32, zero)
...       axis node counts, uint64 per grid axis
...       tensor dimensions, uint64 per tensor axis
...       payload: float64 row-major; a complex payload is its
          ``<c16`` bytes, real and imaginary parts interleaved
          per element
========  ====================================================

A JSON descriptor is written next to the binary file (same path with a
``.json`` suffix appended) recording shapes, dtype, grid extents when
known, and the package version.  Descriptors carry no timestamps so a
rerun with identical inputs produces byte-identical files.

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
once, in time order, hashing it on the way, so no file is read back for
its digest and no page of the file is mapped while it is written.  The
file is moved in by ``os.replace`` when every row is in, so a map of the
file it replaces keeps its values.  The writer and the in-memory sink,
the two sinks of :func:`market.simulate`, and :func:`read_ensemble`,
which maps the file read-only, see the payload as ``values[path, step,
component]``, one transposed view: this module alone turns payload
bytes into arrays.  :func:`read_ensemble` rejects the earlier
path-major layout, magic ``b"SCPATH01"``.

The writers digest the bytes they write: :func:`write_grid` returns
``(sha256, nbytes)`` of its file, and an :class:`EnsembleWriter` holds
both once its file is in place.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import mmap
import os
import struct

import numpy as np

from . import __version__
from .errors import ValidationError
from .grids import GridSpec

_GRID_MAGIC = b"SCGRID01"
_PATH_MAGIC = b"SCPATH02"
_PATH_MAJOR_MAGIC = b"SCPATH01"
# numpy arrays have at most 64 axes; no field of this package has more than 5
_MAX_AXES = 32


def _descriptor_path(path):
    return str(path) + ".json"


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


def write_grid(path, values, grid=None, extra=None):
    """Write a grid field and its JSON descriptor.

    Parameters
    ----------
    path : str
        Output file; the descriptor goes to ``path + ".json"``.
    values : ndarray
        Leading axes are grid axes, trailing axes (if any) are tensor
        components.  Complex data is stored as its ``<c16`` bytes.
    grid : GridSpec, optional
        When given, its extents are recorded in the descriptor so the
        field can be rebuilt with correct spacings.
    extra : dict, optional
        Additional descriptor entries (must be JSON serializable).

    Returns
    -------
    (sha256, nbytes)
        Hex digest and size of the binary file.
    """
    values = np.asarray(values)
    if grid is not None:
        n_axes = grid.n_axes
        if values.shape[:n_axes] != grid.shape:
            raise ValidationError(
                "field shape does not match grid",
                [f"grid shape {grid.shape}, field shape {values.shape}"],
            )
    else:
        n_axes = values.ndim
    grid_shape = values.shape[:n_axes]
    tensor_shape = values.shape[n_axes:]
    is_complex = np.iscomplexobj(values)

    header = bytearray()
    header += _GRID_MAGIC
    header += struct.pack("<IIII", 1 if is_complex else 0, n_axes, len(tensor_shape), 0)
    header += struct.pack(f"<{n_axes}Q", *grid_shape)
    if tensor_shape:
        header += struct.pack(f"<{len(tensor_shape)}Q", *tensor_shape)

    payload = np.asarray(values, dtype="<c16" if is_complex else "<f8")
    # a view that is not contiguous, such as a field broadcast from its
    # profile, is written one leading slab at a time, never copied whole
    if payload.ndim > 1 and not payload.flags.c_contiguous:
        slabs = payload
    else:
        slabs = (np.ascontiguousarray(payload),)

    header = bytes(header)
    digest = hashlib.sha256(header)
    with open_output(path) as fh:
        fh.write(header)
        for slab in slabs:
            slab = np.ascontiguousarray(slab)
            digest.update(slab)
            _write_array(fh, slab)

    descriptor = {
        "format": "semicoop-grid",
        "version": __version__,
        "dtype": "complex128" if is_complex else "float64",
        "grid_shape": list(grid_shape),
        "tensor_shape": list(tensor_shape),
    }
    if grid is not None:
        descriptor["grid"] = grid.to_dict()
    if extra:
        descriptor.update(extra)
    _write_descriptor(path, descriptor)
    return digest.hexdigest(), len(header) + payload.nbytes


def _write_descriptor(path, descriptor):
    with open_output(_descriptor_path(path)) as fh:
        fh.write((json.dumps(descriptor, indent=2, sort_keys=True) + "\n").encode())


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
    (values, grid, descriptor)
        ``grid`` is a :class:`GridSpec` when the descriptor recorded
        extents, otherwise ``None``.

    Raises
    ------
    ValidationError
        When the file or its descriptor cannot be opened (a missing
        descriptor is allowed), the descriptor is not JSON or holds a
        malformed grid, or the file is not a grid field, or is shorter or
        longer than its header says.
    """
    with _open_input(path, "grid") as fh:
        magic = fh.read(8)
        if magic != _GRID_MAGIC:
            raise ValidationError(f"{path}: not a grid field file")
        flags, n_axes, rank, _ = struct.unpack("<IIII", _read_exact(fh, 16, path))
        if n_axes + rank > _MAX_AXES:
            raise ValidationError(
                f"{path}: header declares {n_axes} grid axes and tensor rank {rank}; "
                f"at most {_MAX_AXES} axes in all"
            )
        grid_shape = struct.unpack(f"<{n_axes}Q", _read_exact(fh, 8 * n_axes, path))
        tensor_shape = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, path))
        shape = grid_shape + tensor_shape
        if 0 in shape:
            raise ValidationError(f"{path}: header declares an empty axis in shape {shape}")
        values = _read_floats(fh, (1 + (flags & 1)) * math.prod(shape), path)
        values = (values.view("<c16") if flags & 1 else values).reshape(shape)
        _check_at_end(fh, path)

    descriptor, grid = {}, None
    try:
        with open(_descriptor_path(path), "rb") as fh:
            descriptor = json.load(fh)
        if "grid" in descriptor:
            grid = GridSpec.from_dict(descriptor["grid"])
    except FileNotFoundError:
        pass
    except (OSError, ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ValidationError(f"cannot read grid descriptor of {path}: {exc!r}") from exc
    return values, grid, descriptor


def _ensemble_view(buffer, offset, shape):
    """``values[path, step, component]`` of ``shape``: the transposed view
    of the time-major ``(points, components, paths)`` float64 payload at
    byte ``offset`` of ``buffer``, read-only when ``buffer`` is."""
    paths, points, components = shape
    rows = np.ndarray((points, components, paths), dtype="<f8", buffer=buffer, offset=offset)
    return rows.transpose(2, 0, 1)


class _ArraySink:
    """In-memory sink of :func:`market.simulate`: state rows are copied
    into a time-major array, ``values`` is its ensemble view and
    ``final`` a contiguous copy of the last row."""

    def __init__(self, shape):
        paths, points, components = shape
        self._rows = np.empty((points, components, paths))
        self.values = _ensemble_view(self._rows, 0, shape)
        self.final = np.empty((paths, components))

    def step(self, k, row):
        self._rows[k] = row
        if k == len(self._rows) - 1:
            self.final[...] = row.T


class EnsembleWriter:
    """Sink of :func:`market.simulate` that writes a path ensemble one
    time step at a time and hashes it on the way.

    :meth:`step` takes each time point's ``(components, paths)`` state
    row, in time order, one call at a time (possibly from different
    threads, each after the call before has returned), writes it after
    the rows before it, feeds it to a SHA-256 seeded with the header and
    times, and copies the last row into ``final``, a contiguous
    ``(paths, components)`` array.  Once every row is in, ``values``
    (None until then) is the ensemble view of a read-only map of the
    file, which nothing reads unless asked to, such as a CSV export.
    Use the writer as a context manager::

        with EnsembleWriter(path, times, paths, 3, seed=seed) as writer:
            ...  # writer.step(k, row) for each k in range(len(times))
        writer.sha256, writer.nbytes

    The file is built under ``path + ".partial"`` and moved to ``path``,
    next to its descriptor, when the block ends without an exception and
    every row is in; otherwise it is removed, so a failed simulation
    leaves no ensemble behind.  An OSError while writing or moving it is
    a ValidationError naming ``path``.  Nothing is synced to disk, as
    with ``write``.
    """

    def __init__(self, path, times, paths, components, seed=None):
        times = np.ascontiguousarray(times, dtype="<f8")
        shape = (int(paths), times.size, int(components))
        if times.ndim != 1 or 0 in shape:
            raise ValidationError(f"ensemble shape {shape} has an empty axis")
        self._path = str(path)
        self._shape = shape
        self._descriptor = {
            "format": "semicoop-paths",
            "version": __version__,
            "paths": shape[0],
            "steps": shape[1] - 1,
            "components": shape[2],
        }
        if seed is not None:
            self._descriptor["seed"] = int(seed)
        head = _PATH_MAGIC + struct.pack("<QQI I", *shape, 0) + times.tobytes()
        self._offset = len(head)
        self.nbytes = len(head) + 8 * math.prod(shape)
        self.sha256 = None
        self.final = np.empty((shape[0], shape[2]))
        self.values = None
        self._hash = hashlib.sha256(head)
        self._next = 0
        self._partial = self._path + ".partial"
        self._fh = None
        try:
            # read as well as write, so the finished file can be mapped
            self._fh = open(self._partial, "wb+")
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
        """Write and hash ``row``, the ``(components, paths)`` states at
        time point ``k``, which must follow the rows written so far."""
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
        self._hash.update(row)
        try:
            _write_array(self._fh, row)
            if k == points - 1:
                self.final[...] = row.T
                self._fh.flush()
                # the map keeps its own descriptor of the file; the array keeps the map
                view = mmap.mmap(self._fh.fileno(), self.nbytes, access=mmap.ACCESS_READ)
                self.values = _ensemble_view(view, self._offset, self._shape)
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
            _write_descriptor(self._path, self._descriptor)
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
