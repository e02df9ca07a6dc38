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
...       payload: float64 row-major; complex data interleaves
          real and imaginary parts per element
========  ====================================================

A JSON descriptor is written next to the binary file (same path with a
``.json`` suffix appended) recording shapes, dtype, grid extents when
known, and the package version.  Descriptors carry no timestamps so a
rerun with identical inputs produces byte-identical files.

Path ensembles use a similar header (magic ``b"SCPATH01"``) followed by
``paths * (steps + 1) * components`` float64 values, one path after
another.  :class:`EnsembleWriter` is the one writer of that layout: it
writes the header and times, sizes the file and hands out the payload as
a writable memory map, so the simulation fills the file in place.  It
hashes rows as the caller declares them finished, in path order, so no
file is read back for its digest; the file appears under its name only
when every row is in.

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
_PATH_MAGIC = b"SCPATH01"
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
        components.  Complex data is stored interleaved.
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

    if is_complex:
        payload = np.empty(values.shape + (2,), dtype="<f8")
        payload[..., 0] = values.real
        payload[..., 1] = values.imag
    else:
        payload = np.asarray(values, dtype="<f8")
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
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ValidationError(f"cannot read grid file {path}: {exc}") from exc
    with fh:
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
        count = math.prod(shape)
        if flags & 1:
            raw = _read_floats(fh, 2 * count, path).reshape(shape + (2,))
            values = raw[..., 0] + 1j * raw[..., 1]
        else:
            values = _read_floats(fh, count, path).reshape(shape)
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


class EnsembleWriter:
    """Write a path ensemble in place and hash it as its rows are finished.

    ``values`` is the payload, a writable ``(paths, steps + 1,
    components)`` float64 memory map of the file; whoever fills it calls
    :meth:`rows` for each finished block of paths, in path order, and
    those rows are fed to a SHA-256 seeded with the header and times.
    Use the writer as a context manager::

        with EnsembleWriter(path, times, paths, 3, seed=seed) as writer:
            ...  # fill writer.values, calling writer.rows(lo, hi)
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
        self.nbytes = len(head) + 8 * math.prod(shape)
        self.sha256 = None
        self._hash = hashlib.sha256(head)
        self._next = 0
        self._partial = self._path + ".partial"
        try:
            with open(self._partial, "wb+") as fh:
                fh.write(head)
                fh.truncate(self.nbytes)
                # the map keeps its own descriptor of the file; the array keeps the map
                self.values = np.ndarray(
                    shape, dtype="<f8", buffer=mmap.mmap(fh.fileno(), self.nbytes), offset=len(head)
                )
        except OSError as exc:
            self._discard(exc)

    def _discard(self, exc=None):
        """Remove the partial file; raise ``exc`` again as a ValidationError."""
        with contextlib.suppress(FileNotFoundError, IsADirectoryError):
            os.unlink(self._partial)
        if exc is not None:
            raise ValidationError(f"cannot write ensemble {self._path}: {exc}") from exc

    def rows(self, lo, hi):
        """Hash rows ``[lo, hi)`` of ``values``, which must follow the
        rows hashed so far."""
        if lo != self._next or not lo < hi <= len(self.values):
            raise ValidationError(
                f"ensemble rows [{lo}, {hi}) out of order: row {self._next} comes next"
            )
        self._hash.update(self.values[lo:hi])
        self._next = hi

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None and self._next == len(self.values):
            try:
                os.replace(self._partial, self._path)
            except OSError as err:
                self._discard(err)
            _write_descriptor(self._path, self._descriptor)
            self.sha256 = self._hash.hexdigest()
            return False
        self._discard()
        if exc_type is None:
            raise ValidationError(
                f"ensemble rows from {self._next} of {len(self.values)} were never finished"
            )
        return False


def read_ensemble(path):
    """Read a path ensemble written by :class:`EnsembleWriter`.

    Returns ``(times, values)``; raises ValidationError when the file is
    not a path ensemble, declares an empty axis, or is shorter or longer
    than its header says.
    """
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _PATH_MAGIC:
            raise ValidationError(f"{path}: not a path ensemble file")
        paths, nsteps, comps, _ = struct.unpack("<QQI I", _read_exact(fh, 24, path))
        if 0 in (paths, nsteps, comps):
            raise ValidationError(
                f"{path}: header declares an empty axis in shape {(paths, nsteps, comps)}"
            )
        times = _read_floats(fh, nsteps, path)
        values = _read_floats(fh, paths * nsteps * comps, path)
        _check_at_end(fh, path)
    return times, values.reshape(paths, nsteps, comps)


def sha256_of(path):
    """Hex SHA-256 of a file read in full, such as a metric file a
    scenario names or a file whose writer returned a digest."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
