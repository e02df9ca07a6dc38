import contextlib
import hashlib
import io
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft

from semicoop import GridSpec, ValidationError, cli, geometry, market
from semicoop.fieldio import EnsembleWriter, read_ensemble, read_grid, sha256_of, write_grid
from semicoop.grids import dst1


@pytest.mark.parametrize("m", [1, 2, 7, 23, 63])
def test_dst1_equals_scipy_bit_for_bit(m):
    rng = np.random.default_rng(m)
    coeffs = rng.standard_normal((3, m, m))
    assert np.array_equal(dst1(dst1(coeffs, 1), 2), scipy.fft.dstn(coeffs, type=1, axes=(1, 2)))
    field = rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m))
    ortho = scipy.fft.dst(field, type=1, norm="ortho", axis=1)
    assert np.array_equal(dst1(field, 1) * np.sqrt(0.5 / (m + 1)), ortho)


def test_gridspec_rejects_tiny_axes():
    with pytest.raises(ValidationError):
        GridSpec.from_axes((0.0, 1.0, 2), (0.0, 1.0, 5))
    with pytest.raises(ValidationError):
        GridSpec.from_axes((1.0, 0.0, 5), (0.0, 1.0, 5))


def test_trapezoid_weights_integrate_volume():
    grid = GridSpec.from_axes((0.0, 2.0, 9), (0.0, 3.0, 7), (0.0, 0.5, 5))
    assert np.isclose(grid.trapezoid_weights().sum(), 2.0 * 3.0 * 0.5)


# the 2-D grid of the fields below that need no grid of their own
PLANE = GridSpec.from_axes((0.0, 1.0, 4), (0.0, 2.0, 5))


def test_grid_roundtrip_real(tmp_path):
    values = np.arange(4 * 5 * 3 * 3, dtype=float).reshape(4, 5, 3, 3)
    path = tmp_path / "field.bin"
    write_grid(path, values, PLANE)
    back, back_grid = read_grid(path)
    assert np.array_equal(back, values)
    assert back_grid == PLANE
    with pytest.raises(ValueError, match="read-only"):
        back[0, 0, 0, 0] = 1.0


def test_grid_roundtrip_complex(tmp_path):
    values = np.exp(1j * np.arange(20, dtype=float)).reshape(4, 5)
    path = tmp_path / "psi.bin"
    write_grid(path, values, PLANE)
    back, _ = read_grid(path)
    assert np.array_equal(back, values)
    assert back.dtype == np.complex128


def test_complex_grid_roundtrip_keeps_every_bit(tmp_path):
    # signed zeros and an infinite part are written and read back as they
    # are, with no arithmetic that could warn or change a bit
    values = np.array(
        [[complex(-0.0, -0.0), complex(-0.0, 1.0), 0j],
         [complex(2.0, -0.0), complex(1.0, np.inf), 0j],
         [complex(-0.0, -0.0), complex(-0.0, 1.0), 0j]]
    )
    grid = GridSpec.from_axes((0.0, 1.0, 3), (0.0, 1.0, 3))
    path = tmp_path / "psi.bin"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_grid(path, values, grid)
        back = read_grid(path)[0]
    assert path.read_bytes() == grid_file_bytes(values, grid, (0, 1))
    assert back.dtype == np.complex128 and back.shape == values.shape
    assert back.tobytes() == values.tobytes()


def _signed_zero():
    values = np.zeros((4, 5))
    values[2, 3] = -0.0
    return values


def _nan_column():
    # bit-identical slices along axis 0, each holding a NaN
    return np.tile(np.where(np.arange(5) == 2, np.nan, np.arange(5.0)), (4, 1))


# (field, its grid, the axes it is stored on)
EXACT_CASES = {
    "dense": lambda: (
        np.random.default_rng(6).standard_normal((4, 5, 6)),
        GridSpec.from_axes((0.0, 1.0, 4), (0.0, 2.0, 5), (0.0, 1.0, 6)),
        (0, 1, 2),
    ),
    "broadcast": lambda: (
        np.broadcast_to(np.random.default_rng(7).standard_normal((1, 5, 1, 3, 3)), (4, 5, 6, 3, 3)),
        GridSpec.from_axes((0.0, 1.0, 4), (0.0, 2.0, 5), (0.0, 1.0, 6)),
        (1,),
    ),
    "complex-2d": lambda: (np.exp(1j * np.arange(20.0)).reshape(4, 5), PLANE, (0, 1)),
    "tensor": lambda: (
        np.repeat(np.random.default_rng(8).standard_normal((1, 5, 3, 3)), 4, axis=0),
        PLANE,
        (1,),
    ),
    "signed-zero": lambda: (_signed_zero(), PLANE, (0, 1)),
    "nan": lambda: (_nan_column(), PLANE, (1,)),
}


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_grid_round_trip_is_exact_and_stored_on_the_support(tmp_path, case):
    values, grid, support = EXACT_CASES[case]()
    path = tmp_path / "f.bin"
    digest, nbytes = write_grid(path, values, grid)
    back, back_grid = read_grid(path)
    assert back_grid == grid and back.shape == values.shape
    assert back.dtype == values.dtype and back.tobytes() == values.tobytes()
    data = path.read_bytes()
    assert data == grid_file_bytes(values, grid, support)
    profile_size = math.prod(
        n if k in support else 1 for k, n in enumerate(values.shape[: grid.n_axes])
    ) * math.prod(values.shape[grid.n_axes :])
    payload = len(data) - (24 + 8 * values.ndim + 16 * grid.n_axes)
    assert payload == 8 * profile_size * (2 if np.iscomplexobj(values) else 1)
    assert (digest, nbytes) == (sha256_of(path), len(data))


def test_grid_shape_mismatch_rejected(tmp_path):
    with pytest.raises(ValidationError):
        write_grid(tmp_path / "x.bin", np.zeros((3, 5)), PLANE)


def write_ensemble(path, times, values):
    """Write ``values[path, step, component]`` through an EnsembleWriter,
    one ``(components, paths)`` row a step."""
    with EnsembleWriter(path, times, len(values), 3) as writer:
        for k in range(values.shape[1]):
            writer.step(k, values[:, k].T)
    return writer


def test_ensemble_roundtrip(tmp_path):
    times = np.linspace(0.0, 1.0, 5)
    values = np.random.default_rng(0).standard_normal((7, 5, 3))
    path = tmp_path / "paths.bin"
    write_ensemble(path, times, values)
    t, v = read_ensemble(path)
    assert np.array_equal(t, times)
    assert np.array_equal(v, values)


def test_read_ensemble_maps_the_payload_read_only(tmp_path):
    # 10 000 paths x 67 points x 3 components: a 16.08 MB payload
    paths, points = 10_000, 67
    times = np.linspace(0.0, 1.0, points)
    rng = np.random.default_rng(5)
    path = tmp_path / "p.bin"
    with EnsembleWriter(path, times, paths, 3) as writer:
        for k in range(points):
            row = rng.standard_normal((3, paths))
            writer.step(k, row)
    tracemalloc.start()
    try:
        t, values = read_ensemble(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert values.shape == (paths, points, 3)
    with pytest.raises(ValueError, match="read-only"):
        values[0, 0, 0] = 1.0
    assert np.array_equal(t, times)
    assert np.array_equal(values[:, -1], row.T)
    assert np.array_equal(values, writer.values)


def test_read_view_keeps_its_values_when_simulate_writes_the_file_again(tmp_path):
    # the writer swaps the new file in, so the old map still holds the old file
    grid = GridSpec.from_axes((0.0, 1.0, 3), (0.5, 2.5, 5), (0.0, 1.0, 5))
    metric = geometry.sphere_metric(grid)
    coeffs = market.derive_coefficients(metric)
    path = tmp_path / "paths.bin"

    def simulate(seed):
        with EnsembleWriter(path, np.linspace(0.0, 1.0, 9), 5000, 3) as writer:
            return market.simulate(coeffs, [0.5, 1.5, 0.5], 1.0, 8, 5000, seed, sink=writer)

    ensemble = simulate(1)
    _, values = read_ensemble(path)
    # the run's own final states are the written file's last step
    assert ensemble.final.flags.c_contiguous
    assert np.array_equal(ensemble.final, values[:, -1])
    before = values.copy()
    simulate(2)
    assert np.array_equal(values, before)
    assert not np.array_equal(read_ensemble(path)[1], before)


def grid_file_bytes(values, grid, support, magic=b"SCGRID02"):
    """The documented grid layout, built with ``tobytes``: ``values`` cut
    to length 1 on every grid axis outside ``support``.  With
    ``magic=b"SCGRID01"``, the earlier full-grid layout, which held no
    extents."""
    n_axes = grid.n_axes
    is_complex = np.iscomplexobj(values)
    mask = sum(1 << k for k in support)
    header = magic + struct.pack("<IIII", int(is_complex), n_axes, values.ndim - n_axes, mask)
    header += struct.pack(f"<{values.ndim}Q", *values.shape)
    if magic == b"SCGRID02":
        header += np.asarray(grid.extents, dtype="<f8").tobytes()
        values = values[tuple(slice(None) if k in support else slice(0, 1) for k in range(n_axes))]
    if is_complex:
        values = np.stack([values.real, values.imag], axis=-1)
    return header + np.ascontiguousarray(values, dtype="<f8").tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
def test_write_grid_bytes(tmp_path, dtype):
    rng = np.random.default_rng(1)
    values = rng.standard_normal((4, 5, 3)).astype(dtype)
    if dtype is complex:
        values += 1j * rng.standard_normal((4, 5, 3))
    path = tmp_path / "f.bin"
    write_grid(path, values, PLANE)
    assert path.read_bytes() == grid_file_bytes(values, PLANE, (0, 1))


def test_write_grid_bytes_non_contiguous(tmp_path):
    values = np.random.default_rng(2).standard_normal((6, 5, 4)).transpose(2, 0, 1)[:, ::2]
    grid = GridSpec.from_axes((0.0, 1.0, 4), (0.0, 2.0, 3), (0.0, 1.0, 5))
    path = tmp_path / "f.bin"
    write_grid(path, values, grid)
    assert path.read_bytes() == grid_file_bytes(values, grid, (0, 1, 2))


def test_write_grid_streams_a_broadcast_view(tmp_path):
    # a broadcast view's stride-0 axes are cut without reading its values
    grid = GridSpec.from_axes((0.0, 1.0, 7), (0.0, 2.0, 5), (0.0, 1.0, 6))
    profile = np.random.default_rng(3).standard_normal((1, 5, 1, 3, 3))
    values = np.broadcast_to(profile, grid.shape + (3, 3))
    path = tmp_path / "f.bin"
    digest, nbytes = write_grid(path, values, grid)
    assert path.read_bytes() == grid_file_bytes(values, grid, (1,))
    assert (digest, nbytes) == (sha256_of(path), path.stat().st_size)


def ensemble_file_bytes(times, values, magic=b"SCPATH02"):
    """The documented time-major path-ensemble layout, built with
    ``tobytes``; with ``magic=b"SCPATH01"``, the earlier path-major one."""
    header = magic + struct.pack("<QQI I", *values.shape, 0)
    payload = values.transpose(1, 2, 0) if magic == b"SCPATH02" else values
    return header + times.astype("<f8").tobytes() + payload.astype("<f8").tobytes()


@pytest.mark.parametrize("paths", [1, 4097, 9000])
def test_writer_bytes_and_digest(tmp_path, paths):
    times = np.linspace(0.0, 1.0, 6)
    values = np.random.default_rng(3).standard_normal((paths, 6, 3))
    path = tmp_path / "p.bin"
    writer = write_ensemble(path, times, values)
    data = path.read_bytes()
    assert data == ensemble_file_bytes(times, values)
    assert writer.sha256 == hashlib.sha256(data).hexdigest() == sha256_of(path)
    assert writer.nbytes == len(data)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.bin"]
    # values maps the file read-only
    assert np.array_equal(writer.values, values)
    with pytest.raises(ValueError, match="read-only"):
        writer.values[0, 0, 0] = 1.0


def test_write_grid_returns_digest_and_size(tmp_path):
    path = tmp_path / "f.bin"
    for values in (np.ones((4, 5, 3)), np.exp(1j * np.arange(20.0)).reshape(4, 5)):
        digest, nbytes = write_grid(path, values, PLANE)
        assert digest == sha256_of(path)
        assert nbytes == path.stat().st_size


@pytest.mark.parametrize(
    "rows", [[2], [0, 0], [0, 2], [5], [0, 1, 1]]
)
def test_writer_rejects_rows_out_of_order(tmp_path, rows):
    path = tmp_path / "p.bin"
    with pytest.raises(ValidationError, match="out of order|step 5 is past the last step 4"):
        with EnsembleWriter(path, np.linspace(0.0, 1.0, 5), 20, 3) as writer:
            for k in rows:
                writer.step(k, np.zeros((3, 20)))
    assert writer.values is None
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shape", [(3, 19), (2, 20), (60,)])
def test_writer_rejects_a_block_of_other_rows(tmp_path, shape):
    with pytest.raises(ValidationError, match=r"does not hold the states of shape \(3, 20\)"):
        with EnsembleWriter(tmp_path / "p.bin", np.linspace(0.0, 1.0, 5), 20, 3) as writer:
            writer.step(0, np.zeros(shape))
    assert list(tmp_path.iterdir()) == []


def test_writer_leaves_no_file_on_error_or_missing_rows(tmp_path):
    path = tmp_path / "p.bin"
    with pytest.raises(RuntimeError):
        with EnsembleWriter(path, np.linspace(0.0, 1.0, 5), 20, 3) as writer:
            writer.step(0, np.zeros((3, 20)))
            raise RuntimeError("simulation failed")
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ValidationError, match="steps from 2 of 5 were never finished"):
        with EnsembleWriter(path, np.linspace(0.0, 1.0, 5), 20, 3) as writer:
            writer.step(0, np.zeros((3, 20)))
            writer.step(1, np.zeros((3, 20)))
    assert writer.values is None
    assert list(tmp_path.iterdir()) == []


def test_writer_rejects_empty_axis(tmp_path):
    for times, paths, components in (
        (np.linspace(0.0, 1.0, 5), 0, 3),
        (np.empty(0), 4, 3),
        (np.linspace(0.0, 1.0, 5), 4, 0),
    ):
        with pytest.raises(ValidationError, match="empty axis"):
            EnsembleWriter(tmp_path / "p.bin", times, paths, components)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "shape",
    [(2**62, 5, 0), (0, 5, 3), (4, 0, 3)],
    ids=["huge-paths-no-components", "no-paths", "no-steps"],
)
def test_ensemble_header_with_empty_axis_rejected(tmp_path, shape):
    # a header and its times, and no payload: the payload of an empty shape
    path = tmp_path / "p.bin"
    times = np.linspace(0.0, 1.0, shape[1])
    path.write_bytes(b"SCPATH02" + struct.pack("<QQI I", *shape, 0) + times.tobytes())
    with pytest.raises(ValidationError, match="empty axis"):
        read_ensemble(path)


def test_path_major_ensemble_rejected(tmp_path):
    # a whole, well-formed file in the earlier layout is named as such
    path = tmp_path / "p.bin"
    values = np.random.default_rng(4).standard_normal((7, 5, 3))
    path.write_bytes(ensemble_file_bytes(np.linspace(0.0, 1.0, 5), values, magic=b"SCPATH01"))
    with pytest.raises(ValidationError, match="old path-major layout .SCPATH01."):
        read_ensemble(path)


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unreadable_ensemble_rejected(tmp_path, where):
    # an OSError on opening is a ValidationError that names the path
    path = tmp_path if where == "directory" else tmp_path / "p.bin"
    with pytest.raises(ValidationError, match="cannot read ensemble file") as info:
        read_ensemble(path)
    assert str(path) in str(info.value)


def truncate(path, keep):
    """Keep the first ``keep`` bytes, or drop the last ``-keep``."""
    path.write_bytes(path.read_bytes()[:keep])


# bytes kept of a (4, 5) grid field of rank 1, whose 80-byte header ends
# in extents at 48:80: inside the fixed header, inside the shape, at and
# inside the extents, and short payloads
GRID_CUTS = [12, 30, 48, 64, -8, -1]


def varying_field(dtype):
    """A (4, 5, 3) field on ``PLANE`` that varies along its second axis."""
    return np.ones((4, 5, 3), dtype=dtype) * np.arange(5.0)[:, None]


@pytest.mark.parametrize("keep", GRID_CUTS)
@pytest.mark.parametrize("dtype", [float, complex])
def test_truncated_grid_rejected(tmp_path, keep, dtype):
    path = tmp_path / "f.bin"
    write_grid(path, varying_field(dtype), PLANE)
    truncate(path, keep)
    with pytest.raises(ValidationError, match="truncated"):
        read_grid(path)


@pytest.mark.parametrize("keep", [10, 31, 40, -8, -1])
def test_truncated_ensemble_rejected(tmp_path, keep):
    path = tmp_path / "p.bin"
    write_ensemble(path, np.linspace(0.0, 1.0, 5), np.ones((7, 5, 3)))
    truncate(path, keep)
    with pytest.raises(ValidationError, match="truncated"):
        read_ensemble(path)


def test_header_promising_huge_payload_rejected(tmp_path):
    # the first axis is in the support, so its count sizes the payload
    path = tmp_path / "f.bin"
    write_grid(path, np.arange(4.0)[:, None] * np.ones((4, 5)), PLANE)
    data = bytearray(path.read_bytes())
    data[24:32] = struct.pack("<Q", 2**36)  # first axis count
    path.write_bytes(bytes(data))
    with pytest.raises(ValidationError, match="truncated"):
        read_grid(path)


@pytest.mark.parametrize(
    "offset, field, match",
    [
        (12, struct.pack("<I", 254), "at most 32 axes"),  # axis count
        (16, struct.pack("<I", 40), "at most 32 axes"),  # tensor rank
        (32, struct.pack("<Q", 0), "empty axis"),  # second axis count
    ],
    ids=["axes", "rank", "empty"],
)
def test_header_shape_beyond_an_array_rejected(tmp_path, offset, field, match):
    # numpy cannot build these shapes; reading must not get as far as trying
    path = tmp_path / "f.bin"
    write_grid(path, np.ones((4, 5)), PLANE)
    data = bytearray(path.read_bytes() + bytes(8 * 300))
    data[offset : offset + len(field)] = field
    path.write_bytes(bytes(data))
    with pytest.raises(ValidationError, match=match):
        read_grid(path)


def test_full_grid_layout_rejected(tmp_path):
    # a whole, well-formed file in the earlier layout is named as such
    path = tmp_path / "f.bin"
    values = np.random.default_rng(4).standard_normal((4, 5))
    path.write_bytes(grid_file_bytes(values, PLANE, (), magic=b"SCGRID01"))
    with pytest.raises(ValidationError, match="old full-grid layout .SCGRID01."):
        read_grid(path)


# header fields of a constant field on PLANE, whose counts are at 24:40
# and extents at 40:72: (offset, bytes, message)
BAD_HEADERS = {
    "mask-bit-2": (20, struct.pack("<I", 0b100), "support mask 0x4 sets a bit beyond its 2"),
    "mask-bit-31": (20, struct.pack("<I", 1 << 31), "beyond its 2 grid axes"),
    "nan-extent": (40, struct.pack("<d", np.nan), "axis 0: extent must be finite"),
    "infinite-extent": (64, struct.pack("<d", np.inf), "axis 1: extent must be finite"),
    "reversed-extent": (40, struct.pack("<dd", 1.0, 0.0), "axis 0: extent must satisfy start <"),
    "huge-count": (24, struct.pack("<Q", 2**63), "at most 2\\*\\*40 nodes"),
    "too-many-nodes": (24, struct.pack("<QQ", 2**20, 2**20 + 1), "at most 2\\*\\*40 nodes"),
}


@pytest.mark.parametrize("case", sorted(BAD_HEADERS))
def test_malformed_grid_header_rejected(tmp_path, case):
    # a constant field's payload is one value whatever counts its header declares
    offset, field, match = BAD_HEADERS[case]
    path = tmp_path / "f.bin"
    write_grid(path, np.ones((4, 5)), PLANE)
    data = bytearray(path.read_bytes())
    data[offset : offset + len(field)] = field
    path.write_bytes(bytes(data))
    with pytest.raises(ValidationError, match=match) as info:
        read_grid(path)
    assert str(path) in str(info.value)


def test_shape_numpy_cannot_hold_rejected(tmp_path):
    # 2**40 nodes of 2**21 components each are 2**64 bytes: a header can
    # declare that with a 16 MiB profile, one component vector
    grid = GridSpec.from_axes((0.0, 1.0, 3), (0.0, 1.0, 3))
    path = tmp_path / "f.bin"
    write_grid(path, np.broadcast_to(np.zeros(2**21), grid.shape + (2**21,)), grid)
    data = path.read_bytes()
    path.write_bytes(data[:24] + struct.pack("<QQ", 2**20, 2**20) + data[40:])
    with pytest.raises(ValidationError, match="header declares shape") as info:
        read_grid(path)
    assert str(path) in str(info.value)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(
            ["geometry", "--metric", str(path), "--op", "curvature",
             "--out", str(tmp_path / "c.bin")]
        )
    assert code == 2
    assert "header declares shape" in err.getvalue()


@pytest.mark.parametrize("keep", [30, -8])
def test_cli_exits_2_on_truncated_metric(tmp_path, keep):
    grid = GridSpec.from_axes((0.0, 1.0, 3), (0.5, 2.5, 5), (0.0, 1.0, 5))
    path = tmp_path / "metric.bin"
    write_grid(path, geometry.sphere_metric(grid).values, grid)
    truncate(path, keep)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(
            ["geometry", "--metric", str(path), "--op", "curvature",
             "--out", str(tmp_path / "c.bin")]
        )
    assert code == 2
    assert "truncated" in err.getvalue()


def append(path, extra):
    path.write_bytes(path.read_bytes() + extra)


@pytest.mark.parametrize("extra", [b"\0", b"\0" * 40, b"SCGRID01"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_trailing_bytes_after_grid_rejected(tmp_path, extra, dtype):
    path = tmp_path / "f.bin"
    write_grid(path, np.ones((4, 5), dtype=dtype), PLANE)
    append(path, extra)
    with pytest.raises(ValidationError, match=f"{len(extra)} bytes follow the payload"):
        read_grid(path)


@pytest.mark.parametrize("extra", [b"\0", b"\0" * 40])
def test_trailing_bytes_after_ensemble_rejected(tmp_path, extra):
    path = tmp_path / "p.bin"
    write_ensemble(path, np.linspace(0.0, 1.0, 5), np.ones((7, 5, 3)))
    append(path, extra)
    with pytest.raises(ValidationError, match=f"{len(extra)} bytes follow the payload"):
        read_ensemble(path)


def test_cli_exits_2_on_metric_with_trailing_bytes(tmp_path):
    grid = GridSpec.from_axes((0.0, 1.0, 3), (0.5, 2.5, 5), (0.0, 1.0, 5))
    path = tmp_path / "metric.bin"
    write_grid(path, geometry.sphere_metric(grid).values, grid)
    append(path, b"\0" * 40)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(
            ["geometry", "--metric", str(path), "--op", "curvature",
             "--out", str(tmp_path / "c.bin")]
        )
    assert code == 2
    assert "bytes follow the payload" in err.getvalue()


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unreadable_grid_file_rejected(tmp_path, where):
    path = tmp_path / "metric.bin"
    if where == "directory":
        path.mkdir()
    with pytest.raises(ValidationError, match="cannot read grid"):
        read_grid(path)


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_cli_exits_2_on_unreadable_metric(tmp_path, where):
    path = tmp_path / "metric.bin"
    if where == "directory":
        path = tmp_path
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(
            ["geometry", "--metric", str(path), "--op", "curvature",
             "--out", str(tmp_path / "c.bin")]
        )
    assert code == 2
    assert "cannot read grid file" in err.getvalue()
