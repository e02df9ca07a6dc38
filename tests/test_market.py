import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from semicoop import GridSpec, NumericalError, SingularMetricError, ValidationError
from semicoop import geometry as geo
from semicoop import market
from semicoop.fieldio import EnsembleWriter, read_ensemble, sha256_of
from semicoop.market import FirmState, SDECoefficients, derive_coefficients, simulate


def constant_coefficients(mu, omega):
    """Fixed drift vector and diffusion matrix as batched callables."""
    mu = np.asarray(mu, dtype=float)
    omega = np.asarray(omega, dtype=float)

    def drift(s, x):
        return np.broadcast_to(mu, np.atleast_2d(x).shape).copy()

    def diffusion(s, x):
        return np.broadcast_to(omega, (np.atleast_2d(x).shape[0],) + omega.shape).copy()

    return SDECoefficients(drift=drift, diffusion=diffusion)


def zero_diffusion(s, x):
    return np.zeros((np.atleast_2d(x).shape[0], 3, 3))


def nearest_node_coefficients(coeffs):
    """Reference lookups of a derived instance's tables: per-axis
    nearest node, clamped to the grid, one fancy index per table."""
    grid = coeffs.grid

    def nodes(x):
        idx = []
        for k in range(grid.n_axes):
            a, _ = grid.extents[k]
            j = np.rint((x[:, k] - a) / grid.spacing(k)).astype(int)
            idx.append(np.clip(j, 0, grid.counts[k] - 1))
        return tuple(idx)

    def drift(s, x):
        return coeffs.drift_table[nodes(np.atleast_2d(x))]

    def diffusion(s, x):
        return coeffs.diffusion_table[nodes(np.atleast_2d(x))]

    return SDECoefficients(drift=drift, diffusion=diffusion)


def reference_simulate(coeffs, x0, horizon, steps, paths, seed, increments=None):
    """Path-major Euler-Maruyama, one einsum per step over (n, 3) states,
    on the chunk-keyed streams of ``simulate``."""
    dt = horizon / steps
    times = np.linspace(0.0, horizon, steps + 1)
    out = np.empty((paths, steps + 1, 3))
    for c, lo in enumerate(range(0, paths, 4096)):
        hi = min(lo + 4096, paths)
        if increments is not None:
            dw = np.asarray(increments[lo:hi], dtype=float)
        else:
            ss = np.random.SeedSequence(seed, spawn_key=(0x5DE, c))
            dw = np.random.default_rng(ss).standard_normal((hi - lo, steps, 3))
            dw = dw * math.sqrt(dt)
        x = np.broadcast_to(x0, (hi - lo, 3)).copy()
        out[lo:hi, 0] = x
        for k in range(steps):
            mu = np.asarray(coeffs.drift(times[k], x), dtype=float)
            om = np.asarray(coeffs.diffusion(times[k], x), dtype=float)
            x = x + mu * dt + np.einsum("nab,nb->na", om, dw[:, k])
            out[lo:hi, k + 1] = x
    return out


class RecordingSink(market._ArraySink):
    """The in-memory sink, recording the rows blocks it is given and the
    thread that gives them."""

    def __init__(self, shape):
        super().__init__(shape)
        self.blocks = []
        self.threads = set()

    def rows(self, lo, block):
        self.blocks.append((lo, lo + len(block)))
        self.threads.add(threading.get_ident())
        super().rows(lo, block)


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()  # signed zeros too


class TestFirmState:
    def make(self, **kw):
        base = dict(
            share=np.array([0.4, 0.1, 0.2]),
            strategy=0.2,
            alpha_own=0.8,
            alpha_other=0.5,
            coop_own=0.6,
            coop_other=0.5,
        )
        base.update(kw)
        return FirmState(**base)

    def test_valid_state(self):
        firm = self.make()
        assert np.array_equal(firm.share, [0.4, 0.1, 0.2])

    def test_alpha_range(self):
        with pytest.raises(ValidationError):
            self.make(alpha_own=1.2)

    def test_coop_range(self):
        with pytest.raises(ValidationError):
            self.make(coop_other=0.0)

    def test_strategy_must_fit_committed_region(self):
        # region = 0.8**0.6 * 1.0 ~ 0.875
        self.make(polygon_area=1.0, strategy=0.8)
        with pytest.raises(ValidationError):
            self.make(polygon_area=1.0, strategy=0.9)


def axis0_sphere(grid):
    """Unit round sphere on axes 0 (colatitude) and 1 of a three-axis
    grid, times a flat axis 2."""
    values = np.zeros(grid.shape + (3, 3))
    values[...] = np.eye(3)
    values[..., 1, 1] = np.sin(grid.meshgrid()[0]) ** 2
    return geo.MetricField(values, grid)


class TestDeriveCoefficients:
    def test_flat_metric(self):
        grid = GridSpec.from_axes((0, 1, 5), (0, 1, 5), (0, 1, 5))
        metric = geo.flat_metric(grid)
        coeffs = derive_coefficients(metric, geo.christoffel(metric))
        assert np.abs(coeffs.drift_table).max() == 0.0
        assert np.allclose(coeffs.diffusion_table, np.eye(3))

    def test_constant_diagonal_metric(self):
        # inverse metric diag(1/4,1,1) has Cholesky factor diag(1/2,1,1)
        grid = GridSpec.from_axes((0, 1, 5), (0, 1, 5), (0, 1, 5))
        metric = geo.constant_metric(grid, np.diag([4.0, 1.0, 1.0]))
        coeffs = derive_coefficients(metric, geo.christoffel(metric))
        assert np.allclose(coeffs.diffusion_table[2, 2, 2], np.diag([0.5, 1.0, 1.0]))
        assert np.abs(coeffs.drift_table).max() == 0.0

    def test_sphere_drift_oracle(self):
        grid = GridSpec.from_axes((0.4, np.pi - 0.4, 81), (0.0, 1.0, 9))
        metric = geo.sphere_metric(grid)
        coeffs = derive_coefficients(metric, geo.christoffel(metric))
        theta = grid.meshgrid()[0]
        expected = 0.5 / np.tan(theta)
        err = np.abs(coeffs.drift_table[..., 0] - expected)[2:-2].max()
        assert err < 1e-3

    def test_diffusion_identity_random_nodes(self):
        grid = GridSpec.from_axes((0.5, np.pi - 0.5, 17), (0.0, 1.0, 9), (0.0, 1.0, 5))
        metric = axis0_sphere(grid)
        coeffs = derive_coefficients(metric, geo.christoffel(metric))
        rng = np.random.default_rng(0)
        for _ in range(50):
            node = tuple(rng.integers(0, n) for n in grid.shape)
            omega = coeffs.diffusion_table[node]
            assert np.abs(omega @ omega.T - metric.inverse[node]).max() < 1e-12

    def test_drift_identity_residual(self):
        grid = GridSpec.from_axes((0.5, np.pi - 0.5, 17), (0.0, 1.0, 9), (0.0, 1.0, 5))
        metric = axis0_sphere(grid)
        chris = geo.christoffel(metric)
        coeffs = derive_coefficients(metric, chris)
        contraction = 0.5 * np.einsum("...bc,...abc->...a", metric.inverse, chris.values)
        assert np.abs(coeffs.drift_table + contraction).max() < 1e-12

    def test_indefinite_metric_rejected(self):
        grid = GridSpec.from_axes((0, 1, 4), (0, 1, 4), (0, 1, 4))
        metric = geo.constant_metric(grid, np.diag([-1.0, 1.0, 1.0]))
        with pytest.raises(SingularMetricError):
            derive_coefficients(metric, geo.christoffel(metric))


class TestSimulate:
    def test_frozen_dynamics(self):
        coeffs = constant_coefficients(np.zeros(3), np.zeros((3, 3)))
        x0 = np.array([0.3, 0.6, 0.9])
        ens = simulate(coeffs, x0, horizon=1.0, steps=8, paths=5, seed=0)
        assert np.array_equal(ens.values, np.broadcast_to(x0, ens.values.shape))

    def test_initial_condition_exact(self):
        coeffs = constant_coefficients(np.ones(3), np.eye(3))
        x0 = np.array([0.1, -0.2, 0.5])
        ens = simulate(coeffs, x0, horizon=0.5, steps=4, paths=3, seed=9)
        assert np.array_equal(ens.values[:, 0, :], np.broadcast_to(x0, (3, 3)))

    def test_brownian_variance(self):
        coeffs = constant_coefficients(np.zeros(3), np.eye(3))
        n = 20000
        ens = simulate(coeffs, np.zeros(3), horizon=1.0, steps=8, paths=n, seed=5)
        se = 1.0 * np.sqrt(2.0 / (n - 1))
        assert np.abs(np.array(ens.summary()["final_variance"]) - 1.0).max() < 3.0 * se

    def test_summary_equals_the_strided_final_slice_statistics(self):
        # the summary copies the final slice once; sde_summary.json must
        # keep the numbers of the strided reads it replaced, bit for bit
        coeffs = constant_coefficients(np.full(3, 0.1), np.eye(3))
        ens = simulate(coeffs, np.zeros(3), horizon=1.0, steps=8, paths=9000, seed=3)
        final = ens.values[:, -1, :]
        summary = ens.summary()
        assert summary["final_mean"] == [float(v) for v in final.mean(axis=0)]
        assert summary["final_variance"] == [float(v) for v in final.var(axis=0, ddof=1)]
        assert (summary["paths"], summary["steps"], summary["horizon"]) == (9000, 8, 1.0)

    def test_linear_drift_decay(self):
        def drift(s, x):
            return -np.atleast_2d(x)

        coeffs = SDECoefficients(drift=drift, diffusion=zero_diffusion)
        ens = simulate(coeffs, np.ones(3), horizon=1.0, steps=2000, paths=1, seed=0)
        assert np.abs(ens.values[0, -1] - np.exp(-1.0)).max() < 1e-3

    def test_seed_determinism_across_threads(self):
        coeffs = constant_coefficients(np.zeros(3), np.eye(3))
        a = simulate(coeffs, np.zeros(3), 1.0, 8, 9000, seed=11, threads=1)
        b = simulate(coeffs, np.zeros(3), 1.0, 8, 9000, seed=11, threads=4)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        coeffs = constant_coefficients(np.zeros(3), np.eye(3))
        a = simulate(coeffs, np.zeros(3), 1.0, 8, 16, seed=1)
        b = simulate(coeffs, np.zeros(3), 1.0, 8, 16, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_strong_order_half(self):
        rng = np.random.default_rng(42)
        paths, fine = 2000, 512
        dw = rng.standard_normal((paths, fine, 3)) * np.sqrt(1.0 / fine)

        def drift(s, x):
            return -0.5 * np.atleast_2d(x)

        def diffusion(s, x):
            x = np.atleast_2d(x)
            out = np.zeros((x.shape[0], 3, 3))
            for i in range(3):
                out[:, i, i] = 0.4 * x[:, i]
            return out

        coeffs = SDECoefficients(drift=drift, diffusion=diffusion)

        def coarsen(factor):
            return dw.reshape(paths, -1, factor, 3).sum(axis=2)

        ref = simulate(coeffs, np.ones(3), 1.0, fine, paths, 0, increments=dw)
        errors = []
        for factor in (64, 32, 16):
            ens = simulate(
                coeffs, np.ones(3), 1.0, fine // factor, paths, 0,
                increments=coarsen(factor),
            )
            diff = ens.values[:, -1, :] - ref.values[:, -1, :]
            errors.append(np.sqrt(np.mean(np.sum(diff**2, axis=1))))
        for lo, hi in zip(errors[1:], errors[:-1]):
            assert 1.2 < hi / lo < 1.7

    def test_step_floor(self):
        coeffs = constant_coefficients(np.zeros(3), np.eye(3))
        with pytest.raises(ValidationError):
            simulate(coeffs, np.zeros(3), 1.0, 1, 4, seed=0)

    def test_coefficient_failure_names_step(self):
        calls = {"n": 0}

        def drift(s, x):
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("boom")
            return np.zeros_like(np.atleast_2d(x))

        coeffs = SDECoefficients(drift=drift, diffusion=zero_diffusion)
        with pytest.raises(NumericalError, match="step 3"):
            simulate(coeffs, np.zeros(3), 1.0, 8, 2, seed=0)


def sheared_sphere_metric(grid):
    """Sphere metric plus constant off-diagonal terms, so every entry of
    the diffusion factor is nonzero."""
    values = geo.sphere_metric(grid).values.copy()
    shear = np.array([[0.0, 0.2, 0.1], [0.2, 0.0, 0.15], [0.1, 0.15, 0.0]])
    return geo.MetricField(values + shear, grid)


class TestComponentMajorKernel:
    """``simulate`` against the path-major reference loop: equal bits."""

    grid = GridSpec.from_axes((0.0, 1.0, 5), (0.5, 2.5, 9), (0.0, 1.0, 9))
    x0 = np.array([0.9, 2.3, 0.1])
    paths = 9000  # three chunks, the last one partial

    @pytest.fixture(scope="class", params=["sphere", "sheared"])
    def coeffs(self, request):
        if request.param == "sphere":
            metric = geo.sphere_metric(self.grid)
        else:
            metric = sheared_sphere_metric(self.grid)
        return derive_coefficients(metric, geo.christoffel(metric))

    def reference(self, coeffs, **kw):
        return reference_simulate(
            nearest_node_coefficients(coeffs), self.x0, 1.0, 16, self.paths, 5, **kw
        )

    def test_sheared_diffusion_is_full(self):
        metric = sheared_sphere_metric(self.grid)
        omega = derive_coefficients(metric, geo.christoffel(metric)).diffusion_table
        assert np.all(np.abs(np.tril(omega[2, 4, 4])[np.tril_indices(3)]) > 1e-3)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_table_lookup_matches_reference(self, coeffs, threads):
        ens = simulate(coeffs, self.x0, 1.0, 16, self.paths, 5, threads=threads)
        assert_same_bits(ens.values, self.reference(coeffs))
        # the clamp runs: many states lie outside the grid
        low = np.array([e[0] for e in self.grid.extents])
        high = np.array([e[1] for e in self.grid.extents])
        outside = np.any((ens.values < low) | (ens.values > high), axis=-1)
        assert outside.mean() > 0.2

    def test_increments_match_reference(self, coeffs):
        dw = np.random.default_rng(3).standard_normal((self.paths, 16, 3)) * 0.25
        ens = simulate(coeffs, self.x0, 1.0, 16, self.paths, 0, increments=dw)
        assert_same_bits(ens.values, self.reference(coeffs, increments=dw))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_callables_match_reference(self, threads):
        def drift(s, x):
            return -0.5 * x + s

        def diffusion(s, x):
            out = np.empty((x.shape[0], 3, 3))
            for a in range(3):
                for b in range(3):
                    out[:, a, b] = np.sin(x[:, a] + 0.3 * b) * (0.2 + 0.1 * a * b)
            return out

        coeffs = SDECoefficients(drift=drift, diffusion=diffusion)
        ens = simulate(coeffs, self.x0, 1.0, 16, self.paths, 9, threads=threads)
        ref = reference_simulate(coeffs, self.x0, 1.0, 16, self.paths, 9)
        assert_same_bits(ens.values, ref)

    def test_broadcast_callables_match_reference(self):
        coeffs = SDECoefficients(
            drift=lambda s, x: np.array([0.1, -0.2, 0.3]),
            diffusion=lambda s, x: np.array([[[0.5, 0.1, 0.0], [0.2, 0.4, 0.1], [0.0, 0.3, 0.6]]]),
        )
        ens = simulate(coeffs, self.x0, 1.0, 8, 50, 2)
        assert_same_bits(ens.values, reference_simulate(coeffs, self.x0, 1.0, 8, 50, 2))

    def test_negative_zero_start(self):
        x0 = np.array([-0.0, 0.5, -0.0])
        coeffs = constant_coefficients(np.full(3, -0.0), np.zeros((3, 3)))
        dw = -np.ones((3, 4, 3))
        ens = simulate(coeffs, x0, 1.0, 4, 3, 0, increments=dw)
        ref = reference_simulate(coeffs, x0, 1.0, 4, 3, 0, increments=dw)
        assert_same_bits(ens.values, ref)
        assert np.signbit(ens.values[:, 0, 0]).all()
        assert not np.signbit(ens.values[:, 1:, 0]).any()

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_out_filled_and_rows_reported_in_order(self, coeffs, threads):
        # the sink gets each rows block on the calling thread, in path
        # order, final when it arrives
        ref = self.reference(coeffs)
        sink = RecordingSink((self.paths, 17, 3))
        ens = simulate(coeffs, self.x0, 1.0, 16, self.paths, 5, threads=threads, sink=sink)
        assert sink.blocks == [(0, 4096), (4096, 8192), (8192, 9000)]
        assert sink.threads == {threading.get_ident()}
        assert ens.values is sink.values and ens.final is sink.final
        assert_same_bits(sink.values, ref)
        assert_same_bits(ens.final, np.ascontiguousarray(ref[:, -1]))

    def test_buffer_reuse_across_threads(self, coeffs):
        # many more chunks than workers, so buffer sets pass between
        # threads, which are made to switch often
        paths = 12 * 4096 + 7
        serial = simulate(coeffs, self.x0, 1.0, 6, paths, 8, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = simulate(coeffs, self.x0, 1.0, 6, paths, 8, threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert_same_bits(pooled.values, serial.values)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_at_most_threads_plus_one_buffer_sets(self, coeffs, threads, monkeypatch):
        created = []

        class Counted(market._ChunkBuffers):
            def __init__(self, *args):
                super().__init__(*args)
                created.append(self)

        monkeypatch.setattr(market, "_ChunkBuffers", Counted)
        paths = 12 * 4096 + 7  # 13 chunks
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ens = simulate(coeffs, self.x0, 1.0, 6, paths, 8, threads=threads)
        finally:
            sys.setswitchinterval(interval)
        assert 1 <= len(created) <= threads + 1
        assert ens.values.shape == (paths, 7, 3)

    def test_out_of_wrong_shape_rejected(self, coeffs, tmp_path):
        # a writer whose rows do not match the simulation's is rejected,
        # and leaves no file
        times = np.linspace(0.0, 1.0, 17)
        for paths, points, match in [
            (self.paths, 16, "does not hold rows"),
            (self.paths - 1, 17, "out of order"),
            (self.paths + 1, 17, "never finished"),
        ]:
            with pytest.raises(ValidationError, match=match):
                with EnsembleWriter(tmp_path / "p.bin", times[:points], paths, 3) as writer:
                    simulate(coeffs, self.x0, 1.0, 16, self.paths, 5, sink=writer)
            assert list(tmp_path.iterdir()) == []

    def test_allocations_do_not_grow_with_paths(self, coeffs):
        peaks = []
        for paths in (9000, 40000):
            sink = RecordingSink((paths, 17, 3))
            tracemalloc.start()
            try:
                simulate(coeffs, self.x0, 1.0, 16, paths, 5, sink=sink)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_written_ensemble_equals_the_reference(self, coeffs, tmp_path, threads):
        path = tmp_path / "p.bin"
        times = np.linspace(0.0, 1.0, 17)
        with EnsembleWriter(path, times, self.paths, 3, seed=5) as writer:
            ens = simulate(coeffs, self.x0, 1.0, 16, self.paths, 5, threads=threads, sink=writer)
        ref = self.reference(coeffs)
        assert_same_bits(ens.values, ref)
        assert_same_bits(read_ensemble(path)[1], ref)
        assert writer.sha256 == sha256_of(path)
        assert ens.summary() == simulate(coeffs, self.x0, 1.0, 16, self.paths, 5).summary()
        # the map of the file is read-only
        with pytest.raises(ValueError, match="read-only"):
            ens.values[0, 0, 0] = 1.0
        assert not ens.values.flags.writeable

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failure_mid_run_stops_submitting_and_leaves_no_file(self, tmp_path, threads):
        # a NaN increment in chunk 5 makes its drift non-finite at step 1
        paths, steps, failing = 12 * 4096 + 7, 4, 5
        dw = np.full((paths, steps, 3), 0.01)
        dw[failing * 4096 + 7, 0, 0] = np.nan
        started = []
        lock = threading.Lock()

        def drift(s, x):
            if s == 0.0:
                with lock:
                    started.append(s)
            return -0.5 * x

        coeffs = SDECoefficients(drift=drift, diffusion=lambda s, x: np.eye(3))
        path = tmp_path / "p.bin"
        with pytest.raises(NumericalError, match="non-finite coefficients at step 1"):
            with EnsembleWriter(path, np.linspace(0.0, 1.0, steps + 1), paths, 3) as writer:
                simulate(coeffs, self.x0, 1.0, steps, paths, 0, increments=dw,
                         threads=threads, sink=writer)
        assert list(tmp_path.iterdir()) == []
        assert writer._next == failing * 4096  # the chunks before it were written
        # chunks 0-5 and at most the threads chunks after it
        assert failing + 1 <= len(started) <= failing + 1 + threads

    def test_non_finite_table_names_step(self):
        metric = geo.sphere_metric(self.grid)
        coeffs = derive_coefficients(metric, geo.christoffel(metric))
        coeffs.drift_table = coeffs.drift_table.copy()
        coeffs.drift_table[4, 7, 1, 2] = np.nan
        coeffs.drift_table[4, 8, 0, 1] = np.inf
        # the table is checked once, before step 0, and the first
        # non-finite node in C order is named
        with pytest.raises(NumericalError, match=r"non-finite coefficients at node \(4, 7, 1\)"):
            simulate(coeffs, self.x0, 1.0, 4, 10, 0)
        # a node along the constant axes is named with index 0 there
        coeffs = derive_coefficients(metric, geo.christoffel(metric))
        table = coeffs.diffusion_table[:1, :, :1].copy()
        table[0, 6, 0, 2, 1] = np.nan
        coeffs.diffusion_table = np.broadcast_to(table, coeffs.diffusion_table.shape)
        with pytest.raises(NumericalError, match=r"non-finite coefficients at node \(0, 6, 0\)"):
            simulate(coeffs, self.x0, 1.0, 4, 10, 0)

    def test_non_finite_callable_names_step(self):
        def drift(s, x):
            return np.full(x.shape, np.inf if s > 0.3 else 0.0)

        coeffs = SDECoefficients(drift=drift, diffusion=zero_diffusion)
        with pytest.raises(NumericalError, match="non-finite coefficients at step 3"):
            simulate(coeffs, self.x0, 1.0, 8, 10, 0)


def three_axis_gather(coeffs):
    """Oracle: the lookup ``simulate`` made before tables were cut to
    their support, one (12, grid nodes) table and a nearest-node index
    over all three grid axes, served as callables."""
    grid = coeffs.grid
    nodes = math.prod(grid.counts)
    table = np.empty((4, 3, nodes))
    table[0] = np.reshape(coeffs.drift_table, (nodes, 3)).T
    table[1:] = np.reshape(coeffs.diffusion_table, (nodes, 3, 3)).transpose(2, 1, 0)
    table = table.reshape(-1, nodes)
    low = np.array([e[0] for e in grid.extents])[:, None]
    spacing = np.array(grid.spacings)[:, None]
    top = np.array(grid.counts)[:, None] - 1
    strides = np.cumprod((1,) + grid.counts[:0:-1])[::-1, None]

    def gather(x):
        t = x.T - low
        t /= spacing
        j = np.rint(t, out=t).astype(np.intp)
        np.clip(j, 0, top, out=j)
        j *= strides
        return np.take(table, j.sum(axis=0), axis=1)

    def drift(s, x):
        return gather(x)[:3].T

    def diffusion(s, x):
        return gather(x)[3:].reshape(3, 3, -1).transpose(2, 1, 0)

    return SDECoefficients(drift=drift, diffusion=diffusion)


def support_metric(axes, grid):
    """Positive-definite 3x3 field with an off-diagonal entry at every
    node, varying along the grid axes ``axes`` and exactly constant
    along the others."""
    x = grid.meshgrid()
    rng = np.random.default_rng(7)
    values = np.zeros(grid.shape + (3, 3))
    for i in range(3):
        for j in range(i, 3):
            entry = np.full(grid.shape, rng.uniform(0.05, 0.2))
            for k in axes:
                entry = entry * np.sin(rng.uniform(1.0, 3.0) * x[k] + rng.uniform(0.0, 6.0))
            values[..., i, j] = values[..., j, i] = entry + (1.0 if i == j else 0.0)
    return geo.MetricField(values, grid)


class TestSupportLookup:
    """Tables cut to their support, against the full-grid tables and the
    three-axis gather."""

    grid = GridSpec.from_axes((0.0, 1.0, 5), (0.5, 2.5, 9), (0.0, 1.0, 9))
    x0 = np.array([0.9, 2.3, 0.1])

    def coeffs(self, axes):
        metric = support_metric(axes, self.grid)
        return metric, derive_coefficients(metric, geo.christoffel(metric))

    @pytest.mark.parametrize("axes", [(1,), (1, 2), (0, 1, 2)], ids=str)
    def test_tables_match_full_grid(self, axes):
        metric, coeffs = self.coeffs(axes)
        hinv = np.linalg.inv(np.array(metric.values))
        gamma = np.array(geo.christoffel(metric).values)
        mu = -0.5 * np.einsum("...bc,...abc->...a", hinv, gamma)
        assert np.abs(coeffs.drift_table - mu).max() <= 1e-15 * np.abs(mu).max()
        assert np.array_equal(coeffs.diffusion_table, np.linalg.cholesky(hinv))
        for table in (coeffs.drift_table, coeffs.diffusion_table):
            assert geo._support(table, 3) == axes

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("axes", [(1,), (1, 2), (0, 1, 2)], ids=str)
    def test_lookup_matches_three_axis_gather(self, axes, threads):
        _, coeffs = self.coeffs(axes)
        ens = simulate(coeffs, self.x0, 1.0, 16, 9000, 5, threads=threads)
        ref = simulate(three_axis_gather(coeffs), self.x0, 1.0, 16, 9000, 5, threads=threads)
        assert_same_bits(ens.values, ref.values)
        # states outside the grid are clamped to its edge nodes
        low = np.array([e[0] for e in self.grid.extents])
        high = np.array([e[1] for e in self.grid.extents])
        assert np.any((ens.values < low) | (ens.values > high), axis=-1).mean() > 0.2

    def test_full_copies_of_profile_tables_give_the_same_paths(self):
        _, coeffs = self.coeffs((1,))
        full = SDECoefficients(
            grid=self.grid,
            drift_table=np.array(coeffs.drift_table),
            diffusion_table=np.array(coeffs.diffusion_table),
        )
        ens = simulate(coeffs, self.x0, 1.0, 8, 5000, 2)
        assert_same_bits(ens.values, simulate(full, self.x0, 1.0, 8, 5000, 2).values)
