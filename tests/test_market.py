import contextlib
import math
import sys
import threading
import time
import tracemalloc
import warnings
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicoop import GridSpec, NumericalError, SingularMetricError, ValidationError
from semicoop import geometry as geo
from semicoop import fieldio, market
from semicoop.fieldio import EnsembleWriter, read_ensemble, sha256_of
from semicoop.market import SDECoefficients, derive_coefficients, simulate


def constant_coefficients(mu, omega):
    """Fixed drift vector and diffusion matrix as tables broadcast over a
    small three-axis grid."""
    grid = GridSpec.from_axes((0.0, 1.0, 3), (0.0, 1.0, 3), (0.0, 1.0, 3))
    return SDECoefficients(
        grid=grid,
        drift_table=np.broadcast_to(np.asarray(mu, dtype=float), grid.shape + (3,)),
        diffusion_table=np.broadcast_to(np.asarray(omega, dtype=float), grid.shape + (3, 3)),
    )


def axis0_coefficients(extent, drift, diffusion):
    """Tables that vary along grid axis 0 alone, whose ``(start, stop,
    count)`` is ``extent`` (axes 1 and 2 have three nodes each):
    ``mu^0 = drift(x0)`` and ``omega^0_0 = diffusion(x0)`` at a node of
    axis-0 coordinate ``x0``, every other entry zero."""
    grid = GridSpec.from_axes(extent, (0.0, 1.0, 3), (0.0, 1.0, 3))
    x0 = grid.coordinates(0)[:, None, None]
    drift_table = np.zeros((grid.counts[0], 1, 1, 3))
    drift_table[..., 0] = drift(x0)
    diffusion_table = np.zeros((grid.counts[0], 1, 1, 3, 3))
    diffusion_table[..., 0, 0] = diffusion(x0)
    return SDECoefficients(
        grid=grid,
        drift_table=np.broadcast_to(drift_table, grid.shape + (3,)),
        diffusion_table=np.broadcast_to(diffusion_table, grid.shape + (3, 3)),
    )


# drift and diffusion as functions of a time and an (n, 3) state block,
# the form the path-major reference loop reads
Callables = namedtuple("Callables", "drift diffusion")


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

    return Callables(drift, diffusion)


def reference_simulate(coeffs, x0, horizon, steps, paths, seed, increments=None):
    """Path-major Euler-Maruyama, one einsum per step over (n, 3) states,
    on the chunk-keyed streams of ``simulate``: each chunk's increments
    are one component-major ``(steps, 3, n)`` draw."""
    dt = horizon / steps
    times = np.linspace(0.0, horizon, steps + 1)
    out = np.empty((paths, steps + 1, 3))
    for c, lo in enumerate(range(0, paths, 4096)):
        hi = min(lo + 4096, paths)
        if increments is not None:
            dw = np.asarray(increments[lo:hi], dtype=float)
        else:
            ss = np.random.SeedSequence(seed, spawn_key=(0x5DE, c))
            dw = np.random.default_rng(ss).standard_normal((steps, 3, hi - lo))
            # contiguous, so that einsum sums each row in the same order
            dw = np.ascontiguousarray((dw * math.sqrt(dt)).transpose(2, 0, 1))
        x = np.broadcast_to(x0, (hi - lo, 3)).copy()
        out[lo:hi, 0] = x
        for k in range(steps):
            mu = np.asarray(coeffs.drift(times[k], x), dtype=float)
            om = np.asarray(coeffs.diffusion(times[k], x), dtype=float)
            x = x + mu * dt + np.einsum("nab,nb->na", om, dw[:, k])
            out[lo:hi, k + 1] = x
    return out


class RecordingSink(fieldio._ArraySink):
    """The in-memory sink, recording the steps of the state rows it is
    given; a call that enters while another is still inside it fails."""

    def __init__(self, shape):
        super().__init__(shape)
        self.steps = []
        self._inside = threading.Lock()

    def step(self, k, row):
        if not self._inside.acquire(blocking=False):
            raise AssertionError(f"step {k} entered the sink while another call was inside")
        try:
            self.steps.append(k)
            time.sleep(1e-3)  # a call left waiting here would overlap the next
            super().step(k, row)
        finally:
            self._inside.release()


class NullSink:
    """A sink that keeps nothing, so that a run's own memory can be
    measured."""

    values = None

    def step(self, k, row):
        pass


@contextlib.contextmanager
def frequent_switches():
    """Make the interpreter switch threads as often as it can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def bounded(fn, *args, seconds=60, **kwargs):
    """Run ``fn`` on a daemon thread and return its result or raise its
    exception; fail if it has not returned within ``seconds``, so that a
    scheduler that deadlocks fails a test instead of hanging the run."""
    result = {}

    def target():
        try:
            result["value"] = fn(*args, **kwargs)
        except BaseException as exc:
            result["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{fn.__name__} did not return within {seconds} s"
    if "error" in result:
        raise result["error"]
    return result["value"]


class LeftTheDomain(Exception):
    pass


# the increment of every step and component of ``raising_at``'s paths
SMALL_INCREMENT = 0.01


def raising_at(monkeypatch, x0, paths, steps, at, slow=None):
    """Small explicit increments, except that a large increment at step
    ``k`` of the first path of chunk ``c``, for each ``(c, k)`` in ``at``,
    makes the coefficient lookup of chunk ``c`` raise a
    :class:`LeftTheDomain` naming the chunk at step ``k + 1``, after a
    pause when the chunk is ``slow``.

    The lookup is the ``fill`` of :func:`market._coefficient_block`,
    wrapped through ``monkeypatch``, so it fails only on tables with a
    varying row.  Returns ``(dw, raised, evaluated)``: the increments,
    each exception raised by chunk (``raised[c]``) and the step of every
    lookup, in the order they were made.  The lookup sees only states,
    so the step is read from them: on the sphere tables component 0 has
    zero drift and unit diffusion, so a chunk's last path, which never
    takes a large increment, sits at ``x0[0] + k * SMALL_INCREMENT`` at
    step ``k``."""
    dw = np.full((paths, steps, 3), SMALL_INCREMENT)
    for c, k in at:
        dw[c * 4096, k, 0] = 1e6 * (c + 1)
    raised, evaluated = {}, []
    lock = threading.Lock()
    classify = market._coefficient_block

    def failing(coeffs):
        fill, plan = classify(coeffs)

        def lookup(x, block):
            with lock:
                evaluated.append(round((x[0, -1] - x0[0]) / SMALL_INCREMENT))
            big = x[0] > 1e5
            if big.any():
                c = round(x[0, big][0] / 1e6) - 1
                if c == slow:
                    time.sleep(0.05)
                raised[c] = LeftTheDomain(f"chunk {c}")
                raise raised[c]
            fill(x, block)

        return lookup, plan

    monkeypatch.setattr(market, "_coefficient_block", failing)
    return dw, raised, evaluated


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()  # signed zeros too


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
        coeffs = derive_coefficients(metric)
        assert np.abs(coeffs.drift_table).max() == 0.0
        assert np.allclose(coeffs.diffusion_table, np.eye(3))

    def test_constant_diagonal_metric(self):
        # inverse metric diag(1/4,1,1) has Cholesky factor diag(1/2,1,1)
        grid = GridSpec.from_axes((0, 1, 5), (0, 1, 5), (0, 1, 5))
        metric = geo.constant_metric(grid, np.diag([4.0, 1.0, 1.0]))
        coeffs = derive_coefficients(metric)
        assert np.allclose(coeffs.diffusion_table[2, 2, 2], np.diag([0.5, 1.0, 1.0]))
        assert np.abs(coeffs.drift_table).max() == 0.0

    def test_sphere_drift_oracle(self):
        grid = GridSpec.from_axes((0.4, np.pi - 0.4, 81), (0.0, 1.0, 9))
        metric = geo.sphere_metric(grid)
        coeffs = derive_coefficients(metric)
        theta = grid.meshgrid()[0]
        expected = 0.5 / np.tan(theta)
        err = np.abs(coeffs.drift_table[..., 0] - expected)[2:-2].max()
        assert err < 1e-3

    def test_diffusion_identity_random_nodes(self):
        grid = GridSpec.from_axes((0.5, np.pi - 0.5, 17), (0.0, 1.0, 9), (0.0, 1.0, 5))
        metric = axis0_sphere(grid)
        coeffs = derive_coefficients(metric)
        rng = np.random.default_rng(0)
        for _ in range(50):
            node = tuple(rng.integers(0, n) for n in grid.shape)
            omega = coeffs.diffusion_table[node]
            assert np.abs(omega @ omega.T - metric.inverse[node]).max() < 1e-12

    def test_drift_identity_residual(self):
        grid = GridSpec.from_axes((0.5, np.pi - 0.5, 17), (0.0, 1.0, 9), (0.0, 1.0, 5))
        metric = axis0_sphere(grid)
        chris = geo.christoffel(metric)
        coeffs = derive_coefficients(metric)
        contraction = 0.5 * np.einsum("...bc,...abc->...a", metric.inverse, chris)
        assert np.abs(coeffs.drift_table + contraction).max() < 1e-12

    def test_indefinite_metric_rejected(self):
        grid = GridSpec.from_axes((0, 1, 4), (0, 1, 4), (0, 1, 4))
        metric = geo.constant_metric(grid, np.diag([-1.0, 1.0, 1.0]))
        with pytest.raises(SingularMetricError):
            derive_coefficients(metric)


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
        # the final slice as strided reads of a path-major array saw it
        final = np.ascontiguousarray(ens.values)[:, -1, :]
        summary = ens.summary()
        assert summary["final_mean"] == [float(v) for v in final.mean(axis=0)]
        assert summary["final_variance"] == [float(v) for v in final.var(axis=0, ddof=1)]
        assert (summary["paths"], summary["steps"], summary["horizon"]) == (9000, 8, 1.0)

    def test_linear_drift_decay(self):
        # dx = -x ds, from a table of 20 001 nodes over [0, 2]
        coeffs = axis0_coefficients((0.0, 2.0, 20001), lambda x: -x, lambda x: 0.0 * x)
        ens = simulate(coeffs, np.ones(3), horizon=1.0, steps=2000, paths=1, seed=0)
        assert abs(ens.values[0, -1, 0] - np.exp(-1.0)) < 1e-3

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
        # Euler-Maruyama converges with strong order 1/2 (Kloeden & Platen
        # 1992) on dx = -x/2 ds + 0.4 x dW, from a table of 40 001 nodes
        # over [-2, 10] that holds every path
        rng = np.random.default_rng(42)
        paths, fine = 2000, 512
        dw = rng.standard_normal((paths, fine, 3)) * np.sqrt(1.0 / fine)
        coeffs = axis0_coefficients((-2.0, 10.0, 40001), lambda x: -0.5 * x, lambda x: 0.4 * x)

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

    @pytest.mark.parametrize("increments", [False, True])
    def test_negative_seed_is_a_validation_error(self, increments):
        # numpy's SeedSequence raises a bare ValueError on it
        coeffs = constant_coefficients(np.zeros(3), np.eye(3))
        dw = np.zeros((4, 8, 3)) if increments else None
        with pytest.raises(ValidationError, match="seed -1 is negative"):
            simulate(coeffs, np.zeros(3), 1.0, 8, 4, seed=-1, increments=dw)


class RowsAt:
    """A sink that keeps copies of the state rows at the steps ``keep``
    only: an ensemble of every row would not fit a test's memory."""

    values = None

    def __init__(self, keep):
        self.keep, self.rows = set(keep), {}

    def step(self, k, row):
        if k in self.keep:
            self.rows[k] = row.copy()


def test_sphere_brownian_motion_laws():
    """On the unit sphere the share SDE is Brownian motion on S^2, whose
    generator is half the Laplacian, with eigenvalues -l(l+1)/2 on the
    degree-l harmonics.  So E[cos theta_t], E[sin theta_t cos phi_t] and
    E[P2(cos theta_t)] decay from their start as exp(-t), exp(-t) and
    exp(-3t).  Component 1 is theta and component 2 is phi, on a grid
    that covers the chart, so that no clamp to the grid biases the law."""
    grid = GridSpec.from_axes((0.0, 1.0, 3), (0.02, np.pi - 0.02, 257), (-np.pi, np.pi, 5))
    metric = geo.sphere_metric(grid)
    coeffs = derive_coefficients(metric)
    theta0, phi0 = 1.0, 0.5
    times = {64: 0.25, 128: 0.5, 256: 1.0}
    sink = RowsAt(times)
    simulate(coeffs, [0.0, theta0, phi0], 1.0, 256, 20_000, 1, sink=sink)

    def legendre2(c):
        return 1.5 * c**2 - 0.5

    for k, t in times.items():
        _, theta, phi = sink.rows[k]
        laws = {
            "cos theta": (np.cos(theta), math.cos(theta0) * math.exp(-t)),
            "sin theta cos phi": (
                np.sin(theta) * np.cos(phi),
                math.sin(theta0) * math.cos(phi0) * math.exp(-t),
            ),
            "P2(cos theta)": (
                legendre2(np.cos(theta)),
                legendre2(math.cos(theta0)) * math.exp(-3 * t),
            ),
        }
        for name, (observed, exact) in laws.items():
            error = observed.std(ddof=1) / math.sqrt(observed.size)
            assert abs(observed.mean() - exact) <= 4 * error, (name, t, observed.mean(), exact)


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
        return derive_coefficients(metric)

    def reference(self, coeffs, **kw):
        return reference_simulate(
            nearest_node_coefficients(coeffs), self.x0, 1.0, 16, self.paths, 5, **kw
        )

    def sphere(self):
        metric = geo.sphere_metric(self.grid)
        return derive_coefficients(metric)

    def test_sheared_diffusion_is_full(self):
        metric = sheared_sphere_metric(self.grid)
        omega = derive_coefficients(metric).diffusion_table
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

    def test_negative_zero_start(self):
        x0 = np.array([-0.0, 0.5, -0.0])
        coeffs = constant_coefficients(np.full(3, -0.0), np.zeros((3, 3)))
        dw = -np.ones((3, 4, 3))
        ens = simulate(coeffs, x0, 1.0, 4, 3, 0, increments=dw)
        ref = reference_simulate(nearest_node_coefficients(coeffs), x0, 1.0, 4, 3, 0, increments=dw)
        assert_same_bits(ens.values, ref)
        assert np.signbit(ens.values[:, 0, 0]).all()
        assert not np.signbit(ens.values[:, 1:, 0]).any()

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_out_filled_and_rows_reported_in_order(self, coeffs, threads):
        # the sink gets each state row one call at a time, in step order,
        # whichever thread took its task; the run forms final itself
        ref = self.reference(coeffs)
        sink = RecordingSink((self.paths, 17, 3))
        with frequent_switches():
            ens = simulate(coeffs, self.x0, 1.0, 16, self.paths, 5, threads=threads, sink=sink)
        assert sink.steps == list(range(17))
        assert ens.values is sink.values and ens.final.flags.c_contiguous
        assert_same_bits(sink.values, ref)
        assert_same_bits(ens.final, np.ascontiguousarray(ref[:, -1]))

    def test_buffer_reuse_across_threads(self, coeffs):
        # many more chunks than workers, so each scratch steps many
        # chunks, and the threads are made to switch often
        paths = 12 * 4096 + 7
        serial = simulate(coeffs, self.x0, 1.0, 6, paths, 8, threads=1)
        with frequent_switches():
            pooled = bounded(simulate, coeffs, self.x0, 1.0, 6, paths, 8, threads=4)
        assert_same_bits(pooled.values, serial.values)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_at_most_threads_buffer_sets(self, coeffs, threads, monkeypatch):
        created = []

        class Counted(market._StepScratch):
            def __init__(self, *args):
                super().__init__(*args)
                created.append(self)

        monkeypatch.setattr(market, "_StepScratch", Counted)
        for chunks in (13, 2, 1):
            created.clear()
            paths = (chunks - 1) * 4096 + 7
            with frequent_switches():
                ens = simulate(coeffs, self.x0, 1.0, 6, paths, 8, threads=threads)
            assert 1 <= len(created) <= min(threads, chunks)
            assert ens.values.shape == (paths, 7, 3)

    @pytest.mark.parametrize("threads", [2, 4])
    def test_no_thread_outlives_the_call(self, coeffs, threads, monkeypatch):
        class FailingSink(RecordingSink):
            def step(self, k, row):
                if k == 2:
                    raise OSError("disk full")
                super().step(k, row)

        before = set(threading.enumerate())
        paths = 12 * 4096 + 7
        with frequent_switches():
            simulate(coeffs, self.x0, 1.0, 6, paths, 8, threads=threads)
            assert set(threading.enumerate()) == before
            sink = FailingSink((paths, 7, 3))
            with pytest.raises(OSError, match="disk full"):
                bounded(simulate, coeffs, self.x0, 1.0, 6, paths, 8, threads=threads, sink=sink)
            assert set(threading.enumerate()) == before
            assert sink.steps == [0, 1]
            # a failing chunk, and fewer chunks than threads
            with monkeypatch.context() as patch:
                dw, _, _ = raising_at(patch, self.x0, paths, 6, [(5, 0)])
                with pytest.raises(LeftTheDomain, match="chunk 5"):
                    simulate(coeffs, self.x0, 1.0, 6, paths, 0, increments=dw, threads=threads)
            assert set(threading.enumerate()) == before
            simulate(coeffs, self.x0, 1.0, 6, 4097, 8, threads=threads)
            assert set(threading.enumerate()) == before

    def test_out_of_wrong_shape_rejected(self, coeffs, tmp_path):
        # a writer whose rows do not match the simulation's is rejected,
        # and leaves no file
        times, path = np.linspace(0.0, 1.0, 18), tmp_path / "p.bin"
        for paths, points, match in [
            (self.paths, 16, "step 16 is past the last step 15"),
            (self.paths, 18, "never finished"),
            (self.paths - 1, 17, "does not hold the states"),
            (self.paths + 1, 17, "does not hold the states"),
        ]:
            with pytest.raises(ValidationError, match=match):
                with EnsembleWriter(path, times[:points], paths, 3, digest=True) as writer:
                    simulate(coeffs, self.x0, 1.0, 16, self.paths, 5, sink=writer)
            assert list(tmp_path.iterdir()) == []

    def test_allocations_do_not_grow_with_steps(self, coeffs):
        # besides its sink a run holds two state rows, 48 B a path, and
        # per thread one scratch of (3 increments + the gathered rows + 2)
        # rows of 4096 paths and the temporaries of a chunk's step
        plan = market._coefficient_block(coeffs)[1]
        scratch = (5 + sum(isinstance(r, int) for r in plan)) * 4096 * 8
        for threads in (1, 2):
            peaks = {}
            for steps in (16, 128):
                for paths in (9000, 40000):
                    tracemalloc.start()
                    try:
                        simulate(coeffs, self.x0, 1.0, steps, paths, 5, threads=threads,
                                 sink=NullSink())
                        peaks[steps, paths] = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
            for paths in (9000, 40000):
                # a rows block of 128 steps would add 11 MB a thread
                assert abs(peaks[128, paths] - peaks[16, paths]) <= 100_000, peaks
                assert peaks[16, paths] <= 48 * paths + threads * (scratch + 100_000), peaks
            assert peaks[16, 40000] - peaks[16, 9000] <= 48 * 31000 + 100_000, peaks

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_written_ensemble_equals_the_reference(self, coeffs, tmp_path, threads):
        path = tmp_path / "p.bin"
        times = np.linspace(0.0, 1.0, 17)
        with EnsembleWriter(path, times, self.paths, 3, digest=True) as writer:
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

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_failure_mid_run_stops_submitting_and_leaves_no_file(
        self, tmp_path, threads, monkeypatch
    ):
        # a large increment in chunk 5 makes its lookup fail at step 2
        paths, steps, failing = 12 * 4096 + 7, 6, 5
        dw, _, evaluated = raising_at(monkeypatch, self.x0, paths, steps, [(failing, 1)])
        path = tmp_path / "p.bin"
        times = np.linspace(0.0, 1.0, steps + 1)
        with pytest.raises(LeftTheDomain, match=f"^chunk {failing}$"):
            with EnsembleWriter(path, times, paths, 3, digest=True) as writer:
                simulate(self.sphere(), self.x0, 1.0, steps, paths, 0, increments=dw,
                         threads=threads, sink=writer)
        assert list(tmp_path.iterdir()) == []
        assert writer._next == 3  # rows 0-2 were written, row 2 in the failing round
        # no round started after the failing one: steps 0 and 1 of all 13
        # chunks, and step 2 of chunks 0-5 and of no more than the rest
        assert evaluated[: 2 * 13] == [0] * 13 + [1] * 13
        assert set(evaluated[2 * 13 :]) == {2}
        assert failing + 1 <= len(evaluated[2 * 13 :]) <= (failing + 1 if threads == 1 else 13)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_error_is_the_first_failing_chunk_in_path_order(self, threads, monkeypatch):
        # the first failing chunk of the first failing step: chunks 7 and 9
        # fail at step 1, chunk 3 only at step 2; chunk 7 fails slowly, so
        # that with more threads chunk 9 fails first
        paths, steps = 12 * 4096 + 7, 4
        dw, raised, _ = raising_at(
            monkeypatch, self.x0, paths, steps, [(3, 1), (9, 0), (7, 0)], slow=7
        )
        sink = RecordingSink((paths, steps + 1, 3))
        with frequent_switches(), pytest.raises(LeftTheDomain, match="^chunk 7$") as err:
            bounded(simulate, self.sphere(), self.x0, 1.0, steps, paths, 0, increments=dw,
                    threads=threads, sink=sink)
        # the exception object that chunk 7's step raised
        assert err.value is raised[7]
        assert sorted(raised) == ([7] if threads == 1 else [7, 9])
        assert sink.steps == [0, 1]

    def test_non_finite_table_names_step(self):
        metric = geo.sphere_metric(self.grid)
        coeffs = derive_coefficients(metric)
        coeffs.drift_table = coeffs.drift_table.copy()
        coeffs.drift_table[4, 7, 1, 2] = np.nan
        coeffs.drift_table[4, 8, 0, 1] = np.inf
        # the table is checked once, before step 0, and the first
        # non-finite node in C order is named
        with pytest.raises(NumericalError, match=r"non-finite coefficients at node \(4, 7, 1\)"):
            simulate(coeffs, self.x0, 1.0, 4, 10, 0)
        # a node along the constant axes is named with index 0 there
        coeffs = derive_coefficients(metric)
        table = coeffs.diffusion_table[:1, :, :1].copy()
        table[0, 6, 0, 2, 1] = np.nan
        coeffs.diffusion_table = np.broadcast_to(table, coeffs.diffusion_table.shape)
        with pytest.raises(NumericalError, match=r"non-finite coefficients at node \(0, 6, 0\)"):
            simulate(coeffs, self.x0, 1.0, 4, 10, 0)


class TestStepBlocks:
    """Every chunk runs in blocks of one step, one block a round, each
    drawing ``(3, n)`` increments from the chunk's component-major
    stream: the bits of the paths depend neither on the thread count nor
    on the order in which the chunks run."""

    grid = GridSpec.from_axes((0.0, 1.0, 5), (0.5, 2.5, 9), (0.0, 1.0, 9))
    x0 = np.array([0.9, 2.3, 0.1])

    @pytest.fixture(scope="class")
    def coeffs(self):
        metric = sheared_sphere_metric(self.grid)
        return derive_coefficients(metric)

    @pytest.mark.parametrize("paths", [1, 4095, 4097])
    @pytest.mark.parametrize("steps", [2, 7, 37, 128])
    def test_bits_do_not_depend_on_thread_count(self, coeffs, steps, paths):
        ref = reference_simulate(nearest_node_coefficients(coeffs), self.x0, 1.0, steps, paths, 6)
        for threads in (1, 2, 4):
            with frequent_switches():
                ens = simulate(coeffs, self.x0, 1.0, steps, paths, 6, threads=threads)
            assert_same_bits(ens.values, ref)
            assert_same_bits(ens.final, np.ascontiguousarray(ref[:, -1]))

    @pytest.mark.parametrize("draw", [1, 3, 8, 200])
    def test_explicit_increments_give_the_reference_bits(self, coeffs, draw):
        dw = np.random.default_rng(draw).standard_normal((4097, 37, 3)) * 0.2
        ref = reference_simulate(
            nearest_node_coefficients(coeffs), self.x0, 1.0, 37, 4097, 0, increments=dw
        )
        for threads in (1, 2, 4):
            ens = simulate(coeffs, self.x0, 1.0, 37, 4097, 0, increments=dw, threads=threads)
            assert_same_bits(ens.values, ref)

    def test_stream_is_the_component_major_draw(self):
        # a flat metric moves each path by its increments alone
        coeffs = constant_coefficients(np.zeros(3), np.eye(3))
        ens = simulate(coeffs, np.zeros(3), 4.0, 16, 5000, 3)
        for c, (lo, hi) in enumerate([(0, 4096), (4096, 5000)]):
            stream = np.random.SeedSequence(3, spawn_key=(0x5DE, c))
            normals = np.random.default_rng(stream).standard_normal((16, 3, hi - lo))
            steps = np.diff(ens.values[lo:hi], axis=1)
            np.testing.assert_allclose(steps, 0.5 * normals.transpose(2, 0, 1), atol=1e-12)

    def test_a_scratch_holds_one_step_of_one_chunk(self):
        # on a sphere: (3, n) increments, the 2 gathered rows and 2 rows
        # for the noise sum and a product, whatever the step count
        metric = geo.sphere_metric(self.grid)
        plan = market._coefficient_block(derive_coefficients(metric))[1]
        scratch = market._StepScratch(4096, plan)
        assert scratch.flat.nbytes == (3 + 2 + 2) * 4096 * 8
        dw, block, noise, product, _ = scratch.views(1000)
        shapes = [(3, 1000), (2, 1000), (1000,), (1000,)]
        assert [a.shape for a in (dw, block, noise, product)] == shapes
        assert all(a.flags.c_contiguous and a.base is not None for a in (dw, block, noise, product))


def three_axis_gather(coeffs):
    """Oracle: the lookup ``simulate`` made before tables were cut to
    their support, one (12, grid nodes) table and a nearest-node index
    over all three grid axes, served as callables of the reference
    loop."""
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
        # C-ordered, so that einsum sums each row in simulate's order
        return np.ascontiguousarray(gather(x)[3:].reshape(3, 3, -1).transpose(2, 1, 0))

    return Callables(drift, diffusion)


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
        return metric, derive_coefficients(metric)

    @pytest.mark.parametrize("axes", [(1,), (1, 2), (0, 1, 2)], ids=str)
    def test_tables_match_full_grid(self, axes):
        metric, coeffs = self.coeffs(axes)
        hinv = np.linalg.inv(np.array(metric.values))
        gamma = np.array(geo.christoffel(metric))
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
        ref = reference_simulate(three_axis_gather(coeffs), self.x0, 1.0, 16, 9000, 5)
        assert_same_bits(ens.values, ref)
        # states outside the grid are clamped to its edge nodes
        low = np.array([e[0] for e in self.grid.extents])
        high = np.array([e[1] for e in self.grid.extents])
        assert np.any((ens.values < low) | (ens.values > high), axis=-1).mean() > 0.2

    def test_states_far_off_the_grid_clamp_to_the_nearer_edge(self):
        # a state beyond the intp range of node counts goes to the edge on
        # its own side, and the lookup warns about no state
        index = market._node_indexer(self.grid, (1,))
        x = np.zeros((3, 7))
        x[1] = [2.3, 1e18, 1e19, 1e300, np.inf, -1e19, np.nan]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert index(x).tolist() == [7, 8, 8, 8, 8, 0, 0]

    def test_full_copies_of_profile_tables_give_the_same_paths(self):
        _, coeffs = self.coeffs((1,))
        full = SDECoefficients(
            grid=self.grid,
            drift_table=np.array(coeffs.drift_table),
            diffusion_table=np.array(coeffs.diffusion_table),
        )
        ens = simulate(coeffs, self.x0, 1.0, 8, 5000, 2)
        assert_same_bits(ens.values, simulate(full, self.x0, 1.0, 8, 5000, 2).values)


def mixed_tables(axes, grid):
    """Tables whose twelve rows are +0.0, -0.0, one number, or varying
    along the grid axes ``axes`` (one number when ``axes`` is empty)."""
    x = grid.meshgrid()
    rng = np.random.default_rng(11)

    def varying():
        entry = np.full(grid.shape, rng.uniform(0.2, 0.6))
        for k in axes:
            entry = entry + 0.3 * np.sin(rng.uniform(1.0, 3.0) * x[k] + rng.uniform(0.0, 6.0))
        return entry

    drift = np.empty(grid.shape + (3,))
    drift[..., 0] = 0.0
    drift[..., 1] = varying()
    drift[..., 2] = -0.0
    diffusion = np.empty(grid.shape + (3, 3))
    entries = {
        (0, 0): 1.0, (0, 1): -0.0, (0, 2): varying,
        (1, 0): 0.0, (1, 1): 0.7, (1, 2): -0.0,
        (2, 0): varying, (2, 1): -0.35, (2, 2): varying,
    }
    for (a, b), value in entries.items():
        diffusion[..., a, b] = value() if callable(value) else value
    return SDECoefficients(grid=grid, drift_table=drift, diffusion_table=diffusion)


def gathered_rows(monkeypatch):
    """Record the row count of every block ``simulate``'s lookup fills."""
    shapes = []
    classify = market._coefficient_block

    def recording(coeffs):
        fill, plan = classify(coeffs)

        def spy(x, block):
            shapes.append(block.shape[0])
            fill(x, block)

        return spy, plan

    monkeypatch.setattr(market, "_coefficient_block", recording)
    return shapes


class TestVaryingRowKernel:
    """Steps that gather only the rows that vary, multiply constant rows
    as numbers and leave zero rows out, against the reference loop that
    gathers all twelve: equal bits."""

    grid = GridSpec.from_axes((0.0, 1.0, 5), (0.5, 2.5, 9), (0.0, 1.0, 9))
    x0 = np.array([0.9, 2.3, 0.1])

    def reference(self, coeffs, x0, steps, paths, seed, **kw):
        return reference_simulate(
            nearest_node_coefficients(coeffs), x0, 1.0, steps, paths, seed, **kw
        )

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("axes", [(), (1,), (1, 2), (0, 1, 2)], ids=str)
    def test_mixed_rows_match_reference(self, axes, threads, monkeypatch):
        coeffs = mixed_tables(axes, self.grid)
        _, plan = market._coefficient_block(coeffs)
        # row 3 + 3b + a is omega^a_b
        assert [r for r in range(12) if plan[r] is None] == [0, 2, 4, 6, 10]
        assert (plan[3], plan[7], plan[8]) == (1.0, 0.7, -0.35)
        # the varying entries are single numbers on an empty support
        kinds = [type(plan[r]) for r in (1, 5, 9, 11)]
        assert kinds == [int if axes else float] * 4
        shapes = gathered_rows(monkeypatch)
        ens = simulate(coeffs, self.x0, 1.0, 16, 9000, 5, threads=threads)
        assert_same_bits(ens.values, self.reference(coeffs, self.x0, 16, 9000, 5))
        # one fill per step and chunk, of the varying rows only
        assert shapes == ([4] * 16 * 3 if axes else [])

    def test_negative_zero_start(self):
        # with varying rows beside the zero ones: -0.0 start components
        # stay -0.0 at time zero and become +0.0 after
        x0 = np.array([-0.0, 0.5, -0.0])
        coeffs = mixed_tables((1,), self.grid)
        coeffs.diffusion_table[..., 0, :] = 0.0
        coeffs.diffusion_table[..., 2, :] = -0.0
        _, plan = market._coefficient_block(coeffs)
        assert plan[0] is plan[2] is None
        assert [plan[3 + 3 * b] for b in range(3)] == [None] * 3
        assert [plan[5 + 3 * b] for b in range(3)] == [None] * 3
        dw = -np.ones((3, 4, 3))
        ens = simulate(coeffs, x0, 1.0, 4, 3, 0, increments=dw)
        assert_same_bits(ens.values, self.reference(coeffs, x0, 4, 3, 0, increments=dw))
        assert np.signbit(ens.values[:, 0, [0, 2]]).all()
        assert not np.signbit(ens.values[:, 1:, [0, 2]]).any()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_flat_metric_paths_are_sums_of_increments(self, threads):
        # oracle: zero drift and unit diffusion, so each state is the
        # running sum of the start and the increments before it
        metric = geo.flat_metric(self.grid)
        coeffs = derive_coefficients(metric)
        assert not coeffs.drift_table.any()
        assert np.array_equal(coeffs.diffusion_table, np.broadcast_to(np.eye(3), (5, 9, 9, 3, 3)))
        x0 = np.array([-0.0, 2.3, 0.1])
        dw = np.random.default_rng(4).standard_normal((9000, 16, 3)) * 0.25
        ens = simulate(coeffs, x0, 1.0, 16, 9000, 0, increments=dw, threads=threads)
        start = np.broadcast_to(x0 + 0.0, (9000, 1, 3))
        expected = np.add.accumulate(np.concatenate([start, dw], axis=1), axis=1)
        assert_same_bits(ens.values[:, 1:], expected[:, 1:])
        assert_same_bits(ens.values[:, 0], np.broadcast_to(x0, (9000, 3)))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("value", [1.0, 2.0])
    def test_lone_constant_diffusion_rows_match_reference(self, value, threads):
        # components 0 and 1 each have one diffusion term, a constant row
        # equal to ``value``, component 1 beside a varying drift: a 1.0
        # adds the increment itself, a 2.0 is multiplied
        x = self.grid.meshgrid()
        drift = np.zeros(self.grid.shape + (3,))
        drift[..., 1] = 0.3 * np.sin(x[1])
        diffusion = np.zeros(self.grid.shape + (3, 3))
        diffusion[..., 0, 0] = diffusion[..., 1, 1] = value
        diffusion[..., 2, 2] = 1.0 + 0.5 * np.cos(x[1])
        coeffs = SDECoefficients(grid=self.grid, drift_table=drift, diffusion_table=diffusion)
        _, plan = market._coefficient_block(coeffs)
        assert (plan[3], plan[7]) == (value, value) and (plan[1], plan[11]) == (0, 1)
        units = [unit for _, unit, _ in market._step_terms(plan, np.empty((2, 1)))]
        assert units == ([0, 1, None] if value == 1.0 else [None] * 3)
        ens = simulate(coeffs, self.x0, 1.0, 16, 9000, 5, threads=threads)
        assert_same_bits(ens.values, self.reference(coeffs, self.x0, 16, 9000, 5))
        dw = np.random.default_rng(6).standard_normal((9000, 16, 3)) * 0.25
        ens = simulate(coeffs, self.x0, 1.0, 16, 9000, 0, increments=dw, threads=threads)
        assert_same_bits(ens.values, self.reference(coeffs, self.x0, 16, 9000, 0, increments=dw))

    @settings(max_examples=20, deadline=None)
    @given(radius=st.floats(0.05, 50.0))
    def test_sphere_tables_gather_two_rows(self, radius):
        metric = geo.sphere_metric(self.grid, radius=radius)
        coeffs = derive_coefficients(metric)
        fill, plan = market._coefficient_block(coeffs)
        # mu^1 and omega^2_2 vary along axis 1; omega^0_0 = 1 and
        # omega^1_1 = 1/r are constant; every other row is zero
        assert plan[1] == 0 and plan[3 + 3 * 2 + 2] == 1
        assert plan[3] == 1.0
        assert plan[3 + 3 * 1 + 1] == coeffs.diffusion_table[0, 0, 0, 1, 1]
        assert plan[3 + 3 * 1 + 1] == pytest.approx(1.0 / radius, rel=1e-15)
        assert sum(r is None for r in plan) == 8
        x = np.array([[0.2, 3.0], [0.7, 2.0], [0.5, -1.0]])
        block = np.empty((2, 2))
        fill(x, block)
        nodes = nearest_node_coefficients(coeffs)
        assert_same_bits(block[0], nodes.drift(0.0, x.T)[:, 1])
        assert_same_bits(block[1], nodes.diffusion(0.0, x.T)[:, 2, 2])

    def test_sphere_step_gathers_only_the_varying_rows(self, monkeypatch):
        metric = geo.sphere_metric(self.grid, radius=1.7)
        coeffs = derive_coefficients(metric)
        shapes = gathered_rows(monkeypatch)
        ens = simulate(coeffs, self.x0, 1.0, 8, 5000, 3)
        assert shapes == [2] * 8 * 2
        assert_same_bits(ens.values, self.reference(coeffs, self.x0, 8, 5000, 3))


class TestSimulateValidation:
    """Arguments are checked before any chunk reaches the sink."""

    coeffs = constant_coefficients(np.zeros(3), np.eye(3))

    @pytest.mark.parametrize("paths", [4095, 4097, 5001, 9000])
    def test_increments_of_another_shape_rejected_before_any_rows(self, paths):
        sink = RecordingSink((5000, 5, 3))
        dw = np.zeros((paths, 4, 3))
        with pytest.raises(ValidationError, match=r"increments must have shape \(5000, 4, 3\)"):
            simulate(self.coeffs, np.zeros(3), 1.0, 4, 5000, 0, increments=dw, sink=sink)
        assert sink.steps == []

    @pytest.mark.parametrize("shape", [(5000, 5, 3), (5000, 4, 2), (5000, 12)])
    def test_increments_with_other_steps_or_components_rejected(self, shape):
        with pytest.raises(ValidationError, match="increments must have shape"):
            simulate(self.coeffs, np.zeros(3), 1.0, 4, 5000, 0, increments=np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_non_finite_increments_rejected_before_any_rows(self, bad, threads):
        # the last chunk's increment is bad; no chunk runs
        sink = RecordingSink((9000, 5, 3))
        dw = np.zeros((9000, 4, 3))
        dw[8999, 3, 2] = bad
        with pytest.raises(ValidationError, match="increments must be finite"):
            simulate(self.coeffs, np.zeros(3), 1.0, 4, 9000, 0, increments=dw,
                     threads=threads, sink=sink)
        assert sink.steps == []

    @pytest.mark.parametrize("threads", [0, -1])
    def test_thread_count_below_one_rejected(self, threads):
        sink = RecordingSink((10, 5, 3))
        with pytest.raises(ValidationError, match="thread count must be at least 1"):
            simulate(self.coeffs, np.zeros(3), 1.0, 4, 10, 0, threads=threads, sink=sink)
        assert sink.steps == []
