"""Kernel mass check and Crank-Nicolson evolution against independent oracles."""

import json
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from semicoop import NumericalError, ValidationError, evolution, fieldio, geometry, pipeline
from semicoop.grids import GridSpec, dst1
from semicoop.polygon import effective_region
from semicoop.scenario import PROFIT_PRESETS, parse_scenario


def panel_nodes(lo, hi, breaks, n):
    """Composite Gauss-Legendre nodes/weights over panel subdivisions."""
    base_x, base_w = np.polynomial.legendre.leggauss(n)
    edges = [lo] + [b for b in breaks if lo < b < hi] + [hi]
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        xs.append(a + half * (base_x + 1.0))
        ws.append(half * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def tensor_quadrature_deviation(spec, sample_count):
    """The kernel check done as a full 3-D Gauss-Legendre tensor product of
    the normalized Gaussian density, with panels split at 7 and 9 standard
    deviations: the inner panel resolves the peak, the next ones the tail."""
    cov = spec.variance * np.eye(3)
    prec = np.linalg.inv(cov)
    norm = 1.0 / np.sqrt((2.0 * np.pi) ** 3 * np.linalg.det(cov))
    a = spec.domain_halfwidth
    breaks = np.array([-9.0, -7.0, 7.0, 9.0])  # standard deviations
    (x0, w0), (x1, w1), (x2, w2) = (
        panel_nodes(-a, a, np.sqrt(cov[k, k]) * breaks, sample_count) for k in range(3)
    )
    plane = np.stack(np.meshgrid(x1, x2, indexing="ij"), axis=-1)
    plane_quad = np.einsum("...a,ab,...b->...", plane, prec[1:, 1:], plane)
    plane_cross = 2.0 * plane @ prec[0, 1:]
    total = 0.0
    for x, w in zip(x0, w0):  # one plane at a time keeps the memory small
        density = norm * np.exp(-0.5 * (prec[0, 0] * x * x + x * plane_cross + plane_quad))
        total += w * float(w1 @ density @ w2)
    return abs(total - 1.0)


class TestKernelNormalization:
    @pytest.mark.parametrize("halfwidth", [0.3, 1.0])
    @pytest.mark.parametrize("mass", [0.3, 3.0, 30.0, 300.0, 1e4])
    def test_closed_form_matches_erf_product(self, mass, halfwidth):
        spec = evolution.KernelSpec(
            mass=mass, step=0.05, effective_scale=1.3, domain_halfwidth=halfwidth
        )
        inside = special.erf(halfwidth / np.sqrt(2.0 * spec.variance)) ** 3
        assert evolution.kernel_normalization_check(spec) == pytest.approx(
            1.0 - inside, rel=0, abs=1e-14
        )

    @pytest.mark.parametrize("mass", [0.3, 3.0, 30.0])
    def test_closed_form_matches_tensor_quadrature(self, mass):
        spec = evolution.KernelSpec(mass=mass, step=0.05, effective_scale=1.3)
        expected = tensor_quadrature_deviation(spec, 40)
        assert abs(evolution.kernel_normalization_check(spec) - expected) <= 1e-13

    def test_small_leak_keeps_its_relative_accuracy(self):
        # 1 - erf^3 cancels to rounding here; t (3 - 3t + t^2) keeps the
        # leak, three times the mass erfc leaves outside one axis
        spec = evolution.KernelSpec(mass=60.0, step=0.05, effective_scale=1.3)
        t = special.erfc(spec.domain_halfwidth / np.sqrt(2.0 * spec.variance))
        assert 0.0 < t < 1e-20
        assert evolution.kernel_normalization_check(spec) == pytest.approx(3.0 * t, rel=1e-14)

    @pytest.mark.parametrize("mass", [1e3, 1e4, 1e6])
    def test_gaussian_inside_the_box_reports_no_leak(self, mass):
        # sigma is at most 0.0081 against a unit half-width, so the true leak
        # is below 1e-300
        spec = evolution.KernelSpec(mass=mass, step=0.05, effective_scale=1.3)
        assert evolution.kernel_normalization_check(spec) == 0.0

    def test_leak_vanishes_as_mass_grows(self):
        deviations = [
            evolution.kernel_normalization_check(
                evolution.KernelSpec(mass=m, step=0.05, effective_scale=1.0)
            )
            for m in (1.0, 3.0, 10.0)
        ]
        assert deviations[0] > deviations[1] > deviations[2]

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scale_is_listed_with_the_other_problems(self, scale):
        with pytest.raises(ValidationError) as info:
            evolution.KernelSpec(mass=0.0, step=0.05, effective_scale=scale)
        assert info.value.problems == ["mass must be positive", "effective scale must be finite"]

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_non_positive_variance_is_rejected(self, scale):
        with pytest.raises(ValidationError, match="must be positive"):
            evolution.KernelSpec(mass=1.0, step=0.05, effective_scale=scale)

    def test_overflowing_variance_is_a_numerical_error(self):
        # each factor is valid; their product (step / mass) F0 is not finite
        with pytest.raises(NumericalError, match="overflows"):
            evolution.KernelSpec(mass=1e-300, step=1e300, effective_scale=1.0)


class TestTwoPointCorrelation:
    """The kernel's covariance is ``spec.variance`` times the identity in
    closed form, and a run reports ``spec.variance``; this oracle draws the
    kernel's step displacements itself, so the package samples nothing."""

    def test_estimate_converges_to_the_covariance(self):
        spec = evolution.KernelSpec(mass=100.0, step=0.05, effective_scale=1.3)
        normals = np.random.default_rng(np.random.SeedSequence(3)).standard_normal((200000, 3))
        got = np.cov(normals * np.sqrt(spec.variance), rowvar=False)
        # the standard error of each entry is about sqrt(2 / n) sigma^2
        assert np.abs(got - spec.variance * np.eye(3)).max() <= 0.02 * spec.variance


class TestEffectiveScale:
    SCENARIO = {
        "grid": {"time": [0, 1, 5], "sigma1": [0.5, 2.5, 9], "sigma2": [0, 1, 9]},
        "metric": {"preset": "sphere"},
        "firms": [{"share": [0.3, 1.0, 0.5], "strategy": 0.2, "alpha_own": 0.5,
                   "alpha_other": 0.5, "coop_own": 0.5, "coop_other": 0.5}],
    }

    def scale(self, metric):
        config = parse_scenario(self.SCENARIO)
        curv = geometry.curvature(metric, geometry.christoffel(metric))
        return pipeline.kernel(config, pipeline.action_terms(config, metric, curv))[0]

    def test_static_metric_sets_the_flag(self):
        config = parse_scenario(self.SCENARIO)
        scale = self.scale(config.build_metric())
        assert np.array_equal(scale.values, np.broadcast_to(scale.values[0], scale.values.shape))
        assert scale.not_strictly_increasing

    def test_bracket_increasing_in_time_clears_the_flag(self):
        # h = diag(1 / (1 + t), 1, 1) is flat, and both tr(h^-1) = 3 + t and
        # (det h)^(-3/2) = (1 + t)^(3/2) grow with t
        grid = parse_scenario(self.SCENARIO).build_grid()
        t = grid.meshgrid()[0]
        values = np.zeros(grid.shape + (3, 3))
        values[..., 0, 0] = 1.0 / (1.0 + t)
        values[..., 1, 1] = values[..., 2, 2] = 1.0
        scale = self.scale(geometry.MetricField(values, grid))
        assert np.all(np.diff(scale.values, axis=0) > 0.0)
        assert not scale.not_strictly_increasing


def strategy_slice(metric_of, n):
    """A two-axis ``n x n`` strategy grid and its metric."""
    grid = GridSpec.from_axes((0.5, 2.5, n), (0.0, 1.0, n))
    return grid, metric_of(grid)


def sheared_sphere(grid):
    """The unit-sphere slice plus an off-diagonal entry at every node."""
    values = geometry.sphere_metric(grid).values.copy()
    values[..., 0, 1] = values[..., 1, 0] = 0.2 * np.sin(grid.meshgrid()[0])
    return geometry.MetricField(values, grid)


def transposed_sphere_slice(n):
    """The unit-sphere slice with its axes swapped: the colatitude runs
    along axis 1, so the metric varies along axis 1."""
    grid = GridSpec.from_axes((0.0, 1.0, n), (0.5, 2.5, n))
    values = np.zeros(grid.shape + (2, 2))
    values[..., 0, 0] = np.sin(grid.meshgrid()[1]) ** 2
    values[..., 1, 1] = 1.0
    return grid, geometry.MetricField(values, grid)


def moving_packet(grid, wavevector):
    """The pipeline's packet times the plane wave ``exp(i k . (x - c))``
    about the grid centre ``c``, normalized again."""
    xs, ys = grid.meshgrid()
    (a0, b0), (a1, b1) = grid.extents
    phase = wavevector[0] * (xs - 0.5 * (a0 + b0)) + wavevector[1] * (ys - 0.5 * (a1 + b1))
    values = evolution.gaussian_packet(grid, 0.15).values * np.exp(1j * phase)
    return evolution.WaveFunction(values, grid).normalized()


def two_matrix_steps(psi, spec, metric, steps):
    """Crank-Nicolson as ``B x' = F x`` with both matrices built."""
    lap = geometry.laplace_operator_matrix(metric)
    generator = (1j * spec.effective_scale / (2.0 * spec.mass)) * lap
    eye = sp.identity(lap.shape[0], format="csc", dtype=complex)
    forward = (eye + 0.5 * spec.step * generator).tocsr()
    backward = spla.splu((eye - 0.5 * spec.step * generator).tocsc())
    vec = psi.values[1:-1, 1:-1].reshape(-1).astype(complex)
    for _ in range(steps):
        vec = backward.solve(forward @ vec)
    values = np.zeros(psi.grid.shape, dtype=complex)
    values[1:-1, 1:-1] = vec.reshape(psi.grid.shape[0] - 2, psi.grid.shape[1] - 2)
    return values


@pytest.fixture
def mode_calls(monkeypatch):
    """Counts calls of the closed-form mode propagator."""
    calls = []
    original = evolution._propagate_modes

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(evolution, "_propagate_modes", spy)
    return calls


@pytest.fixture
def recurrence_rates(monkeypatch):
    """The rate ``a`` of every call of the Chebyshev recurrence."""
    rates = []
    original = evolution._chebyshev_phase

    def spy(*args):
        rates.append(args[-1])
        return original(*args)

    monkeypatch.setattr(evolution, "_chebyshev_phase", spy)
    return rates


def eigh_modes(interior, metric, theta, steps):
    """The mode propagator with one dense ``eigh`` per sine mode, operation
    for operation as the module's ``eigh`` branch runs it, so that branch
    must equal it bit for bit."""
    h0, h1 = metric.grid.spacings
    m2 = interior.shape[1]
    s = metric.volume_density[:, 0]
    hinv = metric.inverse[:, 0]
    flux0 = s * hinv[:, 0, 0]
    face = 0.5 * (flux0[1:] + flux0[:-1]) / h0**2
    row1 = (s * hinv[:, 1, 1])[1:-1] / h1**2
    root = np.sqrt(s[1:-1])
    sine = -4.0 * np.sin(0.5 * np.pi * np.arange(1, m2 + 1) / (m2 + 1)) ** 2
    off = face[1:-1] / (root[:-1] * root[1:])
    ortho = np.sqrt(0.5 / (m2 + 1))
    tri = np.diag(off, -1)
    modes = dst1(interior, 1) * ortho * root[:, None]
    for k in range(m2):
        np.fill_diagonal(tri, (sine[k] * row1 - face[1:] - face[:-1]) / s[1:-1])
        lam, vecs = np.linalg.eigh(tri)
        phase = np.exp((2j * steps) * np.arctan(0.5 * theta * lam))
        modes[:, k] = vecs @ (phase * (vecs.T @ modes[:, k]))
    return dst1(modes / root[:, None], 1) * ortho


@pytest.fixture
def mode_cases(monkeypatch):
    """The arguments and result of every call of the mode propagator."""
    cases = []
    original = evolution._propagate_modes

    def spy(interior, metric, theta, steps):
        result = original(interior, metric, theta, steps)
        cases.append(((interior.copy(), metric, theta, steps), result))
        return result

    monkeypatch.setattr(evolution, "_propagate_modes", spy)
    return cases


SPEC = evolution.KernelSpec(mass=1e4, step=0.005, effective_scale=0.6)
UNIT_SPEC = evolution.KernelSpec(mass=1.0, step=5e-4, effective_scale=1.0)


class TestEvolve:
    def test_one_solve_step_matches_two_matrix_form(self, mode_calls):
        grid, metric = strategy_slice(sheared_sphere, 33)
        psi0 = evolution.gaussian_packet(grid, 0.15)
        psi = evolution.evolve(psi0, SPEC, metric, 200)
        expected = two_matrix_steps(psi0, SPEC, metric, 200)
        assert not mode_calls
        assert np.abs(psi.values - expected).max() <= 1e-12
        assert psi.time == pytest.approx(200 * SPEC.step)

    @pytest.mark.parametrize("n", [33, 129])
    def test_mode_path_matches_two_matrix_form(self, mode_calls, n):
        grid, metric = strategy_slice(geometry.sphere_metric, n)
        psi0 = evolution.gaussian_packet(grid, 0.15)
        psi = evolution.evolve(psi0, SPEC, metric, 200)
        expected = two_matrix_steps(psi0, SPEC, metric, 200)
        assert mode_calls == [1]
        assert np.abs(psi.values - expected).max() <= 1e-12
        assert psi.time == pytest.approx(200 * SPEC.step)

    def test_mode_path_matches_lu_path_on_the_transposed_sphere(self, mode_calls):
        # the same sphere with its axes swapped takes the LU path; the
        # operator is the same up to the permutation of the axes
        grid, metric = strategy_slice(geometry.sphere_metric, 33)
        grid_t, metric_t = transposed_sphere_slice(33)
        psi0 = moving_packet(grid, (2.0, -1.0))
        psi = evolution.evolve(psi0, SPEC, metric, 200)
        psi_t = evolution.evolve(evolution.WaveFunction(psi0.values.T, grid_t), SPEC, metric_t, 200)
        assert mode_calls == [1]
        assert np.abs(psi.values - psi_t.values.T).max() <= 1e-12

    @pytest.mark.parametrize(
        "make_slice",
        [
            lambda n: strategy_slice(geometry.sphere_metric, n),
            transposed_sphere_slice,
            lambda n: strategy_slice(sheared_sphere, n),
        ],
        ids=["sphere-modes", "sphere-lu", "sheared-lu"],
    )
    def test_weighted_norm_conserved(self, make_slice):
        grid, metric = make_slice(41)
        psi0 = moving_packet(grid, (3.0, -2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", evolution.AccuracyWarning)
            psi = evolution.evolve(psi0, UNIT_SPEC, metric, 400)
        weight = metric.volume_density
        assert abs(psi.norm(weight) - psi0.norm(weight)) <= 1e-12
        # the plain L2 norm is not the conserved one on a curved slice
        assert abs(psi.norm() - psi0.norm()) > 1e-9

    @pytest.mark.parametrize("where", ["off-diagonal", "along-axis-1"])
    def test_one_entry_off_the_mode_criterion_takes_the_lu_path(self, where, mode_calls):
        # the test on the metric values is exact: a change of 1e-9 in one
        # entry moves the field by far more than the 1e-12 compared here
        grid, metric = strategy_slice(geometry.sphere_metric, 17)
        values = metric.values.copy()
        if where == "off-diagonal":
            values[8, 5, 0, 1] = values[8, 5, 1, 0] = 1e-9
        else:
            values[8, 5, 1, 1] *= 1.0 + 1e-9
        metric = geometry.MetricField(values, grid)
        psi0 = moving_packet(grid, (3.0, -2.0))
        psi = evolution.evolve(psi0, UNIT_SPEC, metric, 50)
        assert not mode_calls
        expected = two_matrix_steps(psi0, UNIT_SPEC, metric, 50)
        assert np.abs(psi.values - expected).max() <= 1e-12

    @pytest.mark.parametrize("path", ["modes", "lu"])
    def test_sine_mode_evolves_by_its_exact_phase(self, path, mode_calls):
        """On the flat unit box with zero ends, sin(2 pi x) sin(pi y) is an
        eigenmode of the Laplacian, so it evolves as itself times
        exp(-i F0 (k^2 + l^2) pi^2 t / (2M)), k = 2, l = 1.  With the step
        proportional to the spacing the error is second order.  The LU
        path is steered to as in the test above, by one entry off the
        mode criterion."""
        duration, errors = 0.05, []
        for n in (17, 33, 65):
            grid = GridSpec.from_axes((0.0, 1.0, n), (0.0, 1.0, n))
            metric = geometry.flat_metric(grid)
            if path == "lu":
                values = metric.values.copy()
                values[n // 2, n // 2, 0, 1] = values[n // 2, n // 2, 1, 0] = 1e-9
                metric = geometry.MetricField(values, grid)
            x, y = grid.meshgrid()
            mode = np.sin(2 * np.pi * x) * np.sin(np.pi * y)
            steps = 4 * (n - 1)  # step * F0 / (M h^2) stays at most 0.8
            spec = evolution.KernelSpec(mass=1.0, step=duration / steps, effective_scale=1.0)
            psi0 = evolution.WaveFunction(mode.astype(complex), grid)
            with warnings.catch_warnings():
                warnings.simplefilter("error", evolution.AccuracyWarning)
                psi = evolution.evolve(psi0, spec, metric, steps)
            exact = mode * np.exp(-1j * 5 * np.pi**2 * duration / 2)
            errors.append(np.abs(psi.values - exact).max())
        assert len(mode_calls) == (3 if path == "modes" else 0)
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert orders.min() >= 1.9, (errors, orders)

    def test_norm_conserved_on_flat_metric(self):
        grid, metric = strategy_slice(geometry.flat_metric, 33)
        psi0 = moving_packet(grid, (3.0, -2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", evolution.AccuracyWarning)
            psi = evolution.evolve(psi0, UNIT_SPEC, metric, 200)
        assert abs(psi.norm() - psi0.norm()) <= 1e-12

    @pytest.mark.parametrize("metric_of", [geometry.flat_metric, sheared_sphere])
    def test_non_finite_scale_is_a_numerical_error(self, metric_of):
        grid, metric = strategy_slice(metric_of, 9)
        psi0 = evolution.gaussian_packet(grid, 0.15)
        spec = evolution.KernelSpec(mass=1.0, step=1e-3, effective_scale=1.0)
        # the spec rejects a non-finite scale; set after it, evolve still must
        spec.effective_scale = float("nan")
        with pytest.raises(NumericalError):
            evolution.evolve(psi0, spec, metric, 1)

    def test_large_quality_factor_warns(self):
        grid, metric = strategy_slice(geometry.flat_metric, 9)
        psi0 = evolution.gaussian_packet(grid, 0.15)
        spec = evolution.KernelSpec(mass=1.0, step=1.0, effective_scale=1.0)
        with pytest.warns(evolution.AccuracyWarning):
            evolution.evolve(psi0, spec, metric, 1)

    def test_small_quality_factor_is_silent(self):
        grid, metric = strategy_slice(geometry.flat_metric, 9)
        psi0 = evolution.gaussian_packet(grid, 0.15)
        with warnings.catch_warnings():
            warnings.simplefilter("error", evolution.AccuracyWarning)
            evolution.evolve(psi0, SPEC, metric, 1)

    def test_zero_steps_returns_a_copy(self):
        grid, metric = strategy_slice(geometry.flat_metric, 9)
        psi0 = evolution.gaussian_packet(grid, 0.15)
        psi = evolution.evolve(psi0, SPEC, metric, 0)
        assert np.array_equal(psi.values, psi0.values)
        assert psi.time == psi0.time
        assert not np.shares_memory(psi.values, psi0.values)

    def test_metric_of_another_dimension_is_rejected(self):
        grid, metric = strategy_slice(lambda g: geometry.constant_metric(g, np.eye(3)), 9)
        psi0 = evolution.gaussian_packet(grid, 0.15)
        with pytest.raises(ValidationError):
            evolution.evolve(psi0, SPEC, metric, 1)

    def test_negative_steps_are_rejected(self):
        grid, metric = strategy_slice(geometry.flat_metric, 9)
        psi0 = evolution.gaussian_packet(grid, 0.15)
        with pytest.raises(ValidationError):
            evolution.evolve(psi0, SPEC, metric, -1)


class TestChebyshevRecurrence:
    """The mode propagator's recurrence against the per-mode ``eigh``."""

    @pytest.mark.parametrize("n", [17, 33, 65, 129])
    def test_matches_the_eigh_oracle_on_sphere_slices(self, n, mode_cases, recurrence_rates):
        grid, metric = strategy_slice(geometry.sphere_metric, n)
        psi0 = moving_packet(grid, (3.0, -2.0))
        psi = evolution.evolve(psi0, SPEC, metric, 2000)
        (args, result), = mode_cases
        assert len(recurrence_rates) == 1 and 0.0 < recurrence_rates[0] <= n - 2
        assert np.abs(result - eigh_modes(*args)).max() <= 1e-12
        weight = metric.volume_density
        assert abs(psi.norm(weight) - psi0.norm(weight)) <= 1e-13

    def test_threshold_on_the_rate(self, mode_cases, recurrence_rates):
        # the largest step count whose rate a is at most m1 takes the
        # recurrence, the next one the per-mode eigh, bit for bit
        grid, metric = strategy_slice(geometry.sphere_metric, 65)
        psi0 = moving_packet(grid, (3.0, -2.0))
        evolution.evolve(psi0, SPEC, metric, 1)
        steps = int(63 / recurrence_rates.pop())
        evolution.evolve(psi0, SPEC, metric, steps)
        (rate,) = recurrence_rates
        assert 62.0 < rate <= 63.0
        args, result = mode_cases[-1]
        assert np.abs(result - eigh_modes(*args)).max() <= 1e-12
        evolution.evolve(psi0, SPEC, metric, steps + 1)
        assert len(recurrence_rates) == 1
        args, result = mode_cases[-1]
        assert np.array_equal(result, eigh_modes(*args))

    @pytest.mark.parametrize("counts", [(3, 3), (3, 9), (9, 3)])
    def test_degenerate_interiors_match_two_matrix_form(self, counts, mode_calls):
        grid = GridSpec.from_axes((0.5, 2.5, counts[0]), (0.0, 1.0, counts[1]))
        metric = geometry.sphere_metric(grid)
        psi0 = moving_packet(grid, (3.0, -2.0))
        psi = evolution.evolve(psi0, SPEC, metric, 200)
        assert mode_calls == [1]
        assert np.abs(psi.values - two_matrix_steps(psi0, SPEC, metric, 200)).max() <= 1e-12

    def test_stiff_steps_keep_the_per_mode_eigh(self, mode_cases, recurrence_rates):
        grid, metric = strategy_slice(geometry.sphere_metric, 65)
        psi0 = moving_packet(grid, (3.0, -2.0))
        spec = evolution.KernelSpec(mass=1.0, step=1e-3, effective_scale=1.0)
        with pytest.warns(evolution.AccuracyWarning):
            psi = evolution.evolve(psi0, spec, metric, 4000)
        assert not recurrence_rates
        (args, result), = mode_cases
        assert np.array_equal(result, eigh_modes(*args))
        weight = metric.volume_density
        assert abs(psi.norm(weight) - psi0.norm(weight)) <= 1e-12


DESIGN = Path(__file__).resolve().parents[1] / "perfbench" / "design.json"


def benchmark_configs(tmp_path):
    """The scenario of every benchmark workload, built as the benchmark
    builds it, with its metric file written for seeds 1 and 2."""
    design = json.loads(DESIGN.read_text())
    for name, spec in design["workloads"].items():
        axes = spec["grid"]
        scenario = {"grid": axes, **spec["scenario"], "firms": [design["firm"]]}
        if "metric_file" not in spec:
            yield name, parse_scenario(scenario)
            continue
        grid = GridSpec.from_axes(tuple(axes["time"]), tuple(axes["sigma1"]), tuple(axes["sigma2"]))
        lo, hi = spec["metric_file"]["radius_range"]
        for seed in (1, 2):
            radius = lo + (hi - lo) * float(np.random.default_rng(seed).random())
            path = tmp_path / f"{name}-{seed}.bin"
            fieldio.write_grid(path, geometry.sphere_metric(grid, radius=radius).values, grid)
            yield f"{name}-{seed}", parse_scenario({**scenario, "metric": {"file": str(path)}})


def test_every_benchmark_slice_takes_the_mode_path(tmp_path, mode_calls, monkeypatch):
    # the benchmark's evolve cost rests on the closed form and its
    # Chebyshev recurrence; a change that breaks the exact test on the
    # metric values (say, rounding in a file round trip) or sends a slice
    # to the per-mode eigh must fail here rather than slow the benchmark
    def no_lu(*args, **kwargs):
        raise AssertionError("the LU path was taken")

    def no_eigh(*args, **kwargs):
        raise AssertionError("the per-mode eigh was taken")

    monkeypatch.setattr(evolution, "laplace_operator_matrix", no_lu)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    names = []
    for name, config in benchmark_configs(tmp_path):
        kernel = config.data["kernel"]
        spec = evolution.KernelSpec(
            mass=float(kernel["mass"]), step=float(kernel["step"]), effective_scale=1.0
        )
        _, psi0, psi = pipeline.evolve(config, config.build_metric(), spec)
        assert psi.time > psi0.time
        names.append(name)
    assert len(mode_calls) == len(names) == 5
    assert {n.split("-")[0] for n in names} == {
        "world_grid", "path_ensemble", "strategy_plane", "stage_commands"
    }


def test_every_benchmark_slice_matches_the_eigh_oracle(tmp_path, mode_cases, recurrence_rates):
    # at the pipeline's own F0, as the benchmark runs it
    for name, config in benchmark_configs(tmp_path):
        _, metric, _, curv = pipeline.world(config)
        _, spec, _ = pipeline.kernel(config, pipeline.action_terms(config, metric, curv))
        slice_metric, psi0, psi = pipeline.evolve(config, metric, spec)
        args, result = mode_cases[-1]
        assert np.abs(result - eigh_modes(*args)).max() <= 1e-12, name
        weight = slice_metric.volume_density
        assert abs(psi.norm(weight) - psi0.norm(weight)) <= 1e-13, name
    assert len(recurrence_rates) == len(mode_cases) == 5


RANDOM_SCALE_KINDS = ["quadratic", "cubic", "sign_change", "gaussians"]


def random_scale(rng, kind):
    """A random smooth ``F0`` on [0.05, 1] of one kind, for scalars and arrays."""
    if kind == "quadratic":
        a, v, p = rng.uniform(0.1, 5.0), rng.uniform(-0.2, 1.2), rng.uniform(-2.0, 2.0)
        return lambda rho: p - a * (rho - v) ** 2
    if kind == "cubic":
        coefficients = rng.normal(size=4)
        return lambda rho: np.polyval(coefficients, rho)
    if kind == "sign_change":
        z, s, b = rng.uniform(0.1, 0.9), rng.uniform(0.5, 3.0), rng.normal()
        return lambda rho: s * (rho - z) * (1.0 + b * rho)
    n = rng.integers(1, 5)
    centre, width = rng.uniform(0.05, 1.0, n), rng.uniform(0.05, 0.4, n)
    amplitude = rng.normal(size=n)
    return lambda rho: np.sum(
        amplitude * np.exp(-(((np.asarray(rho)[..., None] - centre) / width) ** 2)), axis=-1
    )


def scan_optimal_rho(rho_to_scale, grid=64):
    """The general scan that found ``rho*`` before the closed form of
    :func:`evolution.optimal_rho`, kept as its oracle.

    ``|F0|`` is evaluated on ``grid`` uniform nodes of ``[RHO_MIN, 1]``; it
    is flat when its range on them is within ``1e-12`` of its maximum.
    Each + to - sign change of its ``np.gradient``, taken at the two end
    nodes by the difference below so that the end intervals count,
    brackets a maximum, bisected to ``1e-15`` on the signs of the centered
    difference (step ``1e-6``, clipped to the interval) and rounded to 12
    digits, so rescaling ``F0`` moves ``rho*`` only where rounding zeroes
    that difference, by under ``1e-9``.  The largest ``|F0|`` among those
    maxima and the ends wins, as in the closed form.
    """
    grid_n = int(grid)
    if grid_n < 16:
        raise ValidationError("cooperation-degree grid needs at least 16 points")

    def objective(rho):
        f0 = rho_to_scale(float(rho))
        if not np.isfinite(f0):
            raise NumericalError(f"effective scale is {float(f0)} at rho = {float(rho)!r}")
        return abs(float(f0))

    def derivative(rho):
        lo, hi = max(evolution.RHO_MIN, rho - 1e-6), min(1.0, rho + 1e-6)
        return (objective(hi) - objective(lo)) / (hi - lo)

    rhos = np.linspace(evolution.RHO_MIN, 1.0, grid_n)
    j = np.array([objective(r) for r in rhos])
    if j.max() - j.min() <= 1e-12 * j.max():
        return evolution.RhoSearchResult(None, (), False, True, "flat")

    # signs, not products, so that no scale of F0 underflows a comparison
    sign = np.sign(np.gradient(j, rhos))
    sign[[0, -1]] = np.sign([derivative(rhos[0]), derivative(rhos[-1])])
    maxima = []
    for k in np.flatnonzero((sign[:-1] > 0.0) & (sign[1:] <= 0.0)):
        dlo, dhi = derivative(rhos[k]), derivative(rhos[k + 1])
        if np.sign(dlo) == np.sign(dhi) != 0.0:  # turns just outside: next interval
            k += 1 if dlo > 0.0 else -1
            dlo, dhi = derivative(rhos[k]), derivative(rhos[k + 1])
        lo, hi = rhos[k], rhos[k + 1]
        if np.sign(dlo) == np.sign(dhi) != 0.0:  # still one sign: nearer node
            lo = hi = lo if abs(dlo) <= abs(dhi) else hi
        while hi - lo > 1e-15:
            mid = 0.5 * (lo + hi)
            side = np.sign(derivative(mid))
            if side == 0.0:  # flat to rounding: stop at the first such point
                lo = hi = mid
            elif side == np.sign(dhi):
                hi = mid
            else:
                lo = mid
        maxima.append(float(0.5 * (lo + hi)))

    maxima = tuple(dict.fromkeys(round(s, 12) for s in maxima))
    candidates = maxima + (float(rhos[0]), float(rhos[-1]))
    best = int(np.argmax([objective(c) for c in candidates]))
    end = best >= len(maxima)
    return evolution.RhoSearchResult(
        candidates[best], maxima, end, False, "end" if end else "vertex"
    )


RHO_SCENARIO = {
    "grid": {"time": [0, 1, 3], "sigma1": [0.5, 2.5, 9], "sigma2": [0, 1, 9]},
    "metric": {"preset": "flat"},
    "firms": [
        {"share": [0.3, 1.0, 0.5], "strategy": 0.0, "alpha_own": 0.5,
         "alpha_other": 0.5, "coop_own": 0.5, "coop_other": 0.5}
    ],
}


def rho_config(profit, firm=(), **changes):
    """A parsed scenario with the profit section ``profit``, the first
    firm updated by ``firm`` and the top-level ``changes``."""
    doc = dict(RHO_SCENARIO, profit=profit, **changes)
    doc["firms"] = [dict(RHO_SCENARIO["firms"][0], **dict(firm))]
    return parse_scenario(doc)


def cooperation(config):
    """``pipeline.cooperation`` on the scenario's own world volume."""
    _, metric, _, curv = pipeline.world(config)
    return pipeline.cooperation(config, metric, curv)


def cooperation_spied(config):
    """``cooperation(config)``, or the NumericalError it raises, and the
    map ``F0(rho)`` and the interior maxima it hands to
    :func:`evolution.optimal_rho`."""
    seen = []
    real = evolution.optimal_rho

    def spy(rho_to_scale, stationary):
        seen.append((rho_to_scale, stationary))
        return real(rho_to_scale, stationary)

    with mock.patch.object(evolution, "optimal_rho", spy):
        try:
            payload = cooperation(config)
        except NumericalError as exc:
            payload = exc
    return (payload,) + seen[0]


class TestOptimalRho:
    def scan(self, effective_scale, factor=1.0, grid=32):
        return scan_optimal_rho(lambda rho: factor * effective_scale(rho), grid=grid)

    def test_rho_star_does_not_depend_on_the_mass(self):
        # the evolution rate is |F0(rho)| / (2 mass) times ||Lap psi||: the
        # mass, psi and the metric only multiply F0 by a positive constant,
        # which must decide neither flatness nor rho*
        peaked = lambda rho: 1.0 - (rho - 0.6) ** 2  # noqa: E731
        for factor in 10.0 ** np.arange(-6, 17):
            result = evolution.optimal_rho(lambda rho: factor * peaked(rho), (0.6,))
            assert result == evolution.RhoSearchResult(0.6, (0.6,), False, False, "vertex")

    @pytest.mark.parametrize(
        "scale, stationary",
        [
            (lambda rho: 2.0 - 0.4 * (rho - 0.23) ** 2, (0.23,)),  # the vertex wins
            (lambda rho: 0.1 - 10.0 * (rho - 0.6) ** 2, (0.6,)),  # an end beats the vertex
            (lambda rho: rho - 2.0, ()),  # |F0| falls as F0 rises
            (lambda rho: 3.0 + 3.0 * (0.8 + 0.5**rho) ** 0.5, ()),  # a region_power bracket
            (lambda rho: 0.7, ()),  # flat
        ],
        ids=["vertex", "end-over-vertex", "negative", "bracket", "flat"],
    )
    def test_powers_of_ten_leave_the_result_unchanged(self, scale, stationary):
        # only comparisons of |F0| decide, and 10^k keeps each of them
        reference = evolution.optimal_rho(scale, stationary)
        for k in range(-200, 201):
            factor = 10.0**k
            assert evolution.optimal_rho(lambda rho: factor * scale(rho), stationary) == reference

    @pytest.mark.parametrize("vertex, curvature", [(0.23, 0.4), (0.71, 3.7), (0.88, 0.15)])
    def test_rescaling_moves_rho_star_by_rounding_only(self, vertex, curvature):
        # the oracle's bisection reads signs only; a scale can widen the band
        # around the vertex where the 1e-6 difference rounds to zero, and no more
        peaked = lambda rho: 2.0 - curvature * (rho - vertex) ** 2  # noqa: E731
        reference = self.scan(peaked, grid=64)
        assert abs(reference.rho_star - vertex) <= 1e-9
        for factor in [1e-200, 1e-6, 3.7e-3, 0.9, 41.0, 1e9, 1e16, 1e200]:
            result = self.scan(peaked, factor, grid=64)
            assert abs(result.rho_star - reference.rho_star) <= 1e-9
            assert len(result.stationary_points) == 1

    @pytest.mark.parametrize("mass", [1e-6, 1.0, 1e16])
    def test_constant_scale_is_degenerate_at_any_mass(self, mass):
        result = evolution.optimal_rho(lambda rho: 0.7 * 0.5 / mass, ())
        assert result == evolution.RhoSearchResult(None, (), False, True, "flat")

    def test_negative_scale_is_scanned_by_its_magnitude(self):
        # F0 = rho^3 - rho < 0 on (0, 1]; |F0| peaks at 1/sqrt(3)
        peak = 1.0 / np.sqrt(3.0)
        result = evolution.optimal_rho(lambda rho: rho**3 - rho, (peak,))
        assert result == evolution.RhoSearchResult(peak, (peak,), False, False, "vertex")
        # F0 = rho - 2 rises while |F0| falls: the magnitude puts rho* at RHO_MIN
        result = evolution.optimal_rho(lambda rho: rho - 2.0, ())
        assert result == evolution.RhoSearchResult(0.05, (), True, False, "end")

    @pytest.mark.parametrize("vertex", [0.37, 0.6, 0.81])
    @pytest.mark.parametrize("rho_grid", [16, 64, 256])
    def test_quadratic_preset_finds_its_vertex(self, vertex, rho_grid):
        # rho_grid is accepted and unread: the vertex comes back exact
        config = rho_config(
            {"preset": "rho_quadratic", "vertex": vertex, "peak": 2.0}, rho_grid=rho_grid
        )
        payload = cooperation(config)
        assert payload["rho_star"] == vertex and payload["reason"] == "vertex"
        assert payload["stationary_points"] == (vertex,)

    def test_quadratic_vertex_is_exact_where_the_scan_stops_short(self):
        # the oracle's 1e-6 difference rounds to zero in a band around this
        # vertex; its bisection stops there, 1.3e-9 right of the vertex on
        # 64 nodes, and rounds that to 12 digits
        profit = {"preset": "rho_quadratic", "peak": 4.4187, "curvature": 0.031315,
                  "vertex": 0.75838811}
        payload, rho_to_scale, _ = cooperation_spied(rho_config(profit))
        assert payload["rho_star"] == 0.75838811
        scan = scan_optimal_rho(rho_to_scale)
        assert scan.rho_star == round(scan.rho_star, 12) != 0.75838811
        assert abs(scan.rho_star - 0.75838811) > 1e-9

    @pytest.mark.parametrize(
        "profit, calls",
        [
            ({"preset": "constant"}, 2),
            ({"preset": "region_power", "base": 0.5, "exponent": 2.0}, 2),
            ({"preset": "rho_quadratic", "vertex": 0.4}, 3),
            ({"preset": "rho_quadratic", "vertex": 0.02}, 2),
        ],
        ids=["constant", "region_power", "vertex", "vertex-outside"],
    )
    def test_cooperation_evaluates_the_scale_at_most_three_times(self, profit, calls):
        rhos = []
        real = evolution.optimal_rho

        def counted(rho_to_scale, *args, **kwargs):
            return real(lambda rho: rhos.append(rho) or rho_to_scale(rho), *args, **kwargs)

        with mock.patch.object(evolution, "optimal_rho", counted):
            cooperation(rho_config(profit, rho_grid=256))
        assert len(rhos) == calls and rhos[-2:] == [0.05, 1.0]

    @pytest.mark.parametrize(
        "metric", [{"preset": "flat"}, {"preset": "sphere", "radius": 1.3}], ids=["flat", "sphere"]
    )
    @pytest.mark.parametrize("rho", [evolution.RHO_MIN, 0.37, 1.0])
    def test_cooperation_f0_is_the_kernel_f0(self, metric, rho):
        # a firm whose strategy is the region it commits at rho (its coop_own)
        # has the same weight w in the kernel stage as the rho search gives it
        profit = {"preset": "region_power", "base": 0.3, "exponent": 1.7}
        firm = {"alpha_own": 0.4, "area": 2.5, "stubbornness": 1.3}
        config = rho_config(profit, firm, metric=metric)
        _, rho_to_scale, _ = cooperation_spied(config)
        region = effective_region(2.5, 0.4, rho)
        kernel_config = rho_config(profit, dict(firm, strategy=region, coop_own=rho), metric=metric)
        _, field, _, curv = pipeline.world(kernel_config)
        bracket = pipeline.action_terms(kernel_config, field, curv)
        _, spec, f0 = pipeline.kernel(kernel_config, bracket)
        assert rho_to_scale(rho) == f0 == float((bracket[0] / 11.0).mean())
        assert spec.effective_scale == abs(f0)

    @pytest.mark.parametrize(
        "mean_share, rho_star, ends",
        [(1.5, 0.05, (0.2539, 0.1464)), (2.0, 1.0, (-0.0355, -0.1430))],
    )
    def test_curvature_potential_flips_rho_star(self, mean_share, rho_star, ends):
        # on the unit sphere the potential Q R xbar lowers F0 by the same
        # amount at every rho; at xbar = 2 it turns F0 negative, where |F0|
        # grows as F0 falls, so the other end wins
        config = rho_config(
            {"preset": "region_power"},
            metric={"preset": "sphere", "radius": 1.0},
            kernel={"mean_share": mean_share},
        )
        payload, rho_to_scale, stationary = cooperation_spied(config)
        assert stationary == ()
        assert (payload["rho_star"], payload["reason"]) == (rho_star, "end")
        assert [rho_to_scale(r) for r in (0.05, 1.0)] == pytest.approx(ends, abs=1e-4)
        scan = scan_optimal_rho(rho_to_scale)
        assert (scan.rho_star, scan.reason) == (rho_star, "end")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scale_names_rho(self, bad):
        with pytest.raises(NumericalError, match=r"at rho = 0\.7"):
            self.scan(lambda rho: bad if rho > 0.7 else 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_scale_non_finite_only_at_one_names_rho_one(self, bad):
        with pytest.raises(NumericalError, match=rf"effective scale is {bad} at rho = 1\.0$"):
            evolution.optimal_rho(lambda rho: bad if rho == 1.0 else rho, (0.5,))

    def test_bracket_whose_finer_difference_keeps_its_sign(self):
        # |F0| = 10 - (x - v)^2 - (x - v)^3 peaks a quarter squared grid
        # step right of node a; the centered np.gradient (error -s^2 from
        # the cubic) turns negative at a already, so it brackets [a - s, a],
        # where the 1e-6 difference stays positive: the peak lies in the
        # next interval, [a, a + s], which is bisected instead
        rhos = np.linspace(0.05, 1.0, 32)
        s, a = rhos[1] - rhos[0], rhos[12]
        v = a + s**2 / 4.0
        result = self.scan(lambda x: 10.0 - (x - v) ** 2 - (x - v) ** 3)
        # within the band where rounding zeroes the 1e-6 difference
        assert abs(result.rho_star - v) <= 1e-9
        assert result.stationary_points == (result.rho_star,)

    def test_unresolved_turn_falls_back_to_the_nearer_node(self):
        # a ripple that vanishes at every node adds 4s to each 1e-6
        # difference there, unseen by np.gradient: the bracket [a, a + s]
        # around the peak at a + s/2 and the next one keep a positive
        # difference, so the node nearer the turn stands in, unbisected
        rhos = np.linspace(0.05, 1.0, 32)
        s, a = rhos[1] - rhos[0], rhos[12]
        ripple = 2.0 * s**2 / np.pi
        result = self.scan(
            lambda x: 10.0 - (x - a - s / 2) ** 2 + ripple * np.sin(2 * np.pi * (x - a) / s)
        )
        assert result.stationary_points == (round(rhos[14], 12),)
        assert result.rho_star == result.stationary_points[0]
        assert not result.boundary_flag

    def test_maxima_that_tie_around_a_dip_prefer_no_rho(self):
        # |F0| = 1 + 1e-11 (rho - 0.5)^2 is largest at the ends, which agree
        # within 1e-12: no candidate is preferred.  The oracle's range takes
        # in the dip at 0.5 too, so it picks the end that rounds larger.
        config = rho_config({"preset": "rho_quadratic", "peak": 1.0, "curvature": -1e-11,
                             "vertex": 0.5})
        payload, rho_to_scale, stationary = cooperation_spied(config)
        assert stationary == () and payload["reason"] == "flat"
        assert scan_optimal_rho(rho_to_scale).reason == "end"
        assert_scan_agrees(config)

    def test_zero_of_f0_is_not_a_maximum(self):
        # |F0| = |rho - 0.5| vanishes at 0.5 and is largest at the end 1
        result = evolution.optimal_rho(lambda rho: rho - 0.5, ())
        assert result == evolution.RhoSearchResult(1.0, (), True, False, "end")

    def test_end_beats_a_lower_interior_maximum(self):
        # |0.1 - 10 (rho - 0.6)^2| has its interior maximum 0.1 at 0.6 and
        # minima at the zeros 0.5 and 0.7, but is 2.925 at RHO_MIN
        result = evolution.optimal_rho(lambda rho: 0.1 - 10.0 * (rho - 0.6) ** 2, (0.6,))
        assert result == evolution.RhoSearchResult(0.05, (0.6,), True, False, "end")

    @pytest.mark.parametrize("vertex", [0.108461, 0.947])
    def test_peak_in_an_end_interval_is_bisected(self, vertex):
        # at grid 16 the nodes nearest the ends are 0.1133 and 0.9367
        result = self.scan(lambda rho: 2.0 - (rho - vertex) ** 2, grid=16)
        assert abs(result.rho_star - vertex) <= 1e-9
        assert result.stationary_points == (result.rho_star,)
        assert not result.boundary_flag

    @pytest.mark.parametrize("kind", RANDOM_SCALE_KINDS)
    def test_rho_star_is_the_largest_value_of_abs_f0(self, kind):
        # against a 10^6-point scan of |F0|, the oracle's rho* may fall
        # short by rounding only
        rng = np.random.default_rng(RANDOM_SCALE_KINDS.index(kind))
        fine = np.linspace(0.05, 1.0, 10**6)
        for _ in range(25):
            scale = random_scale(rng, kind)
            result = self.scan(scale, grid=64)
            assert abs(scale(result.rho_star)) >= np.abs(scale(fine)).max() * (1.0 - 1e-14)

    def test_small_grid_is_rejected(self):
        with pytest.raises(ValidationError):
            scan_optimal_rho(lambda rho: rho, grid=15)


@st.composite
def rho_scenarios(draw):
    """A valid scenario of any profit preset, the parts the cooperation
    stage reads drawn: negative stubbornness, ``alpha_own`` 0 and 1 and a
    zero curvature included."""
    number = st.floats(-1e6, 1e6)
    preset = draw(st.sampled_from(PROFIT_PRESETS))
    if preset == "constant":
        profit = {"value": draw(number)}
    elif preset == "region_power":
        profit = {"base": draw(st.floats(-10, 10)), "exponent": draw(st.floats(-4, 4))}
    else:
        profit = {
            "peak": draw(number),
            "curvature": draw(st.just(0.0) | number),
            "vertex": draw(st.floats(0, 1, exclude_min=True)),
        }
    firm = {
        "alpha_own": draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1)),
        "stubbornness": draw(st.floats(-100, 100)),
        "area": draw(st.none() | st.floats(0, 1e3)),
    }
    exponent = draw(st.floats(0, 1, exclude_min=True, exclude_max=True))
    return rho_config(
        dict(profit, preset=preset),
        firm,
        kernel={"freedom_exponent": exponent},
        rho_grid=draw(st.sampled_from([16, 64, 256])),
    )


def relative_spread(values):
    values = np.abs(values)
    return (values.max() - values.min()) / values.max()


def assert_scan_agrees(config):
    """The closed form of ``pipeline.cooperation`` against the oracle scan
    on the same map ``F0(rho)``: both fail, or they give the same ``rho*``
    and reason, or they differ in one of three explained ways."""
    closed, rho_to_scale, stationary = cooperation_spied(config)
    grid = config.data["rho_grid"]
    if isinstance(closed, NumericalError):
        with pytest.raises(NumericalError):
            scan_optimal_rho(rho_to_scale, grid)
        return
    scan = scan_optimal_rho(rho_to_scale, grid)
    if (closed["rho_star"], closed["reason"]) == (scan.rho_star, scan.reason):
        return
    candidates = [rho_to_scale(r) for r in stationary + (evolution.RHO_MIN, 1.0)]
    if (closed["reason"] == "flat") != (scan.reason == "flat"):
        nodes = [rho_to_scale(r) for r in np.linspace(evolution.RHO_MIN, 1.0, grid)]
        flat, uneven = (candidates, nodes) if scan.reason != "flat" else (nodes, candidates)
        assert relative_spread(flat) <= 1e-12
        if relative_spread(uneven) <= 2e-12:
            return  # (1) flatness decided within 1e-12 of the threshold
        # (2) the candidates tie within 1e-12, and the scan's range is set
        # by a lower interior node between them: |F0| dips there
        assert closed["reason"] == "flat"
        assert 0 < np.argmin(np.abs(nodes)) < grid - 1
        assert abs(rho_to_scale(scan.rho_star)) <= np.abs(candidates).max() * (1.0 + 1e-12)
        return
    # (3) neither is flat: the scan stops where its 1e-6 difference cannot
    # see the slope of F0, and rounds to 12 digits
    best = abs(rho_to_scale(closed["rho_star"]))
    found = abs(rho_to_scale(scan.rho_star))
    profit = config.data["profit"]
    if profit["preset"] == "rho_quadratic":
        # the difference 4 c 1e-6 (rho - vertex) is lost in the rounding of
        # F0 near the vertex, or anywhere at a small enough curvature
        peak, curvature = abs(profit["peak"]), abs(profit["curvature"])
        off = abs(scan.rho_star - profit["vertex"]) - 5e-13
        assert curvature * 1e-6 * off <= 8.0 * math.ulp(peak + curvature)
        assert best >= found
    else:
        # a stretch where the monotone |F0| is constant to rounding
        assert abs(best - found) <= 4.0 * math.ulp(best)


@settings(max_examples=300, deadline=None)
@given(rho_scenarios())
def test_closed_form_agrees_with_the_scan(config):
    assert_scan_agrees(config)
