"""Kernel mass check and Crank-Nicolson evolution against independent oracles."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy import special

from semicoop import NumericalError, ValidationError, evolution, fieldio, geometry, pipeline
from semicoop.grids import GridSpec
from semicoop.scenario import parse_scenario


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
        return pipeline.kernel(config, *pipeline.action_terms(config, metric, curv))[0]

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
    # the benchmark's evolve cost rests on the closed form; a change that
    # breaks the exact test on the metric values (say, rounding in a file
    # round trip) must fail here rather than slow the benchmark silently
    def no_lu(*args, **kwargs):
        raise AssertionError("the LU path was taken")

    monkeypatch.setattr(evolution, "laplace_operator_matrix", no_lu)
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


class TestOptimalRho:
    def search(self, effective_scale, factor=1.0, grid=32):
        return evolution.optimal_rho(lambda rho: factor * effective_scale(rho), grid=grid)

    def test_rho_star_does_not_depend_on_the_mass(self):
        # the evolution rate is |F0(rho)| / (2 mass) times ||Lap psi||: the
        # mass, psi and the metric only multiply F0 by a positive constant,
        # which must decide neither flatness nor rho*
        peaked = lambda rho: 1.0 - (rho - 0.6) ** 2  # noqa: E731
        reference = self.search(peaked)
        assert reference.rho_star == pytest.approx(0.6, abs=1e-10)
        assert not reference.boundary_flag
        for factor in 10.0 ** np.arange(-6, 17):
            result = self.search(peaked, float(factor))
            assert not result.degenerate_flag
            assert result.rho_star == reference.rho_star
            assert result.stationary_points == reference.stationary_points

    @pytest.mark.parametrize("vertex, curvature", [(0.23, 0.4), (0.71, 3.7), (0.88, 0.15)])
    def test_rescaling_moves_rho_star_by_rounding_only(self, vertex, curvature):
        # bisection reads signs only; a scale can widen the band around the
        # vertex where the 1e-6 difference rounds to zero, and no more
        peaked = lambda rho: 2.0 - curvature * (rho - vertex) ** 2  # noqa: E731
        reference = self.search(peaked, grid=64)
        assert abs(reference.rho_star - vertex) <= 1e-9
        for factor in [1e-200, 1e-6, 3.7e-3, 0.9, 41.0, 1e9, 1e16, 1e200]:
            result = self.search(peaked, factor, grid=64)
            assert abs(result.rho_star - reference.rho_star) <= 1e-9
            assert len(result.stationary_points) == 1

    @pytest.mark.parametrize("mass", [1e-6, 1.0, 1e16])
    def test_constant_scale_is_degenerate_at_any_mass(self, mass):
        result = self.search(lambda rho: 0.7, 0.5 / mass)
        assert result.degenerate_flag and result.rho_star is None

    def test_negative_scale_is_scanned_by_its_magnitude(self):
        # F0 = rho^3 - rho < 0 on (0, 1]; |F0| peaks at 1/sqrt(3)
        result = self.search(lambda rho: rho**3 - rho)
        assert result.rho_star == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-10)
        assert result.stationary_points == (round(result.rho_star, 12),)
        assert not (result.boundary_flag or result.degenerate_flag)
        # F0 = rho - 2 rises while |F0| falls: the magnitude puts rho* at RHO_MIN
        result = self.search(lambda rho: rho - 2.0)
        assert result.boundary_flag and result.rho_star == 0.05
        assert result.stationary_points == ()

    @pytest.mark.parametrize("vertex", [0.37, 0.6, 0.81])
    @pytest.mark.parametrize("rho_grid", [16, 64, 256])
    def test_quadratic_preset_finds_its_vertex(self, vertex, rho_grid):
        config = parse_scenario(
            {
                "grid": {"time": [0, 1, 3], "sigma1": [0.5, 2.5, 9], "sigma2": [0, 1, 9]},
                "metric": {"preset": "flat"},
                "firms": [
                    {"share": [0.3, 1.0, 0.5], "strategy": 0.2, "alpha_own": 0.5,
                     "alpha_other": 0.5, "coop_own": 0.5, "coop_other": 0.5}
                ],
                "profit": {"preset": "rho_quadratic", "vertex": vertex, "peak": 2.0},
                "rho_grid": rho_grid,
            }
        )
        payload = pipeline.cooperation(config)
        assert abs(payload["rho_star"] - vertex) <= 1e-10
        assert payload["stationary_points"] == (payload["rho_star"],)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scale_names_rho(self, bad):
        with pytest.raises(NumericalError, match=r"at rho = 0\.7"):
            self.search(lambda rho: bad if rho > 0.7 else 1.0)

    def test_bracket_whose_finer_difference_keeps_its_sign(self):
        # |F0| = 10 - (x - v)^2 - (x - v)^3 peaks a quarter squared grid
        # step right of node a; the centered np.gradient (error -s^2 from
        # the cubic) turns negative at a already, so it brackets [a - s, a],
        # where the 1e-6 difference stays positive: the peak lies in the
        # next interval, [a, a + s], which is bisected instead
        rhos = np.linspace(0.05, 1.0, 32)
        s, a = rhos[1] - rhos[0], rhos[12]
        v = a + s**2 / 4.0
        result = self.search(lambda x: 10.0 - (x - v) ** 2 - (x - v) ** 3)
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
        result = self.search(
            lambda x: 10.0 - (x - a - s / 2) ** 2 + ripple * np.sin(2 * np.pi * (x - a) / s)
        )
        assert result.stationary_points == (round(rhos[14], 12),)
        assert result.rho_star == result.stationary_points[0]
        assert not result.boundary_flag

    def test_zero_of_f0_is_not_a_maximum(self):
        # |F0| = |rho - 0.5| vanishes at 0.5 and is largest at the end 1
        result = self.search(lambda rho: rho - 0.5)
        assert result.rho_star == 1.0 and result.boundary_flag
        assert result.stationary_points == ()

    def test_end_beats_a_lower_interior_maximum(self):
        # |0.1 - 10 (rho - 0.6)^2| has its interior maximum 0.1 at 0.6 and
        # minima at the zeros 0.5 and 0.7, but is 2.925 at RHO_MIN
        result = self.search(lambda rho: 0.1 - 10.0 * (rho - 0.6) ** 2)
        assert result.rho_star == 0.05 and result.boundary_flag
        assert len(result.stationary_points) == 1
        assert abs(result.stationary_points[0] - 0.6) <= 1e-10

    @pytest.mark.parametrize("vertex", [0.108461, 0.947])
    def test_peak_in_an_end_interval_is_bisected(self, vertex):
        # at grid 16 the nodes nearest the ends are 0.1133 and 0.9367
        result = self.search(lambda rho: 2.0 - (rho - vertex) ** 2, grid=16)
        assert abs(result.rho_star - vertex) <= 1e-9
        assert result.stationary_points == (result.rho_star,)
        assert not result.boundary_flag

    @pytest.mark.parametrize("kind", RANDOM_SCALE_KINDS)
    def test_rho_star_is_the_largest_value_of_abs_f0(self, kind):
        # against a 10^6-point scan of |F0|, rho* may fall short by rounding only
        rng = np.random.default_rng(RANDOM_SCALE_KINDS.index(kind))
        fine = np.linspace(0.05, 1.0, 10**6)
        for _ in range(25):
            scale = random_scale(rng, kind)
            result = self.search(scale, grid=64)
            assert abs(scale(result.rho_star)) >= np.abs(scale(fine)).max() * (1.0 - 1e-14)

    def test_small_grid_is_rejected(self):
        with pytest.raises(ValidationError):
            evolution.optimal_rho(lambda rho: rho, grid=15)
