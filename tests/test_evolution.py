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


def tensor_quadrature_deviation(spec, sample_count):
    """The kernel check done as a full 3-D Gauss-Legendre tensor product of
    the normalized Gaussian density, on the same panels."""
    cov = spec.covariance()
    prec = np.linalg.inv(cov)
    norm = 1.0 / np.sqrt((2.0 * np.pi) ** 3 * np.linalg.det(cov))
    a = spec.domain_halfwidth
    breaks = np.array([-9.0, -7.0, 7.0, 9.0])  # marginal standard deviations
    (x0, w0), (x1, w1), (x2, w2) = (
        evolution._panel_nodes(-a, a, np.sqrt(cov[k, k]) * breaks, sample_count)
        for k in range(3)
    )
    plane = np.stack(np.meshgrid(x1, x2, indexing="ij"), axis=-1)
    plane_quad = np.einsum("...a,ab,...b->...", plane, prec[1:, 1:], plane)
    plane_cross = 2.0 * plane @ prec[0, 1:]
    total = 0.0
    for x, w in zip(x0, w0):  # one plane at a time keeps the memory small
        density = norm * np.exp(-0.5 * (prec[0, 0] * x * x + x * plane_cross + plane_quad))
        total += w * float(w1 @ density @ w2)
    return abs(total - 1.0)


def random_spd(rng):
    """Full 3x3 SPD matrix with eigenvalues in [0.5, 2]."""
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return q @ np.diag(rng.uniform(0.5, 2.0, 3)) @ q.T


class TestKernelNormalization:
    @pytest.mark.parametrize("scales", [(0.6, 1.0, 1.7), (1.7, 1.0, 0.6)])
    @pytest.mark.parametrize("mass", [3.0, 30.0, 300.0, 1e4])
    def test_diagonal_covariance_matches_erf_product(self, mass, scales):
        spec = evolution.KernelSpec(
            mass=mass, step=0.05, effective_scale=1.3, background_inverse=np.diag(scales)
        )
        # 96 nodes per panel resolve the narrowest axis to rounding
        sigma = np.sqrt(np.diag(spec.covariance()))
        inside = np.prod(special.erf(spec.domain_halfwidth / (np.sqrt(2.0) * sigma)))
        assert evolution.kernel_normalization_check(spec, 96) == pytest.approx(
            1.0 - inside, rel=0, abs=1e-14
        )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("mass", [3.0, 30.0])
    def test_full_covariance_matches_tensor_quadrature(self, mass, seed):
        spec = evolution.KernelSpec(
            mass=mass,
            step=0.05,
            effective_scale=1.3,
            background_inverse=random_spd(np.random.default_rng(seed)),
        )
        expected = tensor_quadrature_deviation(spec, 40)
        assert abs(evolution.kernel_normalization_check(spec, 40) - expected) <= 1e-13

    @pytest.mark.parametrize(
        "samples,covariance", [(48, "diagonal"), (64, "diagonal"), (96, "diagonal"),
                               (64, "full"), (96, "full")]
    )
    @pytest.mark.parametrize("mass", [1e3, 1e4, 1e6])
    def test_gaussian_inside_the_box_reports_no_leak(self, mass, samples, covariance):
        # sigma is at most 0.02 against a unit half-width, so the true leak
        # is below 1e-300; the tails beyond 7 sigma must not read as leak
        background = (
            np.diag([0.6, 1.0, 1.7]) if covariance == "diagonal"
            else random_spd(np.random.default_rng(7))
        )
        spec = evolution.KernelSpec(
            mass=mass, step=0.05, effective_scale=1.3, background_inverse=background
        )
        assert evolution.kernel_normalization_check(spec, samples) <= 1e-14

    def test_leak_vanishes_as_mass_grows(self):
        deviations = [
            evolution.kernel_normalization_check(
                evolution.KernelSpec(mass=m, step=0.05, effective_scale=1.0), 48
            )
            for m in (1.0, 3.0, 10.0)
        ]
        assert deviations[0] > deviations[1] > deviations[2]

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("mode", [evolution.WICK, evolution.LORENTZIAN])
    def test_non_finite_scale_is_listed_with_the_other_problems(self, scale, mode):
        with pytest.raises(ValidationError) as info:
            evolution.KernelSpec(mass=0.0, step=0.05, effective_scale=scale, mode=mode)
        assert info.value.problems == ["mass must be positive", "effective scale must be finite"]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_covariance_is_a_numerical_error(self):
        # each factor is valid; their product (step / mass) F0 is not finite
        with pytest.raises(NumericalError, match="overflows"):
            evolution.KernelSpec(mass=1e-300, step=1e300, effective_scale=1.0)
        evolution.KernelSpec(
            mass=1e-300, step=1e300, effective_scale=1.0, mode=evolution.LORENTZIAN
        )

    def test_lorentzian_mode_is_rejected(self):
        spec = evolution.KernelSpec(
            mass=1.0, step=0.05, effective_scale=1.0, mode=evolution.LORENTZIAN
        )
        with pytest.raises(ValidationError):
            evolution.kernel_normalization_check(spec)


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

    def test_mode_path_matches_two_matrix_form(self, mode_calls):
        grid, metric = strategy_slice(geometry.sphere_metric, 33)
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
        psi0 = evolution.gaussian_packet(grid, 0.15, wavevector=(2.0, -1.0))
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
        psi0 = evolution.gaussian_packet(grid, 0.15, wavevector=(3.0, -2.0))
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
        psi0 = evolution.gaussian_packet(grid, 0.15, wavevector=(3.0, -2.0))
        psi = evolution.evolve(psi0, UNIT_SPEC, metric, 50)
        assert not mode_calls
        expected = two_matrix_steps(psi0, UNIT_SPEC, metric, 50)
        assert np.abs(psi.values - expected).max() <= 1e-12

    def test_norm_conserved_on_flat_metric(self):
        grid, metric = strategy_slice(geometry.flat_metric, 33)
        psi0 = evolution.gaussian_packet(grid, 0.15, wavevector=(3.0, -2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", evolution.AccuracyWarning)
            psi = evolution.evolve(psi0, UNIT_SPEC, metric, 200)
        assert abs(psi.norm() - psi0.norm()) <= 1e-12

    @pytest.mark.parametrize("metric_of", [geometry.flat_metric, sheared_sphere])
    def test_non_finite_scale_is_a_numerical_error(self, metric_of):
        grid, metric = strategy_slice(metric_of, 9)
        psi0 = evolution.gaussian_packet(grid, 0.15)
        spec = evolution.KernelSpec(
            mass=1.0, step=1e-3, effective_scale=1.0, mode=evolution.LORENTZIAN
        )
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
        grid, metric = strategy_slice(lambda g: geometry.flat_metric(g, dim=3), 9)
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
        # F0 = rho - 2 rises while |F0| falls: the magnitude puts rho* at rho_min
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
        # where the 1e-6 difference stays positive and bisection has no
        # sign change to work on: the node nearer the peak stands in
        rhos = np.linspace(0.05, 1.0, 32)
        s, a = rhos[1] - rhos[0], rhos[12]
        v = a + s**2 / 4.0
        result = self.search(lambda x: 10.0 - (x - v) ** 2 - (x - v) ** 3)
        assert result.stationary_points == (round(a, 12),)
        assert abs(result.rho_star - v) <= s**2

    def test_small_grid_and_rho_min_are_rejected(self):
        with pytest.raises(ValidationError):
            evolution.optimal_rho(lambda rho: rho, grid=15)
        with pytest.raises(ValidationError):
            evolution.optimal_rho(lambda rho: rho, rho_min=1.0)
