"""Kernel mass check and Crank-Nicolson evolution against independent oracles."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy import special

from semicoop import ValidationError, evolution, geometry
from semicoop.grids import GridSpec


def tensor_quadrature_deviation(spec, sample_count):
    """The kernel check done as a full 3-D Gauss-Legendre tensor product of
    the normalized Gaussian density, on the same panels."""
    cov = spec.covariance()
    prec = np.linalg.inv(cov)
    norm = 1.0 / np.sqrt((2.0 * np.pi) ** 3 * np.linalg.det(cov))
    a = spec.domain_halfwidth
    sigma_max = float(np.sqrt(np.linalg.eigvalsh(cov).max()))
    x, w = evolution._panel_nodes(-a, a, [-7.0 * sigma_max, 7.0 * sigma_max], sample_count)
    xi = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1)
    density = norm * np.exp(-0.5 * np.einsum("...a,ab,...b->...", xi, prec, xi))
    return abs(float(np.einsum("i,j,k,ijk->", w, w, w, density)) - 1.0)


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

    def test_leak_vanishes_as_mass_grows(self):
        deviations = [
            evolution.kernel_normalization_check(
                evolution.KernelSpec(mass=m, step=0.05, effective_scale=1.0), 48
            )
            for m in (1.0, 3.0, 10.0)
        ]
        assert deviations[0] > deviations[1] > deviations[2]

    def test_lorentzian_mode_is_rejected(self):
        spec = evolution.KernelSpec(
            mass=1.0, step=0.05, effective_scale=1.0, mode=evolution.LORENTZIAN
        )
        with pytest.raises(ValidationError):
            evolution.kernel_normalization_check(spec)


def strategy_slice(metric_of, n):
    """A two-axis ``n x n`` strategy grid, its metric and Christoffel field."""
    grid = GridSpec.from_axes((0.5, 2.5, n), (0.0, 1.0, n))
    metric = metric_of(grid)
    return grid, metric, geometry.christoffel(metric)


def two_matrix_steps(psi, spec, metric, chris, steps):
    """Crank-Nicolson as ``B x' = F x`` with both matrices built."""
    lap = geometry.laplace_operator_matrix(metric, chris)
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


SPEC = evolution.KernelSpec(mass=1e4, step=0.005, effective_scale=0.6)


class TestEvolve:
    def test_one_solve_step_matches_two_matrix_form(self):
        grid, metric, chris = strategy_slice(geometry.sphere_metric, 33)
        psi0 = evolution.gaussian_packet(grid, 0.15)
        psi = evolution.evolve(psi0, SPEC, metric, chris, 200)
        expected = two_matrix_steps(psi0, SPEC, metric, chris, 200)
        assert np.abs(psi.values - expected).max() <= 1e-12
        assert psi.time == pytest.approx(200 * SPEC.step)

    def test_norm_conserved_on_flat_metric(self):
        grid, metric, chris = strategy_slice(geometry.flat_metric, 33)
        psi0 = evolution.gaussian_packet(grid, 0.15, wavevector=(3.0, -2.0))
        spec = evolution.KernelSpec(mass=1.0, step=5e-4, effective_scale=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", evolution.AccuracyWarning)
            psi = evolution.evolve(psi0, spec, metric, chris, 200)
        assert abs(psi.norm() - psi0.norm()) <= 1e-12

    def test_large_quality_factor_warns(self):
        grid, metric, chris = strategy_slice(geometry.flat_metric, 9)
        psi0 = evolution.gaussian_packet(grid, 0.15)
        spec = evolution.KernelSpec(mass=1.0, step=1.0, effective_scale=1.0)
        with pytest.warns(evolution.AccuracyWarning):
            evolution.evolve(psi0, spec, metric, chris, 1)

    def test_small_quality_factor_is_silent(self):
        grid, metric, chris = strategy_slice(geometry.flat_metric, 9)
        psi0 = evolution.gaussian_packet(grid, 0.15)
        with warnings.catch_warnings():
            warnings.simplefilter("error", evolution.AccuracyWarning)
            evolution.evolve(psi0, SPEC, metric, chris, 1)

    def test_zero_steps_returns_a_copy(self):
        grid, metric, chris = strategy_slice(geometry.flat_metric, 9)
        psi0 = evolution.gaussian_packet(grid, 0.15)
        psi = evolution.evolve(psi0, SPEC, metric, chris, 0)
        assert np.array_equal(psi.values, psi0.values)
        assert psi.time == psi0.time
        assert not np.shares_memory(psi.values, psi0.values)

    def test_negative_steps_are_rejected(self):
        grid, metric, chris = strategy_slice(geometry.flat_metric, 9)
        psi0 = evolution.gaussian_packet(grid, 0.15)
        with pytest.raises(ValidationError):
            evolution.evolve(psi0, SPEC, metric, chris, -1)
