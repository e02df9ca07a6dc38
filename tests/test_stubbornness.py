import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from semicoop import RangeOverflowError, ValidationError
from semicoop.geometry import combined_metric, curvature, flat_metric
from semicoop.grids import GridSpec
from semicoop.stubbornness import (
    BROWNIAN_SURFACE_GAMMA,
    GFF_ENERGY_SCALE,
    GFFSampler,
    regime_note,
    stubbornness_measure,
)


def dirichlet_laplacian(grid_size, domain_length=1.0):
    """Sparse five-point (negative) Laplacian on interior nodes."""
    m = grid_size - 2
    h = float(domain_length) / (grid_size - 1)
    one = sp.diags(
        [np.full(m - 1, -1.0), np.full(m, 2.0), np.full(m - 1, -1.0)], [-1, 0, 1]
    )
    eye = sp.identity(m)
    return (sp.kron(one, eye) + sp.kron(eye, one)).tocsc() / h**2


def green_function_column(grid_size, node, domain_length=1.0):
    """Green's function of the discrete Laplacian for one interior source
    ``node`` (multi-index on the full grid): the matrix-inverse column by
    sparse LU, embedded in the full grid with zeros on the boundary."""
    n = grid_size
    m = n - 2
    i, j = node
    assert 1 <= i <= m and 1 <= j <= m, "source node must be interior"
    rhs = np.zeros(m * m)
    rhs[(i - 1) * m + (j - 1)] = 1.0
    col = spla.spsolve(dirichlet_laplacian(n, domain_length), rhs)
    full = np.zeros((n, n))
    full[1:-1, 1:-1] = col.reshape(m, m)
    return full


def covariance_between(grid_size, node_a, node_b, domain_length=1.0):
    """Model covariance ``2*pi * G(a, b)`` of the sampled field."""
    g = green_function_column(grid_size, node_a, domain_length)
    return GFF_ENERGY_SCALE * g[node_b[0], node_b[1]]


class TestSampler:
    def test_seed_determinism(self):
        assert np.array_equal(GFFSampler(16, 7).sample(), GFFSampler(16, 7).sample())

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(GFFSampler(16, 7).sample(), GFFSampler(16, 8).sample())

    def test_dirichlet_boundary_exact(self):
        field = GFFSampler(12, 3).sample()
        assert np.abs(field[0]).max() == 0.0
        assert np.abs(field[-1]).max() == 0.0
        assert np.abs(field[:, 0]).max() == 0.0
        assert np.abs(field[:, -1]).max() == 0.0

    def test_minimum_size(self):
        with pytest.raises(ValidationError):
            GFFSampler(3, 0)

    def test_mean_zero(self):
        sampler = GFFSampler(12, seed=21)
        batch = sampler.sample_batch(10000)
        node = batch[:, 5, 6]
        assert abs(node.mean()) < 4.0 * node.std() / 100.0

    def test_covariance_matches_poisson_oracle(self):
        sampler = GFFSampler(16, seed=123)
        batch = sampler.sample_batch(30000)
        pairs = [((5, 6), (9, 11)), ((3, 3), (3, 4))]
        for a, b in pairs:
            est = np.cov(batch[:, a[0], a[1]], batch[:, b[0], b[1]])[0, 1]
            model = covariance_between(16, a, b)
            var_a = covariance_between(16, a, a)
            var_b = covariance_between(16, b, b)
            se = np.sqrt((var_a * var_b + model**2) / (batch.shape[0] - 1))
            assert abs(est - model) < 3.0 * se

    def test_green_function_symmetric(self):
        a, b = (4, 5), (8, 3)
        ga = green_function_column(16, a)[b[0], b[1]]
        gb = green_function_column(16, b)[a[0], a[1]]
        assert np.isclose(ga, gb, rtol=1e-10)


def conformal_factor(field, gamma):
    """The per-node weight ``exp(gamma * b)`` that ``combined_metric``
    puts on the Einstein tensor, read off an off-diagonal entry: with an
    all-ones tensor on a diagonal flat background that entry is exactly
    the weight."""
    field = np.asarray(field, dtype=float)
    grid = GridSpec.from_axes(*[(0.0, 1.0, n) for n in field.shape])
    flat = flat_metric(grid)
    bundle = curvature(flat)
    bundle = dataclasses.replace(bundle, einstein=np.ones(bundle.einstein.shape))
    return combined_metric(bundle, field, gamma).values[..., 0, 1]


class TestConformalFactor:
    def test_zero_field_gives_unit(self):
        assert np.array_equal(conformal_factor(np.zeros((4, 4)), 1.0), np.ones((4, 4)))

    def test_small_gamma_uniform_limit(self):
        field = np.random.default_rng(0).uniform(-5, 5, (6, 6))
        factor = conformal_factor(field, 1e-12)
        assert np.abs(factor - 1.0).max() < 1e-10

    def test_single_node_value(self):
        field = np.zeros((3, 3))
        field[1, 1] = 1.0
        factor = conformal_factor(field, 1.0)
        assert np.isclose(factor[1, 1], np.e)
        assert np.count_nonzero(factor != 1.0) == 1

    def test_positive_everywhere(self):
        field = np.random.default_rng(1).standard_normal((8, 8)) * 10
        assert (conformal_factor(field, 1.5) > 0).all()

    def test_overflow_reports_node(self):
        field = np.zeros((4, 4))
        field[2, 1] = 800.0
        with pytest.raises(RangeOverflowError) as err:
            conformal_factor(field, 1.0)
        assert err.value.node == (2, 1)

    def test_gamma_domain(self):
        for gamma in (0.0, float("nan"), np.nextafter(2.0, 3.0)):
            with pytest.raises(ValidationError):
                conformal_factor(np.zeros((3, 3)), gamma)
        assert np.allclose(conformal_factor(np.ones((3, 3)), 2.0), np.exp(2.0), rtol=1e-15)


class TestStubbornnessMeasure:
    def test_rigid_limit(self):
        assert stubbornness_measure(2.0) == 2.0

    def test_flexible_blowup(self):
        assert stubbornness_measure(1e-6) > 1e6

    def test_brownian_surface_value(self):
        g = BROWNIAN_SURFACE_GAMMA
        assert np.isclose(stubbornness_measure(g), 2.0 / g + g / 2.0, rtol=1e-15)
        assert regime_note(g) == "brownian-surface"

    def test_minimum_at_top_of_range(self):
        grid = np.linspace(0.01, 2.0, 500)
        values = [stubbornness_measure(g) for g in grid]
        assert np.argmin(values) == len(grid) - 1
        assert min(values) == 2.0

    def test_strictly_decreasing(self):
        grid = np.linspace(0.05, 2.0, 200)
        values = np.array([stubbornness_measure(g) for g in grid])
        assert np.all(np.diff(values) < 0.0)

    @pytest.mark.parametrize("gamma", [0.0, -0.3, 2.0001, 5.0])
    def test_domain_enforced(self, gamma):
        with pytest.raises(ValidationError):
            stubbornness_measure(gamma)
