import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from semicoop import (
    GridMismatchError,
    GridSpec,
    RangeOverflowError,
    SingularMetricError,
    ValidationError,
)
from semicoop import geometry as geo


def sphere_setup(n_theta, theta_lo=0.5, n_phi=9):
    grid = GridSpec.from_axes((theta_lo, np.pi - theta_lo, n_theta), (0.0, 1.0, n_phi))
    metric = geo.sphere_metric(grid)
    return grid, metric


def sheared_sphere_metric(n_theta=21, n_phi=17):
    """Varying metric with an off-diagonal entry at every node."""
    grid = GridSpec.from_axes((0.5, 2.5, n_theta), (0.0, 1.0, n_phi))
    theta, phi = grid.meshgrid()
    values = np.zeros(grid.shape + (2, 2))
    values[..., 0, 0] = 1.0 + 0.3 * phi**2
    values[..., 1, 1] = np.sin(theta) ** 2 * (1.0 + 0.2 * np.cos(3.0 * phi))
    values[..., 0, 1] = values[..., 1, 0] = 0.25 * np.sin(theta) * np.cos(phi)
    return geo.MetricField(values, grid)


def random_smooth_metric(seed=3):
    """Smooth positive-definite 3x3 field: identity plus small random
    sinusoids in every component, symmetric by construction."""
    grid = GridSpec.from_axes((0.0, 1.0, 9), (0.5, 2.5, 13), (0.0, 1.0, 11))
    x = grid.meshgrid()
    rng = np.random.default_rng(seed)
    values = np.zeros(grid.shape + (3, 3))
    for i in range(3):
        for j in range(i, 3):
            amp, freq, phase = rng.uniform(0.05, 0.2), rng.uniform(0.5, 2.0, 3), rng.uniform(0, 6, 3)
            entry = amp * np.prod([np.sin(f * xk + p) for f, xk, p in zip(freq, x, phase)], axis=0)
            values[..., i, j] = values[..., j, i] = entry + (1.0 if i == j else 0.0)
    return geo.MetricField(values, grid)


CURVED_METRICS = {
    "sphere": lambda: sphere_setup(41)[1],
    "sheared": sheared_sphere_metric,
    "random3d": random_smooth_metric,
}


def rank4_curvature(metric, chris):
    """Oracle: the full Riemann tensor ``R^a_{bcd} = d_c gamma^a_{db}
    - d_d gamma^a_{cb} + gamma^a_{ce} gamma^e_{db} - gamma^a_{de}
    gamma^e_{cb}`` per node, and Ricci, scalar and Einstein contracted
    from it."""
    grid = metric.grid
    d = metric.dim
    g = chris.values
    dg = [geo.first_derivative(g, grid.spacing(k), axis=k) for k in range(d)]
    riemann = np.empty(grid.shape + (d, d, d, d))
    gg = np.einsum("...ace,...edb->...abcd", g, g)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    riemann[..., a, b, c, e] = dg[c][..., a, e, b] - dg[e][..., a, c, b]
    riemann += gg - np.swapaxes(gg, -1, -2)
    ricci = np.einsum("...abad->...bd", riemann)
    scalar = np.einsum("...bd,...bd->...", metric.inverse, ricci)
    einstein = ricci - 0.5 * scalar[..., None, None] * metric.values
    return riemann, ricci, scalar, einstein


def loop_christoffel(metric):
    """Oracle: the bracket written one component at a time, with the
    derivative along an axis where the metric is constant set to zero."""
    grid, d = metric.grid, metric.dim
    h = metric.values
    dh = [
        np.zeros_like(h) if np.all(h == h.take([0], axis=k))
        else geo.first_derivative(h, grid.spacing(k), axis=k)
        for k in range(d)
    ]
    t = np.empty(grid.shape + (d, d, d))
    for dd in range(d):
        for b in range(d):
            for c in range(d):
                t[..., dd, b, c] = dh[b][..., dd, c] + dh[c][..., dd, b] - dh[dd][..., b, c]
    return 0.5 * np.einsum("...ad,...dbc->...abc", metric.inverse, t)


def loop_lu_determinants(matrices):
    """Oracle: node-major partial-pivot LU with fancy-indexed row swaps."""
    a = np.array(matrices, dtype=float, copy=True)
    batch_shape = a.shape[:-2]
    d = a.shape[-1]
    a = a.reshape(-1, d, d)
    m = a.shape[0]
    det = np.ones(m)
    min_pivot = np.full(m, np.inf)
    rows = np.arange(m)
    for k in range(d):
        piv = np.argmax(np.abs(a[:, k:, k]), axis=1) + k
        swapped = piv != k
        det[swapped] = -det[swapped]
        tmp = a[rows, piv].copy()
        a[rows, piv] = a[:, k]
        a[:, k] = tmp
        pk = a[:, k, k]
        min_pivot = np.minimum(min_pivot, np.abs(pk))
        det = det * pk
        if k + 1 < d:
            with np.errstate(divide="ignore", invalid="ignore"):
                mult = a[:, k + 1 :, k] / pk[:, None]
            mult[~np.isfinite(mult)] = 0.0
            a[:, k + 1 :, k:] -= mult[:, :, None] * a[:, None, k, k:]
    return det.reshape(batch_shape), min_pivot.reshape(batch_shape)


def sphere_exact_gamma(grid):
    theta = grid.meshgrid()[0]
    exact = np.zeros(grid.shape + (2, 2, 2))
    exact[..., 0, 1, 1] = -np.sin(theta) * np.cos(theta)
    exact[..., 1, 0, 1] = exact[..., 1, 1, 0] = np.cos(theta) / np.sin(theta)
    return exact


class TestChristoffel:
    def test_flat_metric_zero(self):
        grid = GridSpec.from_axes((0, 1, 6), (0, 1, 6), (0, 1, 6))
        chris = geo.christoffel(geo.flat_metric(grid))
        assert np.abs(chris.values).max() == 0.0

    def test_sphere_oracle(self):
        grid, metric = sphere_setup(81)
        chris = geo.christoffel(metric)
        err = np.abs(chris.values - sphere_exact_gamma(grid))
        assert err[2:-2, 2:-2].max() < 1e-3

    def test_second_order_convergence(self):
        errors = []
        for n in (41, 81):
            grid, metric = sphere_setup(n)
            chris = geo.christoffel(metric)
            theta = grid.meshgrid()[0]
            window = (theta >= 0.75) & (theta <= np.pi - 0.75)
            errors.append(np.abs(chris.values - sphere_exact_gamma(grid))[window].max())
        assert 3.5 < errors[0] / errors[1] < 4.5

    def test_scale_invariance_exact(self):
        # powers of two rescale every intermediate exactly
        grid, metric = sphere_setup(21)
        base = geo.christoffel(metric)
        scaled = geo.christoffel(geo.MetricField(metric.values * 4.0, grid))
        assert np.array_equal(base.values, scaled.values)

    def test_lower_index_symmetry_exact(self):
        grid, metric = sphere_setup(21)
        gamma = geo.christoffel(metric).values
        assert np.array_equal(gamma, np.swapaxes(gamma, -1, -2))

    @pytest.mark.parametrize("name", sorted(CURVED_METRICS))
    def test_matches_component_loop(self, name):
        metric = CURVED_METRICS[name]()
        got = geo.christoffel(metric).values
        expected = loop_christoffel(metric)
        if name == "sphere":
            # a diagonal inverse adds exact zeros in any order
            assert np.array_equal(got, expected)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_rejects_asymmetric_metric(self):
        grid = GridSpec.from_axes((0, 1, 4), (0, 1, 4))
        values = np.zeros(grid.shape + (2, 2))
        values[...] = np.eye(2)
        values[..., 0, 1] = 0.3
        with pytest.raises(ValidationError):
            geo.MetricField(values, grid)

    def test_singular_node_reported(self):
        grid = GridSpec.from_axes((0, 1, 4), (0, 1, 4))
        values = np.zeros(grid.shape + (2, 2))
        values[...] = np.eye(2)
        values[1, 2] = 0.0
        with pytest.raises(SingularMetricError) as err:
            geo.MetricField(values, grid)
        assert err.value.node == (1, 2)

    def test_grid_mismatch_rejected(self):
        grid_a = GridSpec.from_axes((0, 1, 4), (0, 1, 4))
        grid_b = GridSpec.from_axes((0, 2, 4), (0, 1, 4))
        chris_b = geo.christoffel(geo.flat_metric(grid_b))
        with pytest.raises(GridMismatchError):
            geo.curvature(geo.flat_metric(grid_a), chris_b)


class TestCurvature:
    def test_flat_zero(self):
        grid = GridSpec.from_axes((0, 1, 6), (0, 1, 6), (0, 1, 6))
        metric = geo.flat_metric(grid)
        chris = geo.christoffel(metric)
        bundle = geo.curvature(metric, chris)
        assert np.abs(rank4_curvature(metric, chris)[0]).max() < 1e-12
        assert np.abs(bundle.ricci).max() < 1e-12
        assert np.abs(bundle.scalar).max() < 1e-12

    @pytest.mark.parametrize("name", sorted(CURVED_METRICS))
    def test_direct_ricci_matches_rank4_contraction(self, name):
        metric = CURVED_METRICS[name]()
        chris = geo.christoffel(metric)
        bundle = geo.curvature(metric, chris)
        _, ricci, scalar, einstein = rank4_curvature(metric, chris)
        for got, expected in ((bundle.ricci, ricci), (bundle.scalar, scalar), (bundle.einstein, einstein)):
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_bundle_keeps_no_riemann(self):
        assert [f.name for f in dataclasses.fields(geo.CurvatureBundle)] == [
            "ricci", "scalar", "einstein", "grid"
        ]

    def test_sphere_scalar(self):
        grid, metric = sphere_setup(81)
        bundle = geo.curvature(metric, geo.christoffel(metric))
        assert np.abs(bundle.scalar - 2.0)[2:-2, 2:-2].max() < 1e-2

    def test_two_dimensional_einstein_vanishes(self):
        grid, metric = sphere_setup(81)
        bundle = geo.curvature(metric, geo.christoffel(metric))
        assert np.abs(bundle.einstein)[2:-2, 2:-2].max() < 5e-3

    def test_einstein_identity_exact(self):
        grid, metric = sphere_setup(31)
        bundle = geo.curvature(metric, geo.christoffel(metric))
        rebuilt = bundle.ricci - 0.5 * bundle.scalar[..., None, None] * metric.values
        assert np.array_equal(bundle.einstein, rebuilt)

    def test_ricci_symmetry(self):
        grid, metric = sphere_setup(41)
        bundle = geo.curvature(metric, geo.christoffel(metric))
        asym = np.abs(bundle.ricci - np.swapaxes(bundle.ricci, -1, -2))
        assert asym.max() < 1e-8

    def test_mismatched_inputs_rejected(self):
        grid, metric = sphere_setup(21)
        other_grid, other_metric = sphere_setup(31)
        with pytest.raises(GridMismatchError):
            geo.curvature(metric, geo.christoffel(other_metric))


class TestCombinedMetric:
    def grid_and_flat(self):
        grid = GridSpec.from_axes((0, 1, 4), (0, 1, 4), (0, 1, 4))
        return grid, geo.flat_metric(grid)

    def test_zero_curvature_gives_flat(self):
        grid, flat = self.grid_and_flat()
        bundle = geo.curvature(flat, geo.christoffel(flat))
        field = np.random.default_rng(0).standard_normal(grid.shape)
        combined = geo.combined_metric(bundle, field, gamma=1.3)
        assert np.array_equal(combined.values, flat.values)

    def test_zero_field_adds_plainly(self):
        grid, flat = self.grid_and_flat()
        curved = geo.constant_metric(grid, np.diag([2.0, 1.0, 1.0]))
        bundle = geo.curvature(curved, geo.christoffel(curved))
        # constant metric: einstein tensor is exactly zero, so force a
        # synthetic bundle to exercise the blend (its arrays are read-only)
        bundle = dataclasses.replace(
            bundle, einstein=np.broadcast_to(np.diag([0.5, 0.0, 0.0]), bundle.einstein.shape)
        )
        combined = geo.combined_metric(bundle, np.zeros(grid.shape), gamma=1.0)
        expected = flat.values + np.diag([0.5, 0.0, 0.0])
        assert np.allclose(combined.values, expected)

    def test_single_node_exponential_weight(self):
        grid, flat = self.grid_and_flat()
        curved = geo.flat_metric(grid)
        bundle = geo.curvature(curved, geo.christoffel(curved))
        bundle = dataclasses.replace(
            bundle, einstein=np.broadcast_to(np.diag([0.25, 0.25, 0.25]), bundle.einstein.shape)
        )
        field = np.ones(grid.shape)
        combined = geo.combined_metric(bundle, field, gamma=1.0)
        expected = np.e * np.diag([0.25, 0.25, 0.25]) + np.eye(3)
        assert np.allclose(combined.values[0, 0, 0], expected)

    def test_gamma_range_enforced(self):
        grid, flat = self.grid_and_flat()
        bundle = geo.curvature(flat, geo.christoffel(flat))
        for gamma in (0.0, -1.0, 2.5):
            with pytest.raises(ValidationError):
                geo.combined_metric(bundle, np.zeros(grid.shape), gamma)

    def test_overflow_reports_node(self):
        grid, flat = self.grid_and_flat()
        bundle = geo.curvature(flat, geo.christoffel(flat))
        field = np.zeros(grid.shape)
        field[2, 1, 3] = 800.0
        with pytest.raises(RangeOverflowError, match=r"node \(2, 1, 3\)") as err:
            geo.combined_metric(bundle, field, gamma=1.0)
        assert err.value.node == (2, 1, 3)


class TestCovariantLaplacian:
    def test_quadratic_gives_constant(self):
        grid = GridSpec.from_axes((0, 1, 11), (0, 1, 11))
        metric = geo.flat_metric(grid)
        chris = geo.christoffel(metric)
        xs, _ = grid.meshgrid()
        lap = geo.covariant_laplacian(metric, chris, 0.5 * xs**2)
        assert np.abs(lap - 1.0).max() < 1e-10

    def test_plane_wave_eigenfunction(self):
        grid = GridSpec.from_axes((0, 1, 81), (0, 1, 9))
        metric = geo.flat_metric(grid)
        chris = geo.christoffel(metric)
        xs, _ = grid.meshgrid()
        kappa = 3.0
        wave = np.exp(1j * kappa * xs)
        lap = geo.covariant_laplacian(metric, chris, wave)
        err = np.abs(lap + kappa**2 * wave)[2:-2, 2:-2].max()
        assert err < 5e-3

    def test_sphere_harmonic_eigenfunction(self):
        grid, metric = sphere_setup(121, theta_lo=0.4)
        chris = geo.christoffel(metric)
        theta = grid.meshgrid()[0]
        lap = geo.covariant_laplacian(metric, chris, np.cos(theta))
        err = np.abs(lap + 2.0 * np.cos(theta))[2:-2, 2:-2].max()
        assert err < 1e-3

    def test_divergence_form_operator_converges_at_second_order(self):
        # f vanishes on the boundary of the patch; its Laplace-Beltrami on
        # the sphere is f_tt + cot(t) f_t + f_pp / sin^2(t), over radius^2
        radius = 1.7
        errors = []
        for n in (17, 33, 65):
            grid = GridSpec.from_axes((0.4, np.pi - 0.4, n), (0.0, 1.0, n))
            metric = geo.sphere_metric(grid, radius=radius)
            theta, phi = grid.meshgrid()
            k = np.pi / (np.pi - 0.8)
            u, du = np.sin(k * (theta - 0.4)), k * np.cos(k * (theta - 0.4))
            ddu = -(k**2) * u
            v, ddv = np.sin(np.pi * phi), -(np.pi**2) * np.sin(np.pi * phi)
            exact = (ddu * v + du * v / np.tan(theta) + u * ddv / np.sin(theta) ** 2) / radius**2
            lap = geo.laplace_operator_matrix(metric) @ (u * v)[1:-1, 1:-1].reshape(-1)
            errors.append(np.abs(lap - exact[1:-1, 1:-1].reshape(-1)).max())
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders > 1.9)

    def test_divergence_form_operator_on_constant_sheared_metric(self):
        # constant metric: the operator is h^{ab} d_a d_b, mixed term included
        h = np.array([[1.3, 0.4], [0.4, 0.7]])
        hinv = np.linalg.inv(h)
        errors = []
        for n in (17, 33, 65):
            grid = GridSpec.from_axes((0.0, 1.0, n), (0.0, 2.0, n))
            x, y = grid.meshgrid()
            f = np.sin(np.pi * x) * np.sin(0.5 * np.pi * y)
            exact = (
                -(np.pi**2) * hinv[0, 0] * f
                - 0.25 * np.pi**2 * hinv[1, 1] * f
                + 2.0 * hinv[0, 1] * 0.5 * np.pi**2
                * np.cos(np.pi * x) * np.cos(0.5 * np.pi * y)
            )
            lap = geo.laplace_operator_matrix(geo.constant_metric(grid, h))
            got = lap @ f[1:-1, 1:-1].reshape(-1)
            errors.append(np.abs(got - exact[1:-1, 1:-1].reshape(-1)).max())
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders > 1.9)

    def test_weighted_operator_is_symmetric_on_sheared_metric(self):
        metric = sheared_sphere_metric(13, 11)
        grid = metric.grid
        lap = geo.laplace_operator_matrix(metric)
        weighted = (sp.diags(metric.volume_density[1:-1, 1:-1].reshape(-1)) @ lap).toarray()
        scale = np.abs(weighted).max()
        assert np.abs(weighted - weighted.T).max() <= 1e-14 * scale
        # the mixed term is present: the stencil reaches the diagonal neighbours
        assert weighted[0, grid.shape[1] - 2 + 1] != 0.0

    def test_flat_equals_plain_laplacian(self):
        grid = GridSpec.from_axes((0, 1, 13), (0, 1, 9))
        metric = geo.flat_metric(grid)
        chris = geo.christoffel(metric)
        field = np.sin(grid.meshgrid()[0] * 3.0) + np.cos(grid.meshgrid()[1])
        curved = geo.covariant_laplacian(metric, chris, field)
        plain = sum(geo.second_derivative(field, grid.spacing(a), a) for a in range(2))
        assert np.array_equal(curved, plain)


def lu_batches():
    rng = np.random.default_rng(7)
    for d in (1, 2, 3, 4):
        yield rng.standard_normal((200, d, d))
        yield np.zeros((5, d, d))
        # tied pivot candidates: equal magnitudes, either sign, in every column
        yield rng.choice([-1.0, 1.0], size=(64, d, d)) * rng.choice([1.0, 2.0], size=(64, 1, d))
        yield rng.standard_normal((3, 4, d, d))


@pytest.mark.parametrize("matrices", list(lu_batches()), ids=lambda m: f"{m.shape}")
def test_lu_matches_node_major_loop_bitwise(matrices):
    det, pivot = geo.lu_determinants(matrices)
    expected_det, expected_pivot = loop_lu_determinants(matrices)
    assert det.shape == expected_det.shape == matrices.shape[:-2]
    assert np.array_equal(det, expected_det)
    assert np.array_equal(pivot, expected_pivot)


def test_lu_leaves_input_untouched():
    matrices = np.array([[[2.0, 1.0], [4.0, 3.0]]])
    kept = matrices.copy()
    geo.lu_determinants(matrices)
    assert np.array_equal(matrices, kept)


@pytest.mark.parametrize("name", sorted(CURVED_METRICS))
def test_inverse_is_batched_inv_bitwise(name):
    metric = CURVED_METRICS[name]()
    assert "inverse" not in vars(metric)
    assert np.array_equal(metric.inverse, np.linalg.inv(metric.values))
    assert metric.inverse is metric.inverse


def test_lu_pivot_detects_near_singularity():
    mats = np.stack([np.eye(3), np.diag([1.0, 1e-15, 1.0])])
    det, pivot = geo.lu_determinants(mats)
    assert pivot[0] == 1.0
    assert pivot[1] < 1e-12
    assert np.isclose(det[0], 1.0)


def support_metric(axes, grid=GridSpec.from_axes((0.0, 1.0, 5), (0.5, 2.5, 13), (0.0, 1.0, 11))):
    """Smooth positive-definite 3x3 field with an off-diagonal entry at
    every node, varying along the grid axes ``axes`` and exactly
    constant along the others."""
    x = grid.meshgrid()
    rng = np.random.default_rng(5)
    values = np.zeros(grid.shape + (3, 3))
    for i in range(3):
        for j in range(i, 3):
            entry = np.full(grid.shape, rng.uniform(0.05, 0.2))
            for k in axes:
                entry = entry * np.sin(rng.uniform(0.5, 2.0) * x[k] + rng.uniform(0.0, 6.0))
            values[..., i, j] = values[..., j, i] = entry + (1.0 if i == j else 0.0)
    return geo.MetricField(values, grid)


def full_grid_geometry(metric):
    """Oracle: determinant, inverse, connection, Ricci and scalar at every
    node of the grid, on contiguous copies and with no profile, taking
    each derivative along the axes where the metric values vary (found
    by this oracle's own comparison) and none along the others."""
    grid, d = metric.grid, metric.dim
    h = np.array(metric.values)
    varying = [k for k in range(d) if not np.all(h == h.take([0], axis=k))]
    det, _ = loop_lu_determinants(h)
    hinv = np.linalg.inv(h)
    dh = np.zeros(grid.shape + (d, d, d))
    for k in varying:
        dh[..., k, :, :] = geo.first_derivative(h, grid.spacing(k), axis=k)
    t = (np.swapaxes(dh, -3, -2) + np.moveaxis(dh, -3, -1)) - dh
    g = 0.5 * np.einsum("...ad,...dbc->...abc", hinv, t, optimize=True)
    trace = np.einsum("...aab->...b", g)
    ricci = np.zeros(grid.shape + (d, d))
    dtrace = np.zeros(grid.shape + (d, d))
    for a in varying:
        ricci += geo.first_derivative(g[..., a, :, :], grid.spacing(a), axis=a)
        dtrace[..., a] = geo.first_derivative(trace, grid.spacing(a), axis=a)
    ricci -= dtrace
    ricci += np.einsum("...e,...edb->...bd", trace, g, optimize=True)
    ricci -= np.einsum("...ade,...eab->...bd", g, g, optimize=True)
    scalar = np.einsum("...bd,...bd->...", hinv, ricci)
    return varying, det, hinv, g, ricci, scalar


def all_axes_geometry(metric):
    """The connection, Ricci and scalar with derivatives along every axis,
    as before fields were computed on their support."""
    grid, d = metric.grid, metric.dim
    h = np.array(metric.values)
    hinv = np.linalg.inv(h)
    dh = np.stack([geo.first_derivative(h, grid.spacing(k), axis=k) for k in range(d)], axis=-3)
    t = (np.swapaxes(dh, -3, -2) + np.moveaxis(dh, -3, -1)) - dh
    g = 0.5 * np.einsum("...ad,...dbc->...abc", hinv, t)
    trace = np.einsum("...aab->...b", g)
    ricci = sum(geo.first_derivative(g[..., a, :, :], grid.spacing(a), axis=a) for a in range(d))
    ricci -= np.stack([geo.first_derivative(trace, grid.spacing(k), axis=k) for k in range(d)], -1)
    ricci += np.einsum("...e,...edb->...bd", trace, g)
    ricci -= np.einsum("...ade,...eab->...bd", g, g)
    return g, ricci, np.einsum("...bd,...bd->...", hinv, ricci)


def constant_along(values, axes):
    return all(np.all(values == np.take(values, [0], axis=k)) for k in axes)


class TestSupport:
    @pytest.mark.parametrize("axes", [(1,), (1, 2), (0, 1, 2)], ids=str)
    def test_profile_matches_full_grid(self, axes):
        metric = support_metric(axes)
        chris = geo.christoffel(metric)
        bundle = geo.curvature(metric, chris)
        varying, det, hinv, g, ricci, scalar = full_grid_geometry(metric)
        assert metric.support == axes == tuple(varying)
        # the per-node LU and inverse give the same bits on the profile
        assert np.array_equal(metric.determinant, det)
        assert np.array_equal(metric.inverse, hinv)
        for got, expected in ((chris.values, g), (bundle.ricci, ricci), (bundle.scalar, scalar)):
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()
        off = [k for k in range(3) if k not in axes]
        for got in (metric.inverse, chris.values, bundle.ricci, bundle.scalar, bundle.einstein):
            assert constant_along(got, off)

    @pytest.mark.parametrize("axes", [(1,), (1, 2)], ids=str)
    def test_all_axes_derivatives_differ_only_by_rounding(self, axes):
        metric = support_metric(axes)
        chris = geo.christoffel(metric)
        bundle = geo.curvature(metric, chris)
        g, ricci, scalar = all_axes_geometry(metric)
        # the one-sided edge stencil along a constant axis leaves rounding
        # noise, which the profile replaces by exact zeros
        assert not constant_along(g, [k for k in range(3) if k not in axes])
        assert np.abs(chris.values - g).max() <= 1e-14 * np.abs(g).max()
        assert np.abs(bundle.ricci - ricci).max() <= 1e-12 * np.abs(ricci).max()
        assert np.abs(bundle.scalar - scalar).max() <= 1e-12 * np.abs(scalar).max()

    def test_world_sphere_connection_is_exactly_zero_off_its_axis(self):
        grid = GridSpec.from_axes((0.0, 1.0, 17), (0.5, 2.5, 65), (0.0, 1.0, 65))
        metric = geo.sphere_metric(grid)
        assert metric.support == (1,)
        chris = geo.christoffel(metric)
        bundle = geo.curvature(metric, chris)
        # nothing varies along the time axis: every entry with a time index is 0
        assert not np.any(chris.values[..., 0, :, :])
        assert not np.any(chris.values[..., :, 0, :])
        assert not np.any(bundle.ricci[..., 0, :])
        # the profile is one theta column, broadcast as a read-only view
        assert chris.values.strides[0] == chris.values.strides[2] == 0
        assert not chris.values.flags.writeable

    def test_support_of_broadcast_and_nan_fields(self):
        grid = GridSpec.from_axes((0, 1, 4), (0, 1, 5), (0, 1, 6))
        column = np.linspace(1.0, 2.0, 5)[None, :, None]
        assert geo._support(np.broadcast_to(column, grid.shape), 3) == (1,)
        values = np.ones(grid.shape)
        values[3, 0, 5] = np.nan  # nan equals nothing, so every axis varies
        assert geo._support(values, 3) == (0, 1, 2)
        values[3, 0, 5] = 1.0
        values[:, 2, :] = 2.0
        assert geo._support(values, 3) == (1,)
        assert geo._support(np.ones(grid.shape), 3) == ()

    @pytest.mark.parametrize(
        "entry, what",
        [
            (1e110, "its determinant is not finite"),
            (1.7e308, "its symmetrized entries are not finite"),
        ],
    )
    def test_metric_out_of_range_names_first_node_in_c_order(self, entry, what):
        # 1e110 on the diagonal: finite entries, a determinant of 1e330;
        # 1.7e308: h + h^T overflows before the halving
        grid = GridSpec.from_axes((0.0, 1.0, 4), (0.5, 2.5, 9), (0.0, 1.0, 5))
        values = np.array(support_metric((1,), grid).values)
        values[:, 6:, :, [0, 1, 2], [0, 1, 2]] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is reported, not warned about
            with pytest.raises(RangeOverflowError, match=r"node \(0, 6, 0\)") as err:
                geo.MetricField(values, grid)
        assert err.value.node == (0, 6, 0)
        assert what in str(err.value)

    def test_singular_row_names_first_node_in_c_order(self):
        grid = GridSpec.from_axes((0.0, 1.0, 4), (0.5, 2.5, 9), (0.0, 1.0, 5))
        values = np.array(support_metric((1,), grid).values)
        values[:, 6] = 0.0
        values[:, 6, :, 2, 2] = 1.0  # rank one on theta row 6 only
        with pytest.raises(SingularMetricError) as err:
            geo.MetricField(values, grid)
        _, pivots = loop_lu_determinants(values)
        first = tuple(np.argwhere(~(pivots > geo.PIVOT_THRESHOLD))[0])
        assert err.value.node == first == (0, 6, 0)
