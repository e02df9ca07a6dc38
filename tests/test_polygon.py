import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from semicoop import DegeneratePolygonError, NumericalError, ValidationError
from semicoop.polygon import (
    EllipsoidPatch,
    PolygonAssembly,
    assemble_polygon,
    effective_region,
    patch_area,
)


def quadrature_area(patch, nodes=32):
    """The patch area by tensor-product Gauss-Legendre quadrature of the
    curvature correction, the oracle of the closed form."""
    base_nodes, base_weights = leggauss(nodes)

    def mapped(lo, hi):
        half = 0.5 * (hi - lo)
        return lo + half * (base_nodes + 1.0), half * base_weights

    theta, wt = mapped(*patch.theta)
    rho, wr = mapped(*patch.rho)
    tt, _ = np.meshgrid(theta, rho, indexing="ij")
    r2 = patch.radius**2
    integrand = (1.0 / np.full(tt.shape, patch.curvature) - r2) * np.cos(tt)
    correction = float(np.einsum("i,j,ij->", wt, wr, integrand))
    return r2 * (patch.tau[1] - patch.tau[0]) + correction


def unit_patch(curvature, radius=1.0, dtau=1.0):
    return EllipsoidPatch(
        radius=radius,
        curvature=curvature,
        theta=(0.0, np.pi / 6),
        rho=(0.0, np.pi / 4),
        tau=(0.0, dtau),
    )


class TestPatchArea:
    @pytest.mark.parametrize("radius", [1.0, 2.0])
    @pytest.mark.parametrize("nodes", [8, 32, 64])
    def test_sphere_degeneracy(self, radius, nodes):
        # on the round sphere the curvature correction vanishes identically,
        # in the closed form and in the quadrature oracle at any node count
        patch = unit_patch(curvature=1.0 / radius**2, radius=radius)
        assert patch_area(patch) == radius**2 * 1.0
        assert quadrature_area(patch, nodes) == radius**2 * 1.0

    def test_radius_whose_square_overflows_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="radius 1e\\+200 squared overflows"):
            patch_area(unit_patch(curvature=1.0, radius=1e200))

    def test_zero_azimuth_span(self):
        patch = unit_patch(curvature=1.0, dtau=0.0)
        assert patch_area(patch) == 0.0

    def test_half_curvature_closed_form(self):
        # k = 1/(2 r^2) makes the integrand cos(theta), integrable by hand
        patch = unit_patch(curvature=0.5)
        expected = 1.0 + np.pi / 8.0
        assert abs(patch_area(patch) - expected) < 1e-12

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            theta = np.sort(rng.uniform(-1.5, 1.5, 2))
            rho = np.sort(rng.uniform(-3.0, 3.0, 2))
            patch = EllipsoidPatch(
                radius=rng.uniform(0.2, 3.0),
                curvature=rng.lognormal(0.0, 1.0),
                theta=tuple(theta),
                rho=tuple(rho),
                tau=tuple(rng.uniform(-3.0, 3.0, 2)),
            )
            expected = quadrature_area(patch)
            # relative to the two terms, which may cancel in the sum
            azimuth = patch.radius**2 * (patch.tau[1] - patch.tau[0])
            scale = abs(azimuth) + abs(expected - azimuth)
            assert abs(patch_area(patch) - expected) <= 1e-14 * scale

    def test_latitude_additivity(self):
        kwargs = dict(radius=1.2, curvature=0.7, rho=(0.0, 1.0), tau=(0.0, 0.5))
        whole = patch_area(EllipsoidPatch(theta=(-0.5, 0.8), **kwargs))
        lower = patch_area(EllipsoidPatch(theta=(-0.5, 0.2), **kwargs))
        upper = patch_area(EllipsoidPatch(theta=(0.2, 0.8), **kwargs))
        # azimuth term appears in every patch; drop the double count
        overlap = 1.2**2 * 0.5
        assert abs((lower + upper - overlap) - whole) < 1e-12

    def test_negative_curvature_rejected(self):
        for curvature in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(NumericalError, match="curvature must be positive and finite"):
                patch_area(unit_patch(curvature=curvature))

    def test_invalid_patch_rejected(self):
        with pytest.raises(ValidationError):
            EllipsoidPatch(
                radius=-1.0, curvature=1.0, theta=(0, 0.5), rho=(0, 1), tau=(0, 1)
            )
        with pytest.raises(ValidationError):
            EllipsoidPatch(
                radius=1.0, curvature=1.0, theta=(0.5, 0.2), rho=(0, 1), tau=(0, 1)
            )


class TestAssembly:
    def test_plain_sum(self):
        asm = PolygonAssembly((2.0, 3.0, 4.0), indicator=0)
        assert assemble_polygon(asm) == 9.0

    def test_same_side_difference(self):
        asm = PolygonAssembly((5.0, 2.0), indicator=1, positive_count=1)
        assert assemble_polygon(asm) == 3.0

    def test_degenerate_signed_area(self):
        asm = PolygonAssembly((2.0, 5.0), indicator=1, positive_count=1)
        with pytest.raises(DegeneratePolygonError):
            assemble_polygon(asm)

    def test_split_must_be_nontrivial(self):
        with pytest.raises(ValidationError):
            PolygonAssembly((2.0, 5.0), indicator=1, positive_count=2)

    def test_closed_polygon_needs_three_sides(self):
        with pytest.raises(ValidationError):
            PolygonAssembly((2.0, 5.0), indicator=0)

    @given(
        st.lists(st.floats(0.0, 100.0), min_size=3, max_size=8),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_sum_permutation_invariant(self, areas, rng):
        shuffled = list(areas)
        rng.shuffle(shuffled)
        a = assemble_polygon(PolygonAssembly(tuple(areas), indicator=0))
        b = assemble_polygon(PolygonAssembly(tuple(shuffled), indicator=0))
        assert a == pytest.approx(b, abs=1e-9)


class TestEffectiveRegion:
    def test_full_probability_keeps_area(self):
        for rho in (0.1, 0.5, 1.0):
            assert effective_region(3.7, 1.0, rho) == 3.7

    def test_square_root_case(self):
        assert effective_region(8.0, 0.25, 0.5) == 4.0

    def test_zero_probability(self):
        assert effective_region(7.0, 0.0, 1.0) == 0.0

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            effective_region(1.0, 0.5, 0.0)
        with pytest.raises(ValidationError):
            effective_region(1.0, 1.5, 0.5)
        with pytest.raises(ValidationError):
            effective_region(-1.0, 0.5, 0.5)

    @given(
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
        st.floats(0.05, 1.0),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotonicity(self, a1, a2, r1, r2):
        lo_a, hi_a = sorted((a1, a2))
        lo_r, hi_r = sorted((r1, r2))
        area = 5.0
        assert effective_region(area, lo_a, lo_r) <= effective_region(area, hi_a, lo_r)
        # for alpha < 1 a larger cooperation degree shrinks the region
        assert effective_region(area, lo_a, hi_r) <= effective_region(area, lo_a, lo_r)
