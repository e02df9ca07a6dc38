import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicoop import ValidationError
from semicoop.profitops import (
    CascadeParams,
    cascade_derivative,
    cascade_limit,
    cascade_sum,
)


def cascade_weighted_closed_form(theta, kappa, unit_effect=1.0):
    """Closed form of ``sum_{r=1..theta} r exp(-r k)`` for one consumer.

    Differentiating the finite geometric series gives
    ``exp(-k) * [ (1 - exp(-(theta+1) k)) / (1 - exp(-k))^2
                 - (theta+1) exp(-theta k) / (1 - exp(-k)) ]``.
    """
    q = np.exp(-kappa)
    denom = -np.expm1(-kappa)
    first = -np.expm1(-(theta + 1) * kappa) / denom**2
    second = (theta + 1) * np.exp(-theta * kappa) / denom
    return unit_effect * q * (first - second)


def geometric_sum_from_one(theta, kappa):
    """``sum_{r=1..theta} exp(-r k)``, the sum actually starting at one."""
    return np.exp(-kappa) * (-np.expm1(-theta * kappa)) / (-np.expm1(-kappa))


def geometric_sum_from_zero(theta, kappa):
    """``(1 - exp(-theta k)) / (1 - exp(-k))``, i.e. the sum starting at
    zero; kept alongside because the two are easy to confuse."""
    return (-np.expm1(-theta * kappa)) / (-np.expm1(-kappa))


class TestCascade:
    def test_single_sale_half_life(self):
        params = CascadeParams(consumers=1, sales=1, kappa=np.log(2.0))
        assert cascade_sum(params) == pytest.approx(0.5, rel=1e-15)

    def test_large_kappa_kills_cascade(self):
        params = CascadeParams(consumers=3, sales=10, kappa=500.0)
        assert cascade_sum(params) < 1e-200

    def test_identical_consumers_add(self):
        one = cascade_sum(CascadeParams(1, 7, 0.3))
        two = cascade_sum(CascadeParams(2, (7, 7), 0.3))
        assert two == pytest.approx(2.0 * one, rel=1e-15)

    @pytest.mark.parametrize("kappa", [0.1, 0.7, 2.0, 5.0])
    @pytest.mark.parametrize("theta", [1, 13, 500, 10000])
    def test_closed_form_matches_bruteforce(self, kappa, theta):
        brute = cascade_sum(CascadeParams(1, theta, kappa))
        closed = cascade_weighted_closed_form(theta, kappa)
        assert abs(brute - closed) <= 1e-12 * abs(closed)

    def test_geometric_sums_are_offset_by_one_term(self):
        # the version starting at zero carries one extra leading "1"
        theta, kappa = 9, 0.4
        from_one = geometric_sum_from_one(theta, kappa)
        from_zero = geometric_sum_from_zero(theta, kappa)
        brute = sum(np.exp(-r * kappa) for r in range(1, theta + 1))
        assert from_one == pytest.approx(brute, rel=1e-14)
        assert from_zero == pytest.approx(
            sum(np.exp(-r * kappa) for r in range(theta)), rel=1e-14
        )

    @given(st.floats(0.05, 4.0), st.floats(0.05, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_sum_monotone_decreasing_in_kappa(self, k1, k2):
        lo, hi = sorted((k1, k2))
        if hi - lo < 1e-9:
            return
        params_lo = CascadeParams(1, 50, lo)
        params_hi = CascadeParams(1, 50, hi)
        assert cascade_sum(params_lo) > cascade_sum(params_hi)

    @given(st.integers(1, 200), st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_sum_monotone_in_sales(self, t1, t2):
        # the terms added between lo and hi fall below half an ulp of the
        # total for large lo (200 e^-40 against 24.9), so equal float sums
        # are correct there; the increment must match the closed form to
        # a few ulps and be positive wherever it is resolvable
        lo, hi = sorted((t1, t2))
        if lo == hi:
            return
        kappa = 0.2
        increment = cascade_sum(CascadeParams(1, hi, kappa)) - cascade_sum(
            CascadeParams(1, lo, kappa)
        )
        expected = cascade_weighted_closed_form(hi, kappa) - cascade_weighted_closed_form(
            lo, kappa
        )
        tolerance = 8 * np.spacing(cascade_weighted_closed_form(hi, kappa))
        assert abs(increment - expected) <= tolerance
        if expected > tolerance:
            assert increment > 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            CascadeParams(0, 1, 0.5)
        with pytest.raises(ValidationError):
            CascadeParams(1, 0, 0.5)
        with pytest.raises(ValidationError):
            CascadeParams(1, 1, -0.5)
        with pytest.raises(ValidationError):
            CascadeParams(2, (3,), 0.5)


class TestCascadeLimit:
    def test_half_life_value(self):
        assert cascade_limit(np.log(2.0)) == pytest.approx(1.0, rel=1e-15)

    def test_large_kappa_vanishes(self):
        assert cascade_limit(200.0) < 1e-80

    def test_laurent_expansion_near_zero(self):
        kappa = 0.01
        assert cascade_limit(kappa) == pytest.approx(1.0 / kappa - 0.5, rel=1e-2)

    def test_matches_unweighted_tail(self):
        kappa = 0.3
        tail = geometric_sum_from_one(10_000, kappa)
        assert cascade_limit(kappa) == pytest.approx(tail, rel=1e-12)

    def test_defining_identity_machine_precision(self):
        for kappa in (0.05, 0.9, 3.0):
            lhs = cascade_limit(kappa) * (1.0 - np.exp(-kappa))
            assert lhs == pytest.approx(np.exp(-kappa), rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValidationError):
            cascade_limit(0.0)


class TestCascadeDerivative:
    def test_small_kappa_value(self):
        result = cascade_derivative(0.01)
        assert result.value == pytest.approx(-1.0 / 0.01**2 + 1.0 / 12.0, rel=1e-12)
        assert result.expansion_regime
        assert not result.divergent

    @pytest.mark.parametrize("kappa,rel_tol", [(0.01, 1e-3), (0.1, 1e-2)])
    def test_matches_finite_difference_of_limit(self, kappa, rel_tol):
        h = 1e-6 * kappa
        fd = (cascade_limit(kappa + h) - cascade_limit(kappa - h)) / (2 * h)
        result = cascade_derivative(kappa)
        assert abs(result.value - fd) <= rel_tol * abs(fd)

    def test_divergence_flag_fires(self):
        assert cascade_derivative(1e-7).divergent

    def test_out_of_regime_flagged(self):
        result = cascade_derivative(2.5)
        assert not result.expansion_regime

    def test_domain(self):
        with pytest.raises(ValidationError):
            cascade_derivative(-0.1)
