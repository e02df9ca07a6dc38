import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicoop import RangeOverflowError, ValidationError
from semicoop.profitops import (
    CascadeParams,
    cascade_derivative,
    cascade_limit,
    cascade_sum,
)


def cascade_bruteforce(theta, kappa):
    """``sum_{r=1..theta} r exp(-r k)`` term by term; memory grows with theta."""
    r = np.arange(1, theta + 1, dtype=float)
    return float(np.sum(r * np.exp(-r * kappa)))


def cascade_mpmath(theta, kappa):
    """``sum_{r=1..theta} r exp(-r k)`` from the textbook closed form
    ``x (1 - (n+1) x^n + n x^(n+1)) / (1 - x)^2``, ``x = exp(-k)``, at a
    working precision that outlasts its cancellation: ``1 - x`` loses
    ``log10(1/k)`` digits and the numerator up to twice that."""
    with mpmath.workdps(int(2 * max(0.0, math.log10(1.0 / kappa))) + 40):
        x = mpmath.exp(-mpmath.mpf(kappa))
        return x * (1 - (theta + 1) * x**theta + theta * x ** (theta + 1)) / (1 - x) ** 2


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
        two = cascade_sum(CascadeParams(2, 7, 0.3))
        assert two == pytest.approx(2.0 * one, rel=1e-15)

    @pytest.mark.parametrize("kappa", [0.1, 0.7, 2.0, 5.0])
    @pytest.mark.parametrize("theta", [1, 13, 500, 10000])
    def test_closed_form_matches_bruteforce(self, kappa, theta):
        got = cascade_sum(CascadeParams(1, theta, kappa))
        closed = cascade_weighted_closed_form(theta, kappa)
        assert abs(got - closed) <= 1e-12 * abs(closed)

    @pytest.mark.parametrize("kappa", [1e-9, 1e-3, 0.1, 0.7, 2.0, 30.0])
    @pytest.mark.parametrize("theta", [1, 2, 13, 500, 10000, 200000])
    def test_matches_bruteforce(self, kappa, theta):
        brute = cascade_bruteforce(theta, kappa)
        assert cascade_sum(CascadeParams(1, theta, kappa)) == pytest.approx(brute, rel=1e-13)

    @pytest.mark.parametrize(
        "kappa",
        [1e-300, 1e-200, 1e-160, 1e-154, 1e-100, 1e-20, 1e-8, 1e-3, 0.5, 0.999999, 1.0, 1.000001,
         3.0, 30.0, 700.0],
    )
    @pytest.mark.parametrize("theta", [1, 2, 3, 10, 999, 1000, 1001, 10**6, 10**9, 10**12])
    def test_matches_mpmath(self, kappa, theta):
        # every branch of the closed form: kappa and n kappa on both sides of 1
        # (theta 999, 1000 and 1001 at kappa 1e-3)
        expected = cascade_mpmath(theta, kappa)
        got = cascade_sum(CascadeParams(1, theta, kappa))
        assert abs(mpmath.mpf(got) - expected) <= 1e-14 * expected

    def test_work_depends_on_neither_theta_nor_consumers(self):
        params = CascadeParams(consumers=10**6, sales=10**12, kappa=1e-3)
        assert params.sales == 10**12
        tracemalloc.start()
        start = time.perf_counter()
        total = cascade_sum(params)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 100_000
        assert total == pytest.approx(10**6 * float(cascade_mpmath(10**12, 1e-3)), rel=1e-14)

    @pytest.mark.parametrize(
        "consumers, theta, kappa",
        [(1, 10**200, 1e-300), (10**305, 10**10, 1e-3), (1, 10**400, 1.0)],
        ids=["theta-squared", "consumers", "theta-beyond-float"],
    )
    def test_sum_beyond_the_float_range_names_kappa(self, consumers, theta, kappa):
        with pytest.raises(RangeOverflowError, match=f"kappa = {kappa!r}"):
            cascade_sum(CascadeParams(consumers, theta, kappa))

    @pytest.mark.parametrize("theta", [10**200, 10**300])
    def test_huge_theta_with_a_finite_sum_is_finite(self, theta):
        # the sum converges to x / (1 - x)^2 long before theta is reached
        kappa = 1.0
        expected = np.exp(-kappa) / np.expm1(-kappa) ** 2
        assert cascade_sum(CascadeParams(1, theta, kappa)) == pytest.approx(expected, rel=1e-14)

    def test_huge_kappa_sums_to_zero(self):
        assert cascade_sum(CascadeParams(2, 3, 1e200)) == 0.0

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
        for args, problem in [
            ((0, 1, 0.5), "consumer count must be at least 1"),
            ((1, 0, 0.5), "sale count must be at least 1"),
            ((1, 1, -0.5), "kappa must be positive"),
            ((1, 3, float("inf")), "kappa must be finite"),
            ((1, 3, float("-inf")), "kappa must be finite"),
            ((1, 3, float("nan")), "kappa must be finite"),
            (("x", 3, 0.5), "consumer count must be an integer, not 'x'"),
            ((2.5, 3, 0.5), "consumer count must be an integer, not 2.5"),
            ((1, 3, "x"), "kappa must be a real number, not 'x'"),
            ((1, 3, None), "kappa must be a real number, not None"),
            ((1, 3, 1j), "kappa must be a real number, not 1j"),
        ]:
            with pytest.raises(ValidationError) as exc:
                CascadeParams(*args)
            assert exc.value.problems == [problem], args
        assert type(CascadeParams(np.int64(2), 3, 0.5).consumers) is int

    @pytest.mark.parametrize("sales", [2.5, "3", None, (3, 3)], ids=repr)
    def test_non_integer_sale_count_is_a_validation_error(self, sales):
        with pytest.raises(ValidationError, match="sale count must be an integer"):
            CascadeParams(2, sales, 0.5)


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

    def test_overflow_names_kappa(self):
        with pytest.raises(RangeOverflowError, match="kappa = 1e-310"):
            cascade_limit(1e-310)

    def test_huge_kappa_vanishes_without_warning(self, recwarn):
        assert cascade_limit(1e200) == 0.0
        assert not recwarn.list


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

    @pytest.mark.parametrize("kappa", [1e-160, 1e-200, 1e-310])
    def test_overflow_names_kappa(self, kappa):
        with pytest.raises(RangeOverflowError, match=f"kappa = {kappa!r}"):
            cascade_derivative(kappa)

    def test_huge_kappa_leaves_one_twelfth(self):
        assert cascade_derivative(1e200).value == 1.0 / 12.0
