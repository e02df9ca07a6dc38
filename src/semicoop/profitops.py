"""Truncated ladder operators for profit states and bond-resale cascades.

Profit raising and lowering act on a ``d``-level state space per firm.
Level 0 is the shutdown state; the lowering operator annihilates it.  In
finite dimension the canonical commutation relation can only hold below
the top level, so the truncated relation

    [lower, raise] = identity - d * (top-level projector)

is what the constructors guarantee, exactly.

The cascade functions quantify the cumulative negative effect of selling
product rights repeatedly to the same consumers: a brute-force double
sum, its closed forms, the infinite-resale limit ``exp(-k)/(1-exp(-k))``
per unit effect, and the small-asymmetry derivative ``-1/k^2 + 1/12``
that diverges as the asymmetry parameter vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeOverflowError, ValidationError

DIVERGENCE_MAGNITUDE = 1e12


@dataclass(frozen=True)
class LadderAlgebra:
    """Raising/lowering matrices on a ``d``-level truncated profit space."""

    dimension: int
    lowering: np.ndarray
    raising: np.ndarray

    def profit_state(self, sign=+1):
        """Combination ``raise +/- i * lower`` driving circular motion."""
        if sign not in (+1, -1):
            raise ValidationError("sign must be +1 or -1")
        return self.raising + sign * 1j * self.lowering

    def embed(self, operator, firm, n_firms):
        """Kronecker embedding of a single-firm operator at slot ``firm``."""
        if not 0 <= firm < n_firms:
            raise ValidationError("firm index out of range")
        eye = np.eye(self.dimension)
        out = np.array([[1.0]])
        for slot in range(n_firms):
            out = np.kron(out, operator if slot == firm else eye)
        return out


def build_ladder(dimension):
    """Standard truncated ladder pair with matrix elements ``sqrt(n)``.

    ``lowering[n-1, n] = sqrt(n)``; the raising operator is its
    transpose.  The first column of the lowering operator is zero (the
    shutdown state is annihilated) and the raising operator annihilates
    the top state under truncation.
    """
    d = int(dimension)
    if d < 2:
        raise ValidationError("ladder needs at least 2 levels")
    lowering = np.diag(np.sqrt(np.arange(1.0, d)), k=1)
    return LadderAlgebra(d, lowering, lowering.T.copy())


def commutator(a, b):
    return a @ b - b @ a


@dataclass(frozen=True)
class CascadeParams:
    """Resale cascade inputs: consumer count, per-consumer sale counts,
    asymmetry ``kappa`` and the unit reduction effect."""

    consumers: int
    sales: object
    kappa: float
    unit_effect: float = 1.0

    def __post_init__(self):
        problems = []
        if self.consumers < 1:
            problems.append("consumer count must be at least 1")
        sales = self.sales
        if np.isscalar(sales):
            sales = (int(sales),) * self.consumers
        else:
            sales = tuple(int(t) for t in sales)
            if len(sales) != self.consumers:
                problems.append("need one sale count per consumer")
        if any(t < 1 for t in sales):
            problems.append("sale counts must be at least 1")
        if not self.kappa > 0:
            problems.append("kappa must be positive")
        if problems:
            raise ValidationError("invalid cascade parameters", problems)
        object.__setattr__(self, "sales", sales)


def cascade_sum(params):
    """Exact brute-force weighted sum over all consumers and sales.

    ``sum_j sum_{r=1..theta_j} r * exp(-r*kappa) * unit_effect``.  This
    is the oracle the closed forms are checked against.
    """
    total = 0.0
    k = params.kappa
    for theta in params.sales:
        r = np.arange(1, theta + 1, dtype=float)
        term = float(np.sum(r * np.exp(-r * k)))
        total += term
    result = total * params.unit_effect
    if not np.isfinite(result):
        raise RangeOverflowError("cascade sum left the floating-point range")
    return result


def cascade_weighted_closed_form(theta, kappa, unit_effect=1.0):
    """Closed form of ``sum_{r=1..theta} r exp(-r k)`` for one consumer.

    Differentiating the finite geometric series gives
    ``exp(-k) * [ (1 - exp(-(theta+1) k)) / (1 - exp(-k))^2
                 - (theta+1) exp(-theta k) / (1 - exp(-k)) ]``.
    """
    if not kappa > 0:
        raise ValidationError("kappa must be positive")
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


def cascade_limit(kappa):
    """Per-unit infinite-resale effect ``exp(-k) / (1 - exp(-k))``.

    Evaluated as ``1 / expm1(k)`` for accuracy at small ``kappa``.
    """
    kappa = float(kappa)
    if not kappa > 0:
        raise ValidationError("kappa must be positive")
    return 1.0 / np.expm1(kappa)


@dataclass(frozen=True)
class CascadeDerivative:
    value: float
    expansion_regime: bool
    divergent: bool


def cascade_derivative(kappa):
    """Leading expansion of the derivative of the resale limit.

    Returns ``-1/kappa^2 + 1/12`` with two flags: whether ``kappa`` sits
    inside the small-asymmetry expansion regime ``(0, 1)``, and whether
    the magnitude has crossed the divergence threshold that signals the
    unbounded negative effect as ``kappa`` approaches zero.
    """
    kappa = float(kappa)
    if not kappa > 0:
        raise ValidationError("kappa must be positive")
    value = -1.0 / kappa**2 + 1.0 / 12.0
    return CascadeDerivative(
        value=value,
        expansion_regime=0.0 < kappa < 1.0,
        divergent=abs(value) > DIVERGENCE_MAGNITUDE,
    )
