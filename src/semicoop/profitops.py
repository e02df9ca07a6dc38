"""Bond-resale cascades: the cumulative negative effect of selling
product rights repeatedly to the same consumers.

The effect is a brute-force double sum over consumers and sales, with
the infinite-resale limit ``exp(-k)/(1-exp(-k))`` per unit effect and
the small-asymmetry derivative ``-1/k^2 + 1/12`` of that limit, which
diverges as the asymmetry parameter vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeOverflowError, ValidationError

DIVERGENCE_MAGNITUDE = 1e12


@dataclass(frozen=True)
class CascadeParams:
    """Resale cascade inputs: consumer count, per-consumer sale counts and
    asymmetry ``kappa``; the effects are per unit reduction effect."""

    consumers: int
    sales: object
    kappa: float

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

    ``sum_j sum_{r=1..theta_j} r * exp(-r*kappa)`` per unit effect.  This
    is the oracle the closed forms are checked against.
    """
    total = 0.0
    k = params.kappa
    for theta in params.sales:
        r = np.arange(1, theta + 1, dtype=float)
        term = float(np.sum(r * np.exp(-r * k)))
        total += term
    if not np.isfinite(total):
        raise RangeOverflowError("cascade sum left the floating-point range")
    return total


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
