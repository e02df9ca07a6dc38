"""Bond-resale cascades: the cumulative negative effect of selling
product rights repeatedly to the same consumers.

The effect is ``sum_{r=1..theta} r exp(-r k)`` per consumer in closed
form, with the infinite-resale limit ``exp(-k)/(1-exp(-k))`` per unit
effect and the small-asymmetry derivative ``-1/k^2 + 1/12`` of that
limit, which diverges as the asymmetry parameter vanishes.  A value
that leaves the floating-point range is a :class:`RangeOverflowError`.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import RangeOverflowError, ValidationError

DIVERGENCE_MAGNITUDE = 1e12

# k! of the series terms k = 2..19; below 1 the first left out is under 1e-17 of the sum
_FACTORIALS = [float(math.factorial(k)) for k in range(2, 20)]


@dataclass(frozen=True)
class CascadeParams:
    """Resale cascade inputs: consumer count, the sale count every
    consumer sees and asymmetry ``kappa``; the effects are per unit
    reduction effect."""

    consumers: int
    sales: int
    kappa: float

    def __post_init__(self):
        problems = []
        counts = {}
        for name, what in (("consumers", "consumer count"), ("sales", "sale count")):
            value = getattr(self, name)
            try:
                counts[name] = operator.index(value)
            except TypeError:
                problems.append(f"{what} must be an integer, not {value!r}")
                continue
            if counts[name] < 1:
                problems.append(f"{what} must be at least 1")
        if not isinstance(self.kappa, numbers.Real):
            problems.append(f"kappa must be a real number, not {self.kappa!r}")
        elif not -math.inf < self.kappa < math.inf:
            problems.append("kappa must be finite")
        elif not self.kappa > 0:
            problems.append("kappa must be positive")
        if problems:
            raise ValidationError("invalid cascade parameters", problems)
        for name, value in counts.items():
            object.__setattr__(self, name, value)


def _finite(value, what, kappa):
    if not math.isfinite(value):
        raise RangeOverflowError(f"{what} left the floating-point range at kappa = {kappa!r}")
    return value


def _resale_sum(n, kappa):
    """``sum_{r=1..n} r x^r``, ``x = e^-kappa``, as ``x (kappa/a)^2 (n^2
    G(u) + n H(kappa) e^-u)`` with ``a = 1 - x``, ``u = n kappa``, ``G(u) =
    (1 - (1+u) e^-u) / u^2`` and ``H(kappa) = (kappa - a) / kappa^2``: the
    textbook ``x (1 - (n+1) x^n + n x^(n+1)) / a^2`` without its
    cancellation at small ``n kappa`` or the underflow of ``a^2`` below
    ``kappa ~ 1e-154``.  Below 1, G and H are the positive series ``e^-u
    sum_{k>=2} u^(k-2)/k!`` and ``e^-kappa sum_{k>=2} (k-1) kappa^(k-2)/k!``;
    from 1 up, ``n^2 G(u)`` is ``(1 - (1+u) e^-u) / kappa^2``."""
    u = n * kappa
    if u < 1.0:
        head = n * n * math.exp(-u) * sum(u**j / f for j, f in enumerate(_FACTORIALS))
    else:
        head = (-math.expm1(-u) - u * math.exp(-u)) / kappa / kappa
    if kappa < 1.0:
        h = math.exp(-kappa) * sum((j + 1) * kappa**j / f for j, f in enumerate(_FACTORIALS))
    else:
        h = (kappa + math.expm1(-kappa)) / kappa / kappa
    ratio = kappa / -math.expm1(-kappa)
    return math.exp(-kappa) * ratio * ratio * (head + n * h * math.exp(-u))


def cascade_sum(params):
    """``m sum_{r=1..theta} r exp(-r kappa)`` per unit effect, for ``m``
    consumers and ``theta`` sales: the closed form :func:`_resale_sum`
    times the consumer count, so the work grows with neither count."""
    kappa = float(params.kappa)
    try:
        total = params.consumers * _resale_sum(float(params.sales), kappa)
    except OverflowError:  # a count beyond the float range
        total = math.inf
    return _finite(total, "cascade sum", kappa)


def cascade_limit(kappa):
    """Per-unit infinite-resale effect ``exp(-k) / (1 - exp(-k))``.

    Evaluated as ``1 / expm1(k)`` for accuracy at small ``kappa``.
    """
    kappa = float(kappa)
    if not kappa > 0:
        raise ValidationError("kappa must be positive")
    with np.errstate(over="ignore"):  # an infinite expm1 leaves the limit 0
        return _finite(1.0 / float(np.expm1(kappa)), "cascade limit", kappa)


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
    try:
        value = -1.0 / kappa**2 + 1.0 / 12.0
    except ZeroDivisionError:  # kappa**2 underflows to 0
        value = -math.inf
    except OverflowError:  # kappa**2 overflows, so -1/kappa^2 is -0
        value = 1.0 / 12.0
    _finite(value, "cascade derivative", kappa)
    return CascadeDerivative(
        value, expansion_regime=0.0 < kappa < 1.0, divergent=abs(value) > DIVERGENCE_MAGNITUDE
    )
