"""Areas of geodesic strategy polygons on ellipsoid patches.

A patch area combines an azimuth term with a curvature-correction
integral over a latitude/longitude rectangle:

    area = r^2 (tau2 - tau1)
           + int_rho int_theta (1/k - r^2) cos(theta) dtheta drho

Every patch has a constant Gaussian curvature ``k``, so the integral is
the closed form ``(1/k - r^2) (sin theta2 - sin theta1) (rho2 - rho1)``.
On a round sphere ``k = 1/r^2`` the correction vanishes and the area
reduces to the azimuth term alone.

Per-side areas are assembled into a polygon area either as a plain sum
(sides on both sides of the equator) or as a signed difference between
two groups of sides (all on one side).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePolygonError, NumericalError, ValidationError

_HALF_PI = 0.5 * np.pi


@dataclass(frozen=True)
class EllipsoidPatch:
    """One geodesic side of a strategy polygon on an ellipsoid.

    Parameters
    ----------
    radius : float
        Authalic radius, positive.
    curvature : float
        Constant Gaussian curvature ``k``, positive.
    theta : (float, float)
        Latitude bounds, increasing, inside ``(-pi/2, pi/2)``.
    rho : (float, float)
        Longitude bounds, increasing.
    tau : (float, float)
        Azimuth values at the two endpoints (radians).
    """

    radius: float
    curvature: float
    theta: tuple
    rho: tuple
    tau: tuple

    def __post_init__(self):
        problems = []
        if not self.radius > 0:
            problems.append("radius must be positive")
        t1, t2 = self.theta
        if not (-_HALF_PI < t1 < t2 < _HALF_PI):
            problems.append("latitudes must satisfy -pi/2 < theta1 < theta2 < pi/2")
        r1, r2 = self.rho
        if not r1 < r2:
            problems.append("longitudes must satisfy rho1 < rho2")
        if problems:
            raise ValidationError("invalid ellipsoid patch", problems)


def patch_area(patch):
    """Area contribution of one patch, in closed form; a curvature that
    is not positive and finite, or a radius whose square overflows, is a
    :class:`NumericalError`."""
    k = patch.curvature
    if not (math.isfinite(k) and k > 0.0):
        raise NumericalError(f"curvature must be positive and finite; it is {k:g}")
    try:
        r2 = patch.radius**2
    except OverflowError:
        raise NumericalError(f"radius {patch.radius:g} squared overflows") from None
    (t1, t2), (rho1, rho2), (tau1, tau2) = patch.theta, patch.rho, patch.tau
    return r2 * (tau2 - tau1) + (1.0 / k - r2) * (math.sin(t2) - math.sin(t1)) * (rho2 - rho1)


@dataclass(frozen=True)
class PolygonAssembly:
    """Per-side areas plus the equator-side indicator.

    ``indicator`` is 1 when every geodesic side lies on the same side of
    the equator, in which case the first ``positive_count`` areas are
    added and the rest subtracted.  With ``indicator`` 0 all areas are
    simply summed.
    """

    side_areas: tuple
    indicator: int = 0
    positive_count: int = None

    def __post_init__(self):
        areas = tuple(float(a) for a in self.side_areas)
        object.__setattr__(self, "side_areas", areas)
        problems = []
        if self.indicator not in (0, 1):
            problems.append("indicator must be 0 or 1")
        if not all(np.isfinite(areas)):
            problems.append("side areas must be finite")
        if self.indicator == 1:
            pc = self.positive_count
            if pc is None or not 1 <= pc <= len(areas) - 1:
                problems.append(
                    "same-side assembly needs a split with sides in both groups"
                )
        else:
            if len(areas) < 3:
                problems.append("a closed polygon needs at least 3 sides")
        if problems:
            raise ValidationError("invalid polygon assembly", problems)


def assemble_polygon(assembly):
    """Signed assembly of per-side areas into the polygon area.

    Raises :class:`DegeneratePolygonError` when the signed combination
    is not positive; a convex polygon above the equator always has the
    near-equator group dominating.
    """
    areas = np.asarray(assembly.side_areas)
    if assembly.indicator == 0:
        return float(areas.sum())
    pc = assembly.positive_count
    total = float(areas[:pc].sum() - areas[pc:].sum())
    if total <= 0.0:
        raise DegeneratePolygonError(
            f"signed side assembly gives non-positive area {total:.6g}"
        )
    return total


def effective_region(area, alpha, rho):
    """Region size actually committed: ``alpha**rho * area``.

    ``alpha`` is the probability of choosing this polygon, ``rho`` the
    degree of cooperation.  Increasing in ``alpha``; for ``alpha < 1``
    decreasing in ``rho``.
    """
    problems = []
    if not 0.0 <= alpha <= 1.0:
        problems.append("alpha must lie in [0,1]")
    if not 0.0 < rho <= 1.0:
        problems.append("rho must lie in (0,1]")
    if not area >= 0.0:
        problems.append("area must be non-negative")
    if problems:
        raise ValidationError("invalid effective-region arguments", problems)
    return float(alpha**rho * area)
