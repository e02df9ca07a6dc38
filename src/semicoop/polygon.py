"""Areas of geodesic strategy polygons on ellipsoid patches.

A patch area combines an azimuth term with a curvature-correction
integral over a latitude/longitude rectangle:

    area = r^2 (tau2 - tau1)
           + int_rho int_theta (1/k - r^2) cos(theta) dtheta drho

evaluated with tensor-product Gauss-Legendre quadrature.  On a round
sphere ``k = 1/r^2`` the integrand vanishes identically and the area
reduces to the azimuth term alone.

Per-side areas are assembled into a polygon area either as a plain sum
(sides on both sides of the equator) or as a signed difference between
two groups of sides (all on one side).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DegeneratePolygonError, NumericalError, ValidationError

DEFAULT_QUADRATURE_NODES = 32

_HALF_PI = 0.5 * np.pi


@lru_cache(maxsize=64)
def _gauss_legendre(n):
    nodes, weights = leggauss(n)
    return nodes, weights


def _map_to(nodes, weights, lo, hi):
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


@dataclass(frozen=True)
class EllipsoidPatch:
    """One geodesic side of a strategy polygon on an ellipsoid.

    Parameters
    ----------
    radius : float
        Authalic radius, positive.
    curvature : callable or float
        Gaussian curvature ``k(theta, rho)``; a bare number means a
        constant field.  Must be positive over the patch.
    theta : (float, float)
        Latitude bounds, increasing, inside ``(-pi/2, pi/2)``.
    rho : (float, float)
        Longitude bounds, increasing.
    tau : (float, float)
        Azimuth values at the two endpoints (radians).
    """

    radius: float
    curvature: object
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

    def curvature_at(self, theta, rho):
        if callable(self.curvature):
            return np.broadcast_to(
                np.asarray(self.curvature(theta, rho), dtype=float), np.shape(theta)
            )
        return np.full(np.shape(theta), float(self.curvature))


def patch_area(patch, quadrature_nodes=DEFAULT_QUADRATURE_NODES):
    """Area contribution of one patch.

    Gauss-Legendre is spectrally accurate here, so for smooth curvature
    fields the default node count is converged far beyond the tolerances
    used downstream.  Deterministic for a fixed node count.
    """
    n = int(quadrature_nodes)
    if n < 1:
        raise ValidationError("quadrature node count must be positive")
    base_nodes, base_weights = _gauss_legendre(n)
    theta, wt = _map_to(base_nodes, base_weights, *patch.theta)
    rho, wr = _map_to(base_nodes, base_weights, *patch.rho)
    tt, rr = np.meshgrid(theta, rho, indexing="ij")
    k = patch.curvature_at(tt, rr)
    if np.any(~np.isfinite(k)) or np.any(k <= 0.0):
        raise NumericalError(
            "curvature must be positive and finite on all quadrature nodes"
        )
    r2 = patch.radius**2
    integrand = (1.0 / k - r2) * np.cos(tt)
    correction = float(np.einsum("i,j,ij->", wt, wr, integrand))
    tau1, tau2 = patch.tau
    return r2 * (tau2 - tau1) + correction


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
