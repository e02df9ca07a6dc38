"""Transition kernels and the phase-evolution of the strategy field.

The short-time transition kernel is Gaussian in the step displacement
with covariance ``(eps/M) * F0 * hinv`` on the three world-volume
directions.  The background is the identity there, so the kernel is
isotropic with per-axis variance ``(eps/M) F0``, the
:attr:`KernelSpec.variance` a run reports, and its mass in the
displacement box is a product of three ``erf`` factors.  Real-time
evolution runs instead through the limiting differential equation

    d_s psi = (i / 2M) * F0 * Lap_h psi

stepped with Crank-Nicolson on the two real strategy axes.  ``Lap_h`` is
the divergence-form Laplace-Beltrami operator, self-adjoint in the
``sqrt|det h|``-weighted inner product, so the evolution is unitary in
that weighted norm on every metric.  A metric that is diagonal and
equal along axis 1 is propagated in closed form, one sine mode at a
time, with numpy alone: a DST-I and one dense symmetric eigenproblem
per mode, ``O(m1^3)`` for each of the ``m2`` modes of an ``m1 x m2``
interior.  Any other metric takes one sparse LU solve per step; that
fallback is the only place this module imports scipy.

The effective scale ``F0`` is extracted from the per-node action bracket,
less the curvature potential ``Q * R * xbar``, by contracting both sides
of the defining relation with the background inverse metric, which
divides the scalar by the background dimension.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .brane import BACKGROUND_DIM
from .errors import NumericalError, ValidationError
from .geometry import laplace_operator_matrix
from .grids import GridSpec, dst1, require_same_grid

#: Smallest cooperation degree the search scans.
RHO_MIN = 0.05


class AccuracyWarning(UserWarning):
    """Step size large enough to degrade local accuracy (not stability)."""


# ---------------------------------------------------------------------------
# wave function


@dataclass
class WaveFunction:
    """Complex field on a two-axis strategy grid with a time stamp."""

    values: np.ndarray
    grid: GridSpec
    time: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if self.grid.n_axes != 2:
            raise ValidationError("wave functions live on two-axis grids")
        if v.shape != self.grid.shape:
            raise ValidationError("wave function shape does not match grid")
        if not np.all(np.isfinite(v)):
            raise ValidationError("wave function entries must be finite")
        self.values = v
        if not self.norm() > 0.0:
            raise ValidationError("wave function must have positive norm")

    def norm(self, weight=1.0):
        """Discrete L2 norm with the grid cell measure and a per-node
        weight, such as the ``metric.volume_density`` of the norm
        :func:`evolve` keeps."""
        density = np.abs(self.values) ** 2 * weight
        return float(np.sqrt(np.sum(density) * self.grid.cell_volume))

    def normalized(self, weight=1.0):
        """The field scaled to unit :meth:`norm` with the same weight."""
        return WaveFunction(self.values / self.norm(weight), self.grid, self.time)


def gaussian_packet(grid, width):
    """Normalized Gaussian packet ``exp(-|x - c|^2 / (4 width^2))`` about
    the centre ``c`` of the grid.

    ``width`` is the standard deviation of the probability density.  The
    boundary ring is set to zero to match the zero-boundary convention
    of the evolution operator.
    """
    xs, ys = grid.meshgrid()
    (a0, b0), (a1, b1) = grid.extents
    r2 = (xs - 0.5 * (a0 + b0)) ** 2 + (ys - 0.5 * (a1 + b1)) ** 2
    values = np.exp(-r2 / (4.0 * width**2)).astype(complex)
    values[0, :] = values[-1, :] = 0.0
    values[:, 0] = values[:, -1] = 0.0
    return WaveFunction(values, grid).normalized()


# ---------------------------------------------------------------------------
# kernel specification


@dataclass
class KernelSpec:
    """Parameters of the short-time transition kernel.

    Parameters
    ----------
    mass : float
        Large positive constant; the kernel sharpens as it grows.
    step : float
        Time step of one kernel application.
    effective_scale : float
        Scalar ``F0`` extracted from the action bracket.
    domain_halfwidth : float
        Half-width of the bounded displacement box the kernel is
        integrated over; the strategy domain is finite, so a fraction of
        the kernel mass sits outside it at finite mass and vanishes in
        the large-mass limit.
    """

    mass: float
    step: float
    effective_scale: float
    domain_halfwidth: float = 1.0

    def __post_init__(self):
        problems = []
        if not self.mass > 0:
            problems.append("mass must be positive")
        if not self.step > 0:
            problems.append("step must be positive")
        if not np.isfinite(self.effective_scale):
            problems.append("effective scale must be finite")
        if not self.domain_halfwidth > 0:
            problems.append("domain halfwidth must be positive")
        if problems:
            raise ValidationError("invalid kernel specification", problems)
        if not np.isfinite(self.variance):
            raise NumericalError("kernel variance (step / mass) F0 overflows")
        if not self.variance > 0:
            raise ValidationError("kernel variance (step / mass) F0 must be positive")

    @property
    def variance(self):
        """Per-axis variance ``(step/mass) F0`` of the step displacement,
        whose covariance is this times the 3x3 identity."""
        return (self.step / self.mass) * float(self.effective_scale)


# ---------------------------------------------------------------------------
# effective scale


@dataclass(frozen=True)
class EffectiveScale:
    values: np.ndarray
    not_strictly_increasing: bool


def effective_scalar_F(action_terms):
    """Scalar effective scale from the per-node action bracket.

    Contracting the defining relation with the background inverse metric
    turns the bracket into ``F`` times the trace of the background
    identity, so ``F = bracket / 11``.  The flag reports whether the
    result fails to increase strictly along the leading (time) axis
    anywhere, since the derivation assumes a strictly increasing scale.
    A metric that does not depend on time gives a bracket that does not
    either, so it sets the flag by construction; every metric preset
    (flat, matrix, sphere) is such a metric.
    """
    values = np.asarray(action_terms, dtype=float) / float(BACKGROUND_DIM)
    flag = bool(np.any(np.diff(values, axis=0) <= 0.0))
    return EffectiveScale(values=values, not_strictly_increasing=flag)


# ---------------------------------------------------------------------------
# kernel checks


def kernel_normalization_check(spec):
    """Deviation of the kernel mass inside the strategy box from one.

    Each axis of the isotropic kernel leaves the mass ``t = erfc(a /
    sqrt(2 sigma^2))`` outside ``[-a, a]``, so the box holds ``(1 - t)^3``
    and the deviation is ``t (3 - 3t + t^2)``, free of the cancellation
    in ``1 - (1 - t)^3``.  It is the mass that leaks outside the box and
    shrinks to zero as the mass constant grows.
    """
    t = math.erfc(spec.domain_halfwidth / math.sqrt(2.0 * spec.variance))
    return t * (3.0 - 3.0 * t + t * t)


# ---------------------------------------------------------------------------
# evolution


def evolve(psi, spec, metric, steps):
    """Crank-Nicolson evolution of the strategy field.

    Solves ``d_s psi = (i F0 / 2M) Lap psi`` with the divergence-form
    Laplace-Beltrami operator of the two-axis metric, zero boundary
    values and time step ``spec.step``, keeping
    ``psi.norm(metric.volume_density)`` to rounding.  The metric values
    alone choose between two paths that agree to rounding: if ``h_01`` is
    zero everywhere and ``h[i, j] == h[i, 0]`` for every ``j``,
    :func:`_propagate_modes` takes all steps at once.  Otherwise
    ``B = I - (h/2) G`` is factorized once, under a minimum-degree
    ordering of ``B^T + B`` (about half the LU fill of the column
    ordering), and every step is one solve, ``x' = 2 B^-1 x - x``, as
    ``I + (h/2) G = 2I - B``.  Emits :class:`AccuracyWarning` when
    ``step * F0 / (mass * spacing^2)`` exceeds one; Crank-Nicolson stays
    stable but local accuracy degrades.
    """
    grid = require_same_grid(psi, metric)
    if int(steps) < 0:
        raise ValidationError("step count must be non-negative")
    steps = int(steps)
    if steps == 0:
        return WaveFunction(psi.values.copy(), grid, psi.time)

    f0 = float(spec.effective_scale)
    min_spacing = min(grid.spacings)
    quality = spec.step * abs(f0) / (spec.mass * min_spacing**2)
    if quality > 1.0:
        warnings.warn(
            f"step quality factor {quality:.3g} > 1; expect degraded accuracy",
            AccuracyWarning,
            stacklevel=2,
        )

    rate = f0 / (2.0 * spec.mass)
    interior = psi.values[1:-1, 1:-1]
    separable = metric.dim == 2 and not np.any(metric.values[..., 0, 1]) and 1 not in metric.support
    if separable:
        inner = _propagate_modes(interior, metric, spec.step * rate, steps)
    else:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        generator = (1j * rate) * laplace_operator_matrix(metric)
        eye = sp.identity(generator.shape[0], format="csc", dtype=complex)
        try:
            backward = spla.splu(
                (eye - (0.5 * spec.step) * generator).tocsc(), permc_spec="MMD_AT_PLUS_A"
            )
        except RuntimeError as exc:  # SuperLU reports a zero pivot this way
            raise NumericalError(f"Crank-Nicolson matrix cannot be factorized: {exc}") from exc
        vec = interior.reshape(-1).astype(complex)
        for _ in range(steps):
            vec = 2.0 * backward.solve(vec) - vec
        inner = vec.reshape(interior.shape)
    if not np.all(np.isfinite(inner)):
        raise NumericalError("evolution produced non-finite values")

    values = np.zeros(grid.shape, dtype=complex)
    values[1:-1, 1:-1] = inner
    return WaveFunction(values, grid, psi.time + steps * spec.step)


def _propagate_modes(interior, metric, theta, steps):
    """``steps`` Crank-Nicolson steps in closed form on a metric that is
    diagonal and constant along axis 1 (fast Poisson solver idea: Buzbee,
    Golub & Nielson, SIAM J. Numer. Anal. 1970).

    The orthonormal DST-I along axis 1 diagonalizes the Dirichlet second
    difference there, with eigenvalues ``-4 sin^2(pi k / (2 (m2 + 1)))``
    over ``h1^2``.  Under the similarity ``diag(sqrt s)`` each sine mode is
    then a symmetric tridiagonal matrix along axis 0, ``V diag(lam) V^T``,
    and ``steps`` Crank-Nicolson steps with ``G = (i theta / step) Lap``
    are ``V diag(R^steps) V^T``, ``R = (1 + i theta lam / 2) /
    (1 - i theta lam / 2) = exp(2i arctan(theta lam / 2))``: unimodular
    by construction.  The DST-I is :func:`semicoop.grids.dst1` and each
    mode's tridiagonal goes to the dense ``numpy.linalg.eigh``: numpy
    alone, at ``O(m1^3)`` time and ``O(m1^2)`` memory per mode for an
    ``m1 x m2`` interior.  scipy is imported only by the LU fallback of
    :func:`evolve`.
    """
    h0, h1 = metric.grid.spacings
    m2 = interior.shape[1]
    s = metric.volume_density[:, 0]
    hinv = metric.inverse[:, 0]
    flux0 = s * hinv[:, 0, 0]
    face = 0.5 * (flux0[1:] + flux0[:-1]) / h0**2
    row1 = (s * hinv[:, 1, 1])[1:-1] / h1**2
    root = np.sqrt(s[1:-1])
    sine = -4.0 * np.sin(0.5 * np.pi * np.arange(1, m2 + 1) / (m2 + 1)) ** 2
    off = face[1:-1] / (root[:-1] * root[1:])

    ortho = np.sqrt(0.5 / (m2 + 1))  # rounds as scipy's norm="ortho" factor does
    tri = np.diag(off, -1)  # eigh reads the lower triangle
    modes = dst1(interior, 1) * ortho * root[:, None]
    for k in range(m2):
        np.fill_diagonal(tri, (sine[k] * row1 - face[1:] - face[:-1]) / s[1:-1])
        lam, vecs = np.linalg.eigh(tri)
        phase = np.exp((2j * steps) * np.arctan(0.5 * theta * lam))
        modes[:, k] = vecs @ (phase * (vecs.T @ modes[:, k]))
    return dst1(modes / root[:, None], 1) * ortho


# ---------------------------------------------------------------------------
# cooperation-degree search


@dataclass(frozen=True)
class RhoSearchResult:
    """Outcome of the cooperation-degree scan: ``rho_star`` is the largest
    of the interior maxima of ``|F0|`` (``stationary_points``) and the two
    ends of the range (``boundary_flag`` set when an end wins), or None
    when ``|F0|`` is flat (``degenerate_flag`` set)."""

    rho_star: float
    stationary_points: tuple
    boundary_flag: bool
    degenerate_flag: bool


def optimal_rho(rho_to_scale, grid=64):
    """Stationary cooperation degree of the evolution rate.

    The rate ``|F0(rho)| / (2M) * ||Lap psi||`` depends on ``rho`` only
    through ``F0 = rho_to_scale(rho)``, so ``rho*`` is a property of
    ``|F0|`` alone and depends on neither the metric, the field nor the
    mass.  A negative ``F0`` is scanned by its magnitude, as the kernel
    stage uses it; a non-finite one is a :class:`NumericalError` naming
    ``rho``.  The scan covers ``[RHO_MIN, 1]`` with ``grid`` uniform
    nodes; ``|F0|`` is flat when its range on them is within ``1e-12`` of
    its maximum.  Each + to - sign change of its
    ``np.gradient``, taken at the two end nodes by the difference below so
    that the end intervals count, brackets a maximum, bisected to
    ``1e-15`` on the signs of the centered difference (step ``1e-6``,
    clipped to the interval), so rescaling ``F0`` moves ``rho*`` only where
    rounding zeroes that difference, by under ``1e-9``.
    """
    grid_n = int(grid)
    if grid_n < 16:
        raise ValidationError("cooperation-degree grid needs at least 16 points")

    def objective(rho):
        f0 = rho_to_scale(float(rho))
        if np.ndim(f0) != 0:
            raise ValidationError("cooperation scan needs a scalar effective scale")
        if not np.isfinite(f0):
            raise NumericalError(f"effective scale is {float(f0)} at rho = {float(rho)!r}")
        return abs(float(f0))

    def derivative(rho):
        lo, hi = max(RHO_MIN, rho - 1e-6), min(1.0, rho + 1e-6)
        return (objective(hi) - objective(lo)) / (hi - lo)

    rhos = np.linspace(RHO_MIN, 1.0, grid_n)
    j = np.array([objective(r) for r in rhos])
    # relative flatness test: the overall scale of F0 is arbitrary
    if j.max() - j.min() <= 1e-12 * j.max():
        return RhoSearchResult(None, (), False, True)

    # signs, not products, so that no scale of F0 underflows a comparison
    sign = np.sign(np.gradient(j, rhos))
    sign[[0, -1]] = np.sign([derivative(rhos[0]), derivative(rhos[-1])])
    maxima = []
    for k in np.flatnonzero((sign[:-1] > 0.0) & (sign[1:] <= 0.0)):
        dlo, dhi = derivative(rhos[k]), derivative(rhos[k + 1])
        if np.sign(dlo) == np.sign(dhi) != 0.0:  # turns just outside: next interval
            k += 1 if dlo > 0.0 else -1
            dlo, dhi = derivative(rhos[k]), derivative(rhos[k + 1])
        lo, hi = rhos[k], rhos[k + 1]
        if np.sign(dlo) == np.sign(dhi) != 0.0:  # still one sign: nearer node
            lo = hi = lo if abs(dlo) <= abs(dhi) else hi
        while hi - lo > 1e-15:
            mid = 0.5 * (lo + hi)
            side = np.sign(derivative(mid))
            if side == 0.0:  # flat to rounding: stop at the first such point
                lo = hi = mid
            elif side == np.sign(dhi):
                hi = mid
            else:
                lo = mid
        maxima.append(float(0.5 * (lo + hi)))

    maxima = tuple(dict.fromkeys(round(s, 12) for s in maxima))
    candidates = maxima + (float(rhos[0]), float(rhos[-1]))
    best = int(np.argmax([objective(c) for c in candidates]))
    return RhoSearchResult(candidates[best], maxima, best >= len(maxima), False)
