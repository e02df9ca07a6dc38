"""Transition kernels and the phase-evolution of the strategy field.

The short-time transition kernel is Gaussian in the step displacement
with covariance ``(eps/M) * F0 * hinv`` on the three world-volume
directions; in imaginary-time (Wick) mode it is a genuine probability
density that can be integrated and sampled, which is where the
normalization and correlation facts are established.  Real-time
evolution runs instead through the limiting differential equation

    d_s psi = (i / 2M) * F0 * Lap_h psi

stepped with Crank-Nicolson on the two real strategy axes.  ``Lap_h`` is
the divergence-form Laplace-Beltrami operator, self-adjoint in the
``sqrt|det h|``-weighted inner product, so the evolution is unitary in
that weighted norm on every metric.  A metric that is diagonal and
equal along axis 1 is propagated in closed form, one sine mode at a
time; any other metric takes one sparse LU solve per step.

The effective scale ``F0`` is extracted from the per-node action bracket,
less the curvature potential ``Q * R * xbar``, by contracting both sides
of the defining relation with the background inverse metric, which
divides the scalar by the background dimension.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal
from scipy.special import ndtr

from .brane import BACKGROUND_DIM
from .errors import NumericalError, ValidationError
from .geometry import laplace_operator_matrix
from .grids import GridSpec, require_same_grid

WICK = "wick"
LORENTZIAN = "lorentzian"


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


def gaussian_packet(grid, width, center=None, wavevector=None):
    """Normalized Gaussian packet ``exp(-|x - c|^2 / (4 width^2))``.

    ``width`` is the standard deviation of the probability density.  The
    boundary ring is set to zero to match the zero-boundary convention
    of the evolution operator.
    """
    xs, ys = grid.meshgrid()
    if center is None:
        center = (
            0.5 * (grid.extents[0][0] + grid.extents[0][1]),
            0.5 * (grid.extents[1][0] + grid.extents[1][1]),
        )
    r2 = (xs - center[0]) ** 2 + (ys - center[1]) ** 2
    values = np.exp(-r2 / (4.0 * width**2)).astype(complex)
    if wavevector is not None:
        values = values * np.exp(
            1j * (wavevector[0] * (xs - center[0]) + wavevector[1] * (ys - center[1]))
        )
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
    background_inverse : ndarray (3, 3)
        Inverse-metric block of the background on the world directions.
    world_det, background_det : float
        Determinants entering the normalization bookkeeping constant.
    mode : "wick" or "lorentzian"
    domain_halfwidth : float
        Half-width of the bounded displacement box the kernel is
        integrated over; the strategy domain is finite, so a fraction of
        the kernel mass sits outside it at finite mass and vanishes in
        the large-mass limit.
    """

    mass: float
    step: float
    effective_scale: float
    background_inverse: np.ndarray = field(
        default_factory=lambda: np.eye(3)
    )
    world_det: float = 1.0
    background_det: float = 1.0
    mode: str = WICK
    domain_halfwidth: float = 1.0

    def __post_init__(self):
        problems = []
        if not self.mass > 0:
            problems.append("mass must be positive")
        if not self.step > 0:
            problems.append("step must be positive")
        if not np.isfinite(self.effective_scale):
            problems.append("effective scale must be finite")
        if self.mode not in (WICK, LORENTZIAN):
            problems.append("mode must be 'wick' or 'lorentzian'")
        if not self.domain_halfwidth > 0:
            problems.append("domain halfwidth must be positive")
        self.background_inverse = np.asarray(self.background_inverse, dtype=float)
        if self.background_inverse.shape != (3, 3):
            problems.append("background inverse block must be 3x3")
        if problems:
            raise ValidationError("invalid kernel specification", problems)
        if self.mode == WICK:
            cov = self.covariance()
            if not np.all(np.isfinite(cov)):
                raise NumericalError("kernel covariance (step / mass) F0 hinv overflows")
            if np.linalg.eigvalsh(cov).min() <= 0:
                raise ValidationError("kernel covariance must be positive definite in Wick mode")

    @property
    def normalization(self):
        """Bookkeeping constant ``sqrt(world_det * background_det) / 2``."""
        return float(np.sqrt(self.world_det * self.background_det) / 2.0)

    def covariance(self):
        """Step-displacement covariance ``(step/mass) F0 hinv``."""
        return (
            (self.step / self.mass)
            * float(self.effective_scale)
            * self.background_inverse
        )


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
    """
    terms = np.asarray(action_terms, dtype=float)
    values = terms / float(BACKGROUND_DIM)
    flag = False
    if values.ndim >= 1 and values.shape[0] >= 2:
        diffs = np.diff(values, axis=0)
        flag = bool(np.any(diffs <= 0.0))
    return EffectiveScale(values=values, not_strictly_increasing=flag)


# ---------------------------------------------------------------------------
# kernel checks


def _panel_nodes(lo, hi, breaks, n):
    """Composite Gauss-Legendre nodes/weights over panel subdivisions."""
    base_x, base_w = np.polynomial.legendre.leggauss(n)
    edges = [lo] + [b for b in breaks if lo < b < hi] + [hi]
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        xs.append(a + half * (base_x + 1.0))
        ws.append(half * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def kernel_normalization_check(spec, sample_count=64):
    """Deviation of the kernel mass inside the strategy box from one.

    Integrates the Wick-mode kernel over the bounded displacement box
    and returns ``|integral - 1|``.  The third axis is done in closed
    form: given ``u = (x0, x1)`` the displacement ``x2`` is Gaussian with
    mean ``u . S_uu^-1 S_u2`` and variance ``S_22 - S_2u S_uu^-1 S_u2``,
    so its box mass is a difference of two normal CDFs.  The remaining
    two axes use composite Gauss-Legendre quadrature, with panels split
    at 7 and 9 marginal standard deviations of each axis: the inner
    panel resolves the peak, the next ones the tail out to 9 sigma, and
    the outer ones hold under 1e-18 of the mass, so a Gaussian the box
    contains reads zero to rounding.  The deviation is the mass that
    leaks outside the box; it shrinks to zero as the mass constant grows.
    """
    if spec.mode != WICK:
        raise ValidationError("normalization check runs in Wick mode")
    cov = spec.covariance()
    a, n = spec.domain_halfwidth, int(sample_count)
    (x0, w0), (x1, w1) = (
        _panel_nodes(-a, a, np.sqrt(cov[k, k]) * np.array([-9.0, -7.0, 7.0, 9.0]), n)
        for k in range(2)
    )

    cov_uu = cov[:2, :2]
    prec_uu = np.linalg.inv(cov_uu)
    gain = prec_uu @ cov[:2, 2]
    cond_std = np.sqrt(cov[2, 2] - cov[2, :2] @ gain)
    x0, x1 = x0[:, None], x1[None, :]
    quad = prec_uu[0, 0] * x0**2 + 2.0 * prec_uu[0, 1] * x0 * x1 + prec_uu[1, 1] * x1**2
    marginal = np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(np.linalg.det(cov_uu)))
    mean = gain[0] * x0 + gain[1] * x1
    axis2 = ndtr((a - mean) / cond_std) - ndtr((-a - mean) / cond_std)
    integral = float(w0 @ (marginal * axis2) @ w1)
    return abs(integral - 1.0)


def two_point_correlation(spec, samples, seed):
    """Sample covariance of seeded kernel draws (3x3 matrix estimate).

    Draws in Wick mode, where the kernel is a true Gaussian; the
    estimate converges to ``(step/mass) * F0 * hinv``.
    """
    if spec.mode != WICK:
        raise ValidationError("sampling runs in Wick mode")
    samples = int(samples)
    if samples < 2:
        raise ValidationError("need at least 2 samples")
    cov = spec.covariance()
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValidationError("kernel covariance must be positive definite")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    draws = rng.standard_normal((samples, 3)) @ factor.T
    return np.cov(draws, rowvar=False)


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
    h = metric.values
    separable = metric.dim == 2 and not np.any(h[..., 0, 1]) and np.all(h == h[:, :1])
    if separable:
        inner = _propagate_modes(interior, metric, spec.step * rate, steps)
    else:
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
    by construction.
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

    modes = scipy.fft.dst(interior, type=1, norm="ortho", axis=1) * root[:, None]
    for k in range(m2):
        diag = (sine[k] * row1 - face[1:] - face[:-1]) / s[1:-1]
        lam, vecs = eigh_tridiagonal(diag, off)
        phase = np.exp((2j * steps) * np.arctan(0.5 * theta * lam))
        modes[:, k] = vecs @ (phase * (vecs.T @ modes[:, k]))
    return scipy.fft.dst(modes / root[:, None], type=1, norm="ortho", axis=1)


# ---------------------------------------------------------------------------
# cooperation-degree search


@dataclass(frozen=True)
class RhoSearchResult:
    """Outcome of the cooperation-degree scan.

    ``rho_star`` is the stationary point with the largest ``|F0|``, or
    the boundary argmax when no interior stationary point exists
    (``boundary_flag`` set), or None when ``|F0|`` is flat
    (``degenerate_flag`` set).
    """

    rho_star: float
    stationary_points: tuple
    boundary_flag: bool
    degenerate_flag: bool


def optimal_rho(rho_to_scale, grid=64, rho_min=0.05):
    """Stationary cooperation degree of the evolution rate.

    The rate ``|F0(rho)| / (2M) * ||Lap psi||`` depends on ``rho`` only
    through ``F0 = rho_to_scale(rho)``, so ``rho*`` is a property of
    ``|F0|`` alone and depends on neither the metric, the field nor the
    mass.  A negative ``F0`` is scanned by its magnitude, as the kernel
    stage uses it; a non-finite one is a :class:`NumericalError` naming
    ``rho``.  ``|F0|`` is flat when its range on the uniform grid is
    within ``1e-12`` of its maximum.  Each sign change of its
    ``np.gradient`` brackets a stationary point, bisected to ``1e-15`` on
    the signs of the centered difference (step ``1e-6``, clipped to the
    interval), so rescaling ``F0`` moves ``rho*`` only where rounding
    zeroes that difference, by under ``1e-9``.
    """
    grid_n = int(grid)
    if grid_n < 16:
        raise ValidationError("cooperation-degree grid needs at least 16 points")
    if not 0.0 < rho_min < 1.0:
        raise ValidationError("rho_min must lie in (0,1)")

    def objective(rho):
        f0 = rho_to_scale(float(rho))
        if np.ndim(f0) != 0:
            raise ValidationError("cooperation scan needs a scalar effective scale")
        if not np.isfinite(f0):
            raise NumericalError(f"effective scale is {float(f0)} at rho = {float(rho)!r}")
        return abs(float(f0))

    def derivative(rho):
        lo, hi = max(rho_min, rho - 1e-6), min(1.0, rho + 1e-6)
        return (objective(hi) - objective(lo)) / (hi - lo)

    rhos = np.linspace(rho_min, 1.0, grid_n)
    j = np.array([objective(r) for r in rhos])
    # relative flatness test: the overall scale of F0 is arbitrary
    if j.max() - j.min() <= 1e-12 * j.max():
        return RhoSearchResult(None, (), False, True)

    # signs, not products, so that no scale of F0 underflows a comparison
    sign = np.sign(np.gradient(j, rhos))
    stationary = []
    for k in range(1, grid_n - 1):
        if sign[k] == 0.0:
            stationary.append(float(rhos[k]))
        elif k < grid_n - 2 and sign[k] * sign[k + 1] < 0.0:
            lo, hi = rhos[k], rhos[k + 1]
            dlo, dhi = derivative(lo), derivative(hi)
            if np.sign(dlo) == np.sign(dhi) != 0.0:  # turns just outside: nearer node
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
            stationary.append(float(0.5 * (lo + hi)))

    stationary = tuple(dict.fromkeys(round(s, 12) for s in stationary))
    if not stationary:
        return RhoSearchResult(float(rhos[np.argmax(j)]), (), True, False)
    best = max(stationary, key=objective)
    return RhoSearchResult(float(best), stationary, False, False)
