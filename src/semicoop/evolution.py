"""Transition kernels and the phase-evolution of the strategy field.

The short-time transition kernel is Gaussian in the step displacement
with covariance ``(eps/M) * F0 * hinv`` on the three world-volume
directions; in imaginary-time (Wick) mode it is a genuine probability
density that can be integrated and sampled, which is where the
normalization and correlation facts are established.  Real-time
evolution runs instead through the limiting differential equation

    d_s psi = (i / 2M) * F0 * covariant_laplacian(psi)

stepped with Crank-Nicolson on the two real strategy axes, which is
unitary whenever the discrete generator is self-adjoint (flat metric).

The effective scale ``F0`` is extracted from the per-node action bracket,
less the curvature potential ``Q * R * xbar``, by contracting both sides
of the defining relation with the background inverse metric, which
divides the scalar by the background dimension.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
        if not np.all(np.isfinite(v.view(float))):
            raise ValidationError("wave function entries must be finite")
        self.values = v
        if not self.norm() > 0.0:
            raise ValidationError("wave function must have positive norm")

    def norm(self):
        """Discrete L2 norm with the grid cell measure."""
        return float(
            np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume)
        )

    def normalized(self):
        return WaveFunction(self.values / self.norm(), self.grid, self.time)


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
            eig = np.linalg.eigvalsh(cov)
            if eig.min() <= 0:
                raise ValidationError(
                    "kernel covariance must be positive definite in Wick mode"
                )

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

    def density(self):
        """Normalized Gaussian density of the displacement (Wick mode)."""
        if self.mode != WICK:
            raise ValidationError("a samplable density exists only in Wick mode")
        cov = self.covariance()
        prec = np.linalg.inv(cov)
        norm = 1.0 / np.sqrt((2.0 * np.pi) ** 3 * np.linalg.det(cov))

        def kernel(xi):
            xi = np.asarray(xi, dtype=float)
            quad = np.einsum("...a,ab,...b->...", xi, prec, xi)
            return norm * np.exp(-0.5 * quad)

        return kernel


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

    Integrates the Wick-mode kernel over the bounded displacement box by
    composite Gauss-Legendre quadrature (panels split at a few standard
    deviations so the concentrated peak is resolved) and returns
    ``|integral - 1|``.  The deviation is the mass that leaks outside
    the box; it shrinks to zero as the mass constant grows.
    """
    if spec.mode != WICK:
        raise ValidationError("normalization check runs in Wick mode")
    cov = spec.covariance()
    density = spec.density()
    a = spec.domain_halfwidth
    sigma_max = float(np.sqrt(np.linalg.eigvalsh(cov).max()))
    breaks = [-7.0 * sigma_max, 7.0 * sigma_max]

    axes = [_panel_nodes(-a, a, breaks, int(sample_count)) for _ in range(3)]
    x0, w0 = axes[0]
    x1, w1 = axes[1]
    x2, w2 = axes[2]
    xi = np.stack(
        np.meshgrid(x0, x1, x2, indexing="ij"), axis=-1
    )
    vals = density(xi)
    integral = float(np.einsum("i,j,k,ijk->", w0, w1, w2, vals))
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


def evolve(psi, spec, metric, chris, steps):
    """Crank-Nicolson evolution of the strategy field.

    Solves ``d_s psi = (i F0 / 2M) Lap psi`` with the covariant Laplacian
    of the supplied two-axis metric, zero boundary values and time step
    ``spec.step``.  The interior operator is factorized once and reused
    across steps.  Emits :class:`AccuracyWarning` when
    ``step * F0 / (mass * spacing^2)`` exceeds one; Crank-Nicolson stays
    stable but local accuracy degrades.
    """
    grid = require_same_grid(psi, metric, chris)
    if int(steps) < 0:
        raise ValidationError("step count must be non-negative")
    steps = int(steps)
    if steps == 0:
        return WaveFunction(psi.values.copy(), grid, psi.time)

    f0 = spec.effective_scale
    if np.ndim(f0) == 0:
        f0_int = float(f0)
        f0_max = abs(f0_int)
    else:
        f0 = np.asarray(f0, dtype=float)
        if f0.shape != grid.shape:
            raise ValidationError("effective scale grid does not match")
        f0_int = f0[1:-1, 1:-1].reshape(-1)
        f0_max = float(np.abs(f0).max())
    min_spacing = min(grid.spacings)
    quality = spec.step * f0_max / (spec.mass * min_spacing**2)
    if quality > 1.0:
        warnings.warn(
            f"step quality factor {quality:.3g} > 1; expect degraded accuracy",
            AccuracyWarning,
            stacklevel=2,
        )

    lap = laplace_operator_matrix(metric, chris)
    size = lap.shape[0]
    if np.ndim(f0_int) == 0:
        generator = (1j * f0_int / (2.0 * spec.mass)) * lap
    else:
        generator = sp.diags(1j * f0_int / (2.0 * spec.mass)) @ lap
    eye = sp.identity(size, format="csc", dtype=complex)
    half = 0.5 * spec.step
    forward = (eye + half * generator).tocsr()
    backward = spla.splu((eye - half * generator).tocsc())

    vec = psi.values[1:-1, 1:-1].reshape(-1).astype(complex)
    for _ in range(steps):
        vec = backward.solve(forward @ vec)
    if not np.all(np.isfinite(vec.view(float))):
        raise NumericalError("evolution produced non-finite values")

    values = np.zeros(grid.shape, dtype=complex)
    m1, m2 = grid.shape[0] - 2, grid.shape[1] - 2
    values[1:-1, 1:-1] = vec.reshape(m1, m2)
    return WaveFunction(values, grid, psi.time + steps * spec.step)


# ---------------------------------------------------------------------------
# cooperation-degree search


@dataclass(frozen=True)
class RhoSearchResult:
    """Outcome of the cooperation-degree scan.

    ``rho_star`` is the stationary point with the largest objective, or
    the boundary argmax when no interior stationary point exists
    (``boundary_flag`` set), or None when the objective is flat
    (``degenerate_flag`` set).
    """

    rho_star: float
    stationary_points: tuple
    boundary_flag: bool
    degenerate_flag: bool
    rho_grid: np.ndarray
    objective: np.ndarray


def optimal_rho(
    spec_builder,
    psi,
    metric,
    chris,
    grid=64,
    rho_min=0.05,
    refine_iterations=60,
):
    """Stationary cooperation degree of the evolution-rate objective.

    ``spec_builder`` maps a cooperation degree in ``(0, 1]`` to a
    :class:`KernelSpec`; the objective is the norm of the evolution
    right-hand side.  The scan evaluates the objective on a uniform
    grid, locates sign changes of the centered derivative, refines each
    by bisection on the derivative, and reports every stationary point.
    """
    grid_n = int(grid)
    if grid_n < 16:
        raise ValidationError("cooperation-degree grid needs at least 16 points")
    if not 0.0 < rho_min < 1.0:
        raise ValidationError("rho_min must lie in (0,1)")

    lap = laplace_operator_matrix(metric, chris)
    vec = psi.values[1:-1, 1:-1].reshape(-1).astype(complex)
    base = lap @ vec
    base_norm = float(np.linalg.norm(base) * np.sqrt(psi.grid.cell_volume))

    def objective(rho):
        spec = spec_builder(float(rho))
        f0 = spec.effective_scale
        if np.ndim(f0) != 0:
            raise ValidationError("cooperation scan needs a scalar effective scale")
        return abs(float(f0)) / (2.0 * spec.mass) * base_norm

    rhos = np.linspace(rho_min, 1.0, grid_n)
    j = np.array([objective(r) for r in rhos])

    scale = max(abs(j).max(), 1.0)
    if j.max() - j.min() <= 1e-12 * scale:
        return RhoSearchResult(None, (), False, True, rhos, j)

    dj = np.gradient(j, rhos)

    def derivative(rho):
        h = 1e-6
        lo = max(rho_min, rho - h)
        hi = min(1.0, rho + h)
        return (objective(hi) - objective(lo)) / (hi - lo)

    stationary = []
    interior = dj[1:-1]
    for i in range(len(interior) - 1):
        a, b = rhos[i + 1], rhos[i + 2]
        da, db = interior[i], interior[i + 1]
        if da == 0.0:
            stationary.append(float(a))
            continue
        if da * db < 0.0:
            lo, hi, dlo = a, b, da
            for _ in range(refine_iterations):
                mid = 0.5 * (lo + hi)
                dm = derivative(mid)
                if dm == 0.0:
                    lo = hi = mid
                    break
                if dlo * dm < 0.0:
                    hi = mid
                else:
                    lo, dlo = mid, dm
            stationary.append(0.5 * (lo + hi))
    if interior[-1] == 0.0:
        stationary.append(float(rhos[-2]))

    stationary = tuple(dict.fromkeys(round(s, 12) for s in stationary))
    if not stationary:
        best = float(rhos[np.argmax(j)])
        return RhoSearchResult(best, (), True, False, rhos, j)
    best = max(stationary, key=objective)
    return RhoSearchResult(float(best), stationary, False, False, rhos, j)
