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
equal along axis 1 is propagated in closed form with numpy alone: a
DST-I turns the ``m1 x m2`` interior into ``m2`` sine modes, each a
tridiagonal problem along axis 0, and the ``steps``-th power of the
Crank-Nicolson factor is applied to all modes at once by a Chebyshev
series of about ``2a + 10`` tridiagonal products, ``a`` the largest
phase rate over the spectrum's interval, when ``a <= m1``; stiffer
steps take one dense symmetric eigenproblem per mode, ``O(m1^3)``
each.  Any other metric takes one sparse LU solve per step; that
fallback is the only place this module imports scipy.

``F0`` is the initial time plane's mean of the action bracket, potential
``Q * R * xbar`` included, over the background dimension.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .brane import BACKGROUND_DIM
from .errors import NumericalError, ValidationError
from .geometry import _unbroadcast, laplace_operator_matrix
from .grids import GridSpec, dst1, require_same_grid

#: Smallest cooperation degree the search considers.
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


def effective_scalar_F(bracket):
    """Scalar effective scale from the per-node action bracket, potential
    included, of :func:`semicoop.brane.scalar_action_terms`.

    Contracting the defining relation with the background inverse metric
    turns the bracket into ``F`` times the trace of the background
    identity, so ``F = bracket / 11``.  The flag reports whether the
    result fails to increase strictly along the leading (time) axis
    anywhere, since the derivation assumes a strictly increasing scale.
    A metric that does not depend on time gives a bracket that does not
    either, so it sets the flag by construction; every metric preset
    (flat, matrix, sphere) is such a metric.  ``F`` is formed on the
    bracket's profile, its broadcast axes cut, and broadcast back.
    """
    profile = _unbroadcast(np.asarray(bracket, dtype=float), np.ndim(bracket)) / BACKGROUND_DIM
    with np.errstate(invalid="ignore"):  # the kernel stage reports a non-finite scale
        flag = len(profile) < len(bracket) or bool(np.any(np.diff(profile, axis=0) <= 0.0))
    return EffectiveScale(np.broadcast_to(profile, np.shape(bracket)), flag)


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
    :func:`_propagate_modes` takes all steps at once, by a Chebyshev
    recurrence of about ``2a + 10`` products over all sine modes when
    the largest phase rate ``a`` on the spectrum's interval is at most
    ``m1``, the interior's node count along axis 0, and by one ``eigh``
    per mode otherwise.  Otherwise
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
    then a symmetric tridiagonal matrix ``T_k`` along axis 0, and
    ``steps`` Crank-Nicolson steps with ``G = (i theta / step) Lap`` are
    ``R(T_k)^steps``, ``R(lam) = (1 + i theta lam / 2) / (1 - i theta
    lam / 2)``, so ``R^steps = exp(2i steps arctan(theta lam / 2))``:
    unimodular by construction.  The DST-I is
    :func:`semicoop.grids.dst1`.

    One Gershgorin interval ``[lo, hi]`` holds the spectrum of every
    ``T_k``.  Over it the phase turns at most ``steps |theta|`` per unit
    of ``lam``, so ``a = steps |theta| (hi - lo) / 2`` is its largest rate
    on the interval mapped to ``[-1, 1]``.  When ``0 < a <= m1``,
    :func:`_chebyshev_phase` applies ``R^steps`` to all modes at once
    with a Chebyshev series of about ``2a + 10`` terms, one tridiagonal
    product over the whole ``m1 x m2`` array a term, within about
    ``1e-14`` of the eigendecomposition.  Otherwise each mode goes to
    the dense ``numpy.linalg.eigh``, ``V diag(R(lam)^steps) V^T``, at
    ``O(m1^3)`` time per mode.  That branch is kept for stiff steps (a
    quality factor above one, many steps): there the series would need
    a degree that grows with the total phase, far beyond the ``m1``
    where ``eigh`` becomes the cheaper of the two, and the rounding of
    so long a recurrence grows with it.  ``a`` is not finite for a
    non-finite ``theta``, which therefore takes the ``eigh`` branch and
    ends in non-finite values.  Both branches use numpy alone; scipy is
    imported only by the LU fallback of :func:`evolve`.
    """
    h0, h1 = metric.grid.spacings
    m1, m2 = interior.shape
    s = metric.volume_density[:, 0]
    hinv = metric.inverse[:, 0]
    flux0 = s * hinv[:, 0, 0]
    face = 0.5 * (flux0[1:] + flux0[:-1]) / h0**2
    row1 = (s * hinv[:, 1, 1])[1:-1] / h1**2
    root = np.sqrt(s[1:-1])
    sine = -4.0 * np.sin(0.5 * np.pi * np.arange(1, m2 + 1) / (m2 + 1)) ** 2
    off = face[1:-1] / (root[:-1] * root[1:])
    diag = (sine * row1[:, None] - face[1:, None] - face[:-1, None]) / s[1:-1, None]

    radius = np.zeros(m1)
    radius[1:] += np.abs(off)
    radius[:-1] += np.abs(off)
    lo = float(np.min(diag - radius[:, None]))
    hi = float(np.max(diag + radius[:, None]))
    rate = steps * abs(theta) * 0.5 * (hi - lo)

    ortho = np.sqrt(0.5 / (m2 + 1))  # rounds as scipy's norm="ortho" factor does
    modes = dst1(interior, 1) * ortho * root[:, None]
    if 0.0 < rate <= m1:
        modes = _chebyshev_phase(modes, diag, off, lo, hi, theta, steps, rate)
    else:
        tri = np.diag(off, -1)  # eigh reads the lower triangle
        for k in range(m2):
            np.fill_diagonal(tri, diag[:, k])
            lam, vecs = np.linalg.eigh(tri)
            phase = np.exp((2j * steps) * np.arctan(0.5 * theta * lam))
            modes[:, k] = vecs @ (phase * (vecs.T @ modes[:, k]))
    return dst1(modes / root[:, None], 1) * ortho


#: Chebyshev coefficients of the phase no larger than this times the sum
#: of all their magnitudes are dropped: below it they hold the rounding
#: of the sampled phase rather than the phase.
CHEBYSHEV_CUT = 4e-15


def _chebyshev_phase(modes, diag, off, lo, hi, theta, steps, rate):
    """``exp(2i steps arctan(theta T_k / 2))`` applied to column ``k`` of
    ``modes`` for every ``k`` at once, ``T_k`` the symmetric tridiagonal
    with diagonal ``diag[:, k]`` and off-diagonal ``off``, its spectrum
    inside ``[lo, hi]``.

    With ``lam = c + w t``, ``c`` and ``w`` the interval's centre and
    half-width, the phase is sampled at the ``N + 1`` Chebyshev-Lobatto
    points ``t = cos(pi i / N)``, ``N`` the smallest power of two at
    least ``4 rate + 64``, and one DCT-I of the samples, an FFT of their
    even extension, gives its Chebyshev coefficients (Trefethen,
    *Approximation Theory and Approximation Practice*, ch. 3).  ``rate``
    bounds the phase's slope in ``t``, so the coefficients fall off
    super-exponentially beyond about ``rate`` and reach
    :data:`CHEBYSHEV_CUT` near ``2 rate + 10``, where the series stops.
    ``sum_j c_j T_j(M) x``, ``M = (T_k - c) / w`` with its spectrum in
    ``[-1, 1]``, then runs the three-term recurrence ``T_j+1 = 2 M T_j -
    T_j-1`` on the real and imaginary parts side by side: a handful of
    array operations over all modes a term.
    """
    centre, width = 0.5 * (hi + lo), 0.5 * (hi - lo)
    count = 1 << (math.ceil(4.0 * rate + 64.0) - 1).bit_length()
    samples = np.exp((2j * steps) * np.arctan(
        0.5 * theta * (centre + width * np.cos(np.pi * np.arange(count + 1) / count))
    ))
    coef = np.fft.fft(np.concatenate([samples, samples[-2:0:-1]]))[: count + 1] / count
    coef[0] *= 0.5
    coef[count] *= 0.5
    size = np.abs(coef)
    degree = int(np.flatnonzero(size > CHEBYSHEV_CUT * size.sum())[-1])

    # 2 M on the real and imaginary parts of the modes, interleaved along axis 1
    # (full arrays: a broadcast operand makes numpy's inner loop slower)
    twice_diag = np.repeat((2.0 / width) * (diag - centre), 2, axis=1)
    twice_off = np.repeat((2.0 / width) * off, twice_diag.shape[1]).reshape(-1, twice_diag.shape[1])
    scratch = np.empty_like(twice_off)

    def doubled(x, y):
        np.multiply(twice_diag, x, out=y)
        y[1:] += np.multiply(twice_off, x[:-1], out=scratch)
        y[:-1] += np.multiply(twice_off, x[1:], out=scratch)
        return y

    out = coef[0] * modes
    prev = modes.view(float)  # free to overwrite once out holds coef[0] * modes
    cur = doubled(prev, np.empty_like(prev))
    cur *= 0.5
    nxt = np.empty_like(cur)
    for c in coef[1:degree]:
        out += c * cur.view(complex)
        doubled(cur, nxt)
        nxt -= prev
        prev, cur, nxt = cur, nxt, prev
    if degree:
        out += coef[degree] * cur.view(complex)
    return out


# ---------------------------------------------------------------------------
# cooperation-degree search


@dataclass(frozen=True)
class RhoSearchResult:
    """Outcome of the cooperation-degree search: ``rho_star`` is the
    candidate with the largest ``|F0|``, among the interior maxima
    (``stationary_points``) and the two ends of the range, or None when
    no candidate is preferred.  ``reason`` says which: ``"vertex"`` (an
    interior maximum wins), ``"end"`` (``RHO_MIN`` or 1 wins,
    ``boundary_flag`` set) or ``"flat"`` (``degenerate_flag`` set)."""

    rho_star: float
    stationary_points: tuple
    boundary_flag: bool
    degenerate_flag: bool
    reason: str


def optimal_rho(rho_to_scale, stationary):
    """Cooperation degree of the largest evolution rate.

    The rate ``|F0(rho)| / (2M) * ||Lap psi||`` depends on ``rho`` only
    through ``F0 = rho_to_scale(rho)``, so ``rho*`` is a property of
    ``|F0|`` alone, which the metric and curvature enter, and depends on
    neither the field nor the mass.  ``stationary`` holds the interior
    maxima of ``|F0|`` on ``(RHO_MIN, 1)``, which each profit preset knows
    in closed form (:func:`semicoop.pipeline.cooperation`); they,
    ``RHO_MIN`` and 1 are the candidates, evaluated in that order.  A
    failure of ``rho_to_scale`` or a non-finite ``F0`` is a
    :class:`NumericalError` naming ``rho``.  When the values lie within
    ``1e-12`` of their maximum, relative, none is preferred and the result
    is flat: ``F0`` is constant to that tolerance, or its maxima tie.
    Otherwise the largest wins, ties going to the first.  Only comparisons
    of the values decide, so a positive factor on ``F0`` that neither
    overflows nor underflows leaves the result as it is.
    """
    stationary = tuple(float(s) for s in stationary)
    candidates = stationary + (RHO_MIN, 1.0)
    values = []
    for rho in candidates:
        try:
            f0 = float(rho_to_scale(rho))
            if not math.isfinite(f0):
                raise NumericalError(f"effective scale is {f0}")
        except NumericalError as exc:
            raise NumericalError(f"{exc} at rho = {rho!r}") from exc
        values.append(abs(f0))
    top = max(values)
    # relative flatness test: the overall scale of F0 is arbitrary
    if top - min(values) <= 1e-12 * top:
        return RhoSearchResult(None, (), False, True, "flat")
    best = values.index(top)
    end = best >= len(stationary)
    return RhoSearchResult(candidates[best], stationary, end, False, "end" if end else "vertex")
