"""Commutators of drift-plus-noise vector fields over 3-D coordinates.

The noise parts are frozen smooth realizations (polynomials or truncated
random Fourier series), not live randomness, so their derivatives exist
and the four-term expansion of the commutator

    [V, U] = [v, u] + [v, w] + [b, u] + [b, w]

is evaluated with central differences term by term.  A nonzero
commutator at a point is the operational test for curvature induced by
a firm's strategy there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from .errors import NumericalError, ValidationError

DIM = 3
DEFAULT_RELATIVE_SPACING = 1e-4


class PolynomialComponent:
    """Trivariate polynomial ``sum_i c_i * y0^e0 y1^e1 y2^e2``.

    ``terms`` is a sequence of ``(coefficient, (e0, e1, e2))`` pairs.
    """

    def __init__(self, terms):
        self.terms = tuple(
            (float(c), tuple(int(e) for e in exps)) for c, exps in terms
        )
        for _, exps in self.terms:
            if len(exps) != DIM or any(e < 0 for e in exps):
                raise ValidationError("polynomial exponents must be 3 non-negative ints")

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        total = 0.0
        for c, (e0, e1, e2) in self.terms:
            total = total + c * y[0] ** e0 * y[1] ** e1 * y[2] ** e2
        return total


class FourierComponent:
    """Truncated random Fourier series, a fixed smooth noise realization.

    Draws ``modes`` terms ``a_m sin(k_m . y + phi_m)`` with seeded
    amplitudes, wavevectors (in ``[-2, 2]`` per axis) and phases, so the
    field is reproducible and infinitely differentiable.
    """

    def __init__(self, seed, modes=6):
        rng = default_rng(SeedSequence(int(seed)))
        self.modes = int(modes)
        self.amplitudes = rng.standard_normal(self.modes) / np.sqrt(self.modes)
        self.wavevectors = rng.uniform(-2.0, 2.0, (self.modes, DIM))
        self.phases = rng.uniform(0.0, 2.0 * np.pi, self.modes)

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return float(np.sum(self.amplitudes * np.sin(self.wavevectors @ y + self.phases)))


@dataclass(frozen=True)
class VectorField:
    """Drift and frozen-noise components of one gradient field.

    Each entry of ``drift`` and ``noise`` is a callable of a 3-vector.
    """

    drift: tuple
    noise: tuple = None

    def __post_init__(self):
        drift = tuple(self.drift)
        if len(drift) != DIM:
            raise ValidationError("drift must have exactly 3 components")
        noise = self.noise
        if noise is None:
            noise = tuple(lambda y: 0.0 for _ in range(DIM))
        else:
            noise = tuple(noise)
            if len(noise) != DIM:
                raise ValidationError("noise must have exactly 3 components")
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "noise", noise)

    @classmethod
    def from_polynomials(cls, drift_terms, noise_terms=None):
        drift = tuple(PolynomialComponent(t) for t in drift_terms)
        noise = None if noise_terms is None else tuple(map(PolynomialComponent, noise_terms))
        return cls(drift, noise)

    @classmethod
    def from_fourier_noise(cls, drift_terms, seed, modes=6):
        drift = tuple(PolynomialComponent(t) for t in drift_terms)
        noise = tuple(FourierComponent(seed + i, modes) for i in range(DIM))
        return cls(drift, noise)

    def drift_at(self, y):
        return np.array([float(f(y)) for f in self.drift])

    def noise_at(self, y):
        return np.array([float(f(y)) for f in self.noise])


def _jacobian(component_fns, point, spacing):
    """Central-difference Jacobian ``J[nu, mu] = d f_nu / d y_mu``."""
    jac = np.empty((DIM, DIM))
    for mu in range(DIM):
        forward = np.array(point, dtype=float)
        backward = np.array(point, dtype=float)
        forward[mu] += spacing
        backward[mu] -= spacing
        for nu, fn in enumerate(component_fns):
            jac[nu, mu] = (float(fn(forward)) - float(fn(backward))) / (2.0 * spacing)
    return jac


def lie_bracket(field_v, field_u, point, spacing=None):
    """Commutator of two drift-plus-noise fields at one point.

    Returns the 3 components of the four-term expansion, derivatives by
    central differences with the given ``spacing`` (default ``1e-4``
    times the coordinate scale).
    """
    point = np.asarray(point, dtype=float)
    if point.shape != (DIM,) or not np.all(np.isfinite(point)):
        raise ValidationError("point must be a finite 3-vector")
    scale = max(1.0, float(np.max(np.abs(point))))
    h = DEFAULT_RELATIVE_SPACING * scale if spacing is None else float(spacing)
    if not 0.0 < h < np.inf:
        raise ValidationError("spacing must be positive and finite")

    v, b = field_v.drift_at(point), field_v.noise_at(point)
    u, w = field_u.drift_at(point), field_u.noise_at(point)
    jac_v = _jacobian(field_v.drift, point, h)
    jac_b = _jacobian(field_v.noise, point, h)
    jac_u = _jacobian(field_u.drift, point, h)
    jac_w = _jacobian(field_u.noise, point, h)

    terms = {
        "drift-drift": jac_u @ v - jac_v @ u,
        "drift-noise": jac_w @ v - jac_v @ w,
        "noise-drift": jac_u @ b - jac_b @ u,
        "noise-noise": jac_w @ b - jac_b @ w,
    }
    total = np.zeros(DIM)
    for name, term in terms.items():
        if np.any(~np.isfinite(term)):
            raise NumericalError(f"non-finite commutator term '{name}' at {point.tolist()}")
        total = total + term
    return total
