"""Gaussian free field sampling and the stubbornness-measure map.

The stubbornness field ``b`` of a governing body is a discrete Gaussian
free field on a square grid with zero (Dirichlet) boundary.  Its
covariance is ``2 * pi`` times the Green's function of the five-point
discrete Laplacian, matching a Dirichlet energy carrying a ``1/(2*pi)``
prefactor.  Sampling goes through the exact eigenbasis of the discrete
operator (a two-dimensional sine transform, computed one axis at a time
as ``-Im rfft`` of the odd extension by :func:`semicoop.grids.dst1`), so
there is no burn-in and every sample is an exact finite-dimensional
Gaussian.

The coupling strength ``gamma`` of the governing body maps to the
measure ``Q = 2/gamma + gamma/2``; rigid bodies sit at the minimum
``Q = 2``, flexible ones send ``Q`` to infinity.
"""

from __future__ import annotations

import numpy as np
from numpy.random import SeedSequence, default_rng

from .errors import ValidationError
from .grids import dst1

GFF_ENERGY_SCALE = 2.0 * np.pi

BROWNIAN_SURFACE_GAMMA = np.sqrt(8.0 / 3.0)


class GFFSampler:
    """Seeded sampler for the Dirichlet Gaussian free field.

    One sampler holds one generator; concurrent use requires one sampler
    per task.  Boundary nodes are exactly zero.

    Parameters
    ----------
    grid_size : int
        Nodes per side including the boundary ring, at least 4, on the
        unit square.
    seed : int
    """

    def __init__(self, grid_size, seed):
        n = int(grid_size)
        if n < 4:
            raise ValidationError("grid size must be at least 4")
        self.grid_size = n
        spacing = 1.0 / (n - 1)
        m = n - 2
        j = np.arange(1, m + 1)
        lam_1d = (4.0 / spacing**2) * np.sin(j * np.pi / (2.0 * (m + 1))) ** 2
        eigenvalues = lam_1d[:, None] + lam_1d[None, :]
        self._mode_std = np.sqrt(GFF_ENERGY_SCALE / eigenvalues)
        self._rng = default_rng(SeedSequence(int(seed)))

    def sample(self):
        """One field realization of shape ``(grid_size, grid_size)``."""
        return self.sample_batch(1)[0]

    def sample_batch(self, count):
        """``count`` independent realizations, stacked on axis 0.

        Coefficients on the orthonormal eigenbasis are independent
        Gaussians with variance ``2*pi / eigenvalue``; the sine synthesis
        is exact, so the batch covariance is exactly
        ``2*pi * inverse(discrete Laplacian)`` on interior nodes.
        """
        count = int(count)
        m = self.grid_size - 2
        coeffs = self._rng.standard_normal((count, m, m)) * self._mode_std
        interior = dst1(dst1(coeffs, 1), 2) / (2.0 * (m + 1))
        fields = np.zeros((count, self.grid_size, self.grid_size))
        fields[:, 1:-1, 1:-1] = interior
        return fields


def stubbornness_measure(gamma):
    """Measure ``Q = 2/gamma + gamma/2`` for ``gamma`` in ``(0, 2]``.

    Strictly decreasing on the domain with minimum ``Q = 2`` at
    ``gamma = 2``.
    """
    gamma = float(gamma)
    if not 0.0 < gamma <= 2.0:
        raise ValidationError("gamma must lie in (0,2]")
    return 2.0 / gamma + gamma / 2.0


def regime_note(gamma):
    """Qualitative regime of the coupling strength.

    Near ``sqrt(8/3)`` the random surface behaves like a Brownian
    surface; at the top of the range the surface is rigid apart from
    isolated peaks; small values give a flexible surface.  The two marked
    values match within ``1e-9``.
    """
    gamma = float(gamma)
    if abs(gamma - BROWNIAN_SURFACE_GAMMA) <= 1e-9:
        return "brownian-surface"
    if gamma >= 2.0 - 1e-9:
        return "rigid-with-peaks"
    if gamma <= 0.25:
        return "flexible"
    return "intermediate"
