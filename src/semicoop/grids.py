"""Uniform tensor-product grids.

A grid covers a box ``[a_0,b_0] x ... x [a_{d-1},b_{d-1}]`` with a fixed
node count per axis.  By convention the first axis is the evolution (time)
axis when a computation distinguishes one; purely spatial grids simply use
all axes symmetrically.  :func:`dst1` is the sine transform that
diagonalizes the Dirichlet second difference along one axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import rfft

from .errors import GridMismatchError, ValidationError


@dataclass(frozen=True)
class GridSpec:
    """Extents and node counts of a uniform tensor-product grid.

    Parameters
    ----------
    extents : tuple of (float, float)
        Inclusive (start, stop) per axis.
    counts : tuple of int
        Node count per axis, at least 3 (central differences need an
        interior).
    """

    extents: tuple
    counts: tuple

    def __post_init__(self):
        extents = tuple((float(a), float(b)) for a, b in self.extents)
        counts = tuple(int(n) for n in self.counts)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "counts", counts)
        problems = []
        if len(extents) != len(counts):
            problems.append("extents and counts must have the same length")
        if not extents:
            problems.append("grid needs at least one axis")
        for k, (a, b) in enumerate(extents):
            if not (np.isfinite(a) and np.isfinite(b)):
                problems.append(f"axis {k}: extent must be finite")
            elif b <= a:
                problems.append(f"axis {k}: extent must satisfy start < stop")
        for k, n in enumerate(counts):
            if n < 3:
                problems.append(f"axis {k}: need at least 3 nodes, got {n}")
        if problems:
            raise ValidationError("invalid grid specification", problems)

    @classmethod
    def from_axes(cls, *axes):
        """Build from ``(start, stop, count)`` triples, one per axis."""
        return cls(
            extents=tuple((a, b) for a, b, _ in axes),
            counts=tuple(n for _, _, n in axes),
        )

    @property
    def n_axes(self):
        return len(self.counts)

    @property
    def shape(self):
        return self.counts

    def spacing(self, axis):
        a, b = self.extents[axis]
        return (b - a) / (self.counts[axis] - 1)

    @property
    def spacings(self):
        return tuple(self.spacing(k) for k in range(self.n_axes))

    def coordinates(self, axis):
        a, b = self.extents[axis]
        return np.linspace(a, b, self.counts[axis])

    def meshgrid(self):
        """Coordinate arrays of shape ``self.shape``, one per axis."""
        return np.meshgrid(
            *(self.coordinates(k) for k in range(self.n_axes)), indexing="ij"
        )

    @property
    def cell_volume(self):
        return float(np.prod(self.spacings))

    def to_dict(self):
        return {"extents": [list(e) for e in self.extents], "counts": list(self.counts)}


def dst1(x, axis):
    """Unnormalized DST-I along ``axis``, ``y_k = 2 sum_n x_n sin(pi (k+1)
    (n+1) / (n_x+1))``, as ``-Im rfft`` of the odd extension ``[0, x, 0,
    -x[::-1]]`` of length ``2 (n_x + 1)`` (the fast sine transform of
    Press et al., *Numerical Recipes*).  Complex input is transformed as
    real part and imaginary part.  The results equal scipy's
    ``dst(type=1)`` bit for bit.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        out = np.empty(x.shape, dtype=complex)
        out.real = dst1(x.real, axis)
        out.imag = dst1(x.imag, axis)
        return out
    n = x.shape[axis]
    x = np.moveaxis(x, axis, -1)
    odd = np.zeros(x.shape[:-1] + (2 * (n + 1),))
    odd[..., 1 : n + 1] = x
    odd[..., n + 2 :] = -x[..., ::-1]
    return np.moveaxis(-rfft(odd)[..., 1 : n + 1].imag, -1, axis)


def require_same_grid(*objects):
    """Raise :class:`GridMismatchError` unless all objects share one grid.

    Accepts anything with a ``grid`` attribute or bare :class:`GridSpec`
    instances.
    """
    grids = [obj if isinstance(obj, GridSpec) else obj.grid for obj in objects]
    first = grids[0]
    for g in grids[1:]:
        if g != first:
            raise GridMismatchError(
                "operands live on different grids",
                [f"expected {first.to_dict()}, got {g.to_dict()}"],
            )
    return first
