"""Finite-difference differential geometry on tensor-product grids.

Metrics are stored as one symmetric matrix per grid node.  Connection
coefficients use second-order central differences in the interior and
second-order one-sided stencils at grid edges, so the connection's edge
rows are less accurate than interior ones by a constant factor but keep
the same order.  The curvature differentiates the connection once more,
and at the edges that second difference is only first order: on the unit
sphere the Ricci scalar's error at the colatitude edge row halves with
the spacing (about 1.14, 0.61, 0.32 and 0.17 at 17, 33, 65 and 129
nodes), while interior rows converge at second order.  A
:class:`MetricField` forms its connection and curvature on first read,
so consumers take the metric alone and a run forms only what it reads.

Every node-local quantity is computed on the metric's *support*: the grid
axes along which its values vary, found by exact comparison of the
values (:func:`_support`).  Derivatives are taken along those axes only,
so a connection or curvature entry that involves a derivative along a
constant axis is an exact zero, and the other axes are cut to length 1
(:func:`_on_support`) and broadcast back to the grid (:func:`_broadcast`)
as read-only views.  A metric that varies along every axis selects every
axis, and the computation is then the plain full-grid one.

All operations are pure functions of immutable inputs.  Each node's
output depends only on its own difference stencil, so results are
independent of any evaluation order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import RangeOverflowError, SingularMetricError, ValidationError
from .grids import GridSpec

PIVOT_THRESHOLD = 1e-12

# exp overflows double precision just above 709.78
_EXP_LIMIT = 700.0

# ---------------------------------------------------------------------------
# difference stencils


def first_derivative(values, spacing, axis):
    """Second-order first derivative along one grid axis."""
    return np.gradient(values, spacing, axis=axis, edge_order=2)


def second_derivative(values, spacing, axis):
    """Second-order pure second derivative along one grid axis.

    Interior nodes use the compact three-point stencil; edges use the
    four-point one-sided stencil (three-point when only 3 nodes exist,
    which is still exact on quadratics).
    """
    f = np.moveaxis(np.asarray(values), axis, 0)
    n = f.shape[0]
    out = np.empty_like(f, dtype=np.result_type(f.dtype, np.float64))
    h2 = spacing * spacing
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h2
    if n >= 4:
        out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h2
        out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h2
    else:
        out[0] = (f[0] - 2.0 * f[1] + f[2]) / h2
        out[-1] = out[0]
    return np.moveaxis(out, 0, axis)


def mixed_derivative(values, spacing_a, axis_a, spacing_b, axis_b):
    """Mixed second derivative as a composition of first derivatives."""
    return first_derivative(
        first_derivative(values, spacing_a, axis_a), spacing_b, axis_b
    )


# ---------------------------------------------------------------------------
# per-node linear algebra


def lu_determinants(matrices):
    """Batched determinant and smallest absolute pivot via partial-pivot LU.

    It runs on a component-major ``(d, d, nodes)`` copy, so each row
    operation is one contiguous vector operation over the nodes.

    Parameters
    ----------
    matrices : ndarray (..., d, d)

    Returns
    -------
    (det, min_pivot) : ndarrays of shape ``matrices.shape[:-2]``
    """
    matrices = np.asarray(matrices)
    batch_shape = matrices.shape[:-2]
    d = matrices.shape[-1]
    a = np.array(np.moveaxis(matrices, (-2, -1), (0, 1)), dtype=float, order="C")
    a = a.reshape(d, d, -1)
    det = np.ones(a.shape[-1])
    min_pivot = np.full(a.shape[-1], np.inf)
    for k in range(d):
        piv = np.argmax(np.abs(a[k:, k]), axis=0) + k
        det = np.where(piv != k, -det, det)
        for r in range(k + 1, d):
            swap = piv == r
            a[k], a[r] = np.where(swap, a[r], a[k]), np.where(swap, a[k], a[r])
        pk = a[k, k]
        min_pivot = np.minimum(min_pivot, np.abs(pk))
        det = det * pk
        if k + 1 < d:
            with np.errstate(divide="ignore", invalid="ignore"):
                mult = a[k + 1 :, k] / pk
            mult[~np.isfinite(mult)] = 0.0
            a[k + 1 :, k:] -= mult[:, None] * a[k, k:]
    return det.reshape(batch_shape), min_pivot.reshape(batch_shape)


def _first_bad_node(mask):
    idx = np.argwhere(mask)
    return tuple(int(i) for i in idx[0])


# ---------------------------------------------------------------------------
# support of a field


def _unbroadcast(values, n_axes):
    """View of ``values`` with each stride-0 axis among the leading
    ``n_axes``, such as a broadcast one, cut to its one slice."""
    return values[tuple(slice(0, 1) if s == 0 else slice(None) for s in values.strides[:n_axes])]


def _support(values, n_axes):
    """Axes among the leading ``n_axes`` of ``values`` along which it varies.

    An axis is constant when every slice along it equals the first one
    under ``==`` (so an axis holding a NaN varies, and ``-0.0`` equals
    ``0.0``); a stride-0 axis, such as a broadcast one, repeats one slice
    and is cut to it before any comparison, so no comparison spans it.
    The second slice is compared first, so a varying axis is usually
    found without a full pass, and each constant axis is cut away before
    the next axis is tested.
    """
    cut = _unbroadcast(np.asarray(values), n_axes)
    axes = []
    for k in range(n_axes):
        first = cut[(slice(None),) * k + (slice(0, 1),)]
        second = cut[(slice(None),) * k + (slice(1, 2),)]
        if cut.shape[k] == 1 or (np.array_equal(second, first) and np.all(cut == first)):
            cut = first
        else:
            axes.append(k)
    return tuple(axes)


def _joint_support(n_axes, *fields):
    """Union of the supports of ``fields``, as sorted axes."""
    return tuple(sorted(set().union(*(_support(f, n_axes) for f in fields))))


def _on_support(values, axes, n_axes):
    """View of ``values`` with each leading axis outside ``axes`` cut to
    length 1: the profile a node-local quantity is computed on."""
    return values[tuple(slice(None) if k in axes else slice(0, 1) for k in range(n_axes))]


def _broadcast(profile, grid):
    """Read-only view of a profile's values at every node of ``grid``."""
    return np.broadcast_to(profile, grid.shape + profile.shape[grid.n_axes :])


# ---------------------------------------------------------------------------
# field containers


@dataclass
class MetricField:
    """Symmetric matrix field and its determinant; derived fields form on first use.

    Parameters
    ----------
    values : ndarray (*grid.shape, d, d)
        Per-node symmetric matrices.  Input asymmetry beyond ``1e-12``
        (relative to the matrix scale) is rejected; smaller asymmetry is
        removed by explicit symmetrization so index-symmetry of derived
        quantities holds bit for bit.
    grid : GridSpec

    ``support`` holds the grid axes along which the values vary.  The
    symmetrization, the LU determinant and the inverse run on the
    profile over those axes, and ``values``, ``determinant`` and
    ``inverse`` are read-only views of it at every node.  The first node,
    in C order, whose symmetrized entries or determinant are not finite
    (such as a determinant that overflows) is a
    :class:`RangeOverflowError`; the first node with an LU pivot at or
    below ``PIVOT_THRESHOLD`` is a :class:`SingularMetricError`.
    """

    values: np.ndarray
    grid: GridSpec
    determinant: np.ndarray = field(init=False, repr=False)
    support: tuple = field(init=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim < 2 or values.shape[-1] != values.shape[-2]:
            raise ValidationError("metric values must end in square matrix axes")
        if values.shape[: self.grid.n_axes] != self.grid.shape:
            raise ValidationError(
                "metric shape does not match grid",
                [f"grid {self.grid.shape}, field {values.shape}"],
            )
        self.support = _support(values, self.grid.n_axes)
        h = self._profile(values)
        scale = np.maximum(np.abs(h).max(), 1.0)
        asym = np.abs(h - np.swapaxes(h, -1, -2)).max()
        if asym > 1e-12 * scale:
            raise ValidationError(
                f"metric is not symmetric: max |h - h^T| = {asym:.3e}"
            )
        # entries or a determinant that overflow are reported below
        with np.errstate(over="ignore", invalid="ignore"):
            h = 0.5 * (h + np.swapaxes(h, -1, -2))
            det, min_pivot = lu_determinants(h)
        self.values = _broadcast(h, self.grid)
        # the first bad node of the profile is the grid's first, in C order:
        # it has index 0 on every axis outside the support
        finite = np.isfinite(h).all(axis=(-2, -1))
        bad = ~(finite & np.isfinite(det))
        if np.any(bad):
            node = _first_bad_node(bad)
            what = "determinant is"
            if not finite[node]:
                what = "symmetrized entries are"
            raise RangeOverflowError(
                f"metric at grid node {node} leaves the floating-point range: "
                f"its {what} not finite",
                node=node,
            )
        bad = ~(min_pivot > PIVOT_THRESHOLD)
        if np.any(bad):
            node = _first_bad_node(bad)
            pivot = min_pivot[node]
            raise SingularMetricError(
                node, f"smallest LU pivot {pivot:.3e} <= {PIVOT_THRESHOLD}"
            )
        self.determinant = _broadcast(det, self.grid)

    def _profile(self, values):
        return _on_support(values, self.support, self.grid.n_axes)

    @functools.cached_property
    def inverse(self):
        """Per-node inverse matrices, computed when first read; fields such
        as the combined metric never need it."""
        return _broadcast(np.linalg.inv(self._profile(self.values)), self.grid)

    @functools.cached_property
    def connection(self):
        """:func:`christoffel` of this metric, computed when first read."""
        return christoffel(self)

    @functools.cached_property
    def curvature(self):
        """:func:`curvature` of this metric, computed when first read."""
        return curvature(self)

    @property
    def dim(self):
        return self.values.shape[-1]

    @property
    def volume_density(self):
        """Per-node volume density ``sqrt|det h|``."""
        return _broadcast(np.sqrt(np.abs(self._profile(self.determinant))), self.grid)


@dataclass
class CurvatureBundle:
    """Ricci, scalar and Einstein tensors of one metric; no caller reads
    Riemann, whose ``d**4`` components per node are never formed.
    :func:`curvature` returns them as read-only views of their profile."""

    ricci: np.ndarray
    scalar: np.ndarray
    einstein: np.ndarray
    grid: GridSpec


# ---------------------------------------------------------------------------
# operations


def christoffel(metric):
    """Connection coefficients of a metric field.

    Computes ``gamma^a_{bc} = (1/2) h^{ad} (d_b h_{dc} + d_c h_{db}
    - d_d h_{bc})`` with the difference stencils of this module, on the
    metric's profile: derivatives along axes outside ``metric.support``
    are exact zeros.  The lower-index symmetry is exact because the two
    symmetric derivative terms are accumulated commutatively and the
    metric is stored exactly symmetric.  ``gamma[..., a, b, c]`` is
    returned as a read-only view of its profile at every node.

    Parameters
    ----------
    metric : MetricField
        Matrix dimension must equal the number of grid axes.
    """
    grid = metric.grid
    d = metric.dim
    if d != grid.n_axes:
        raise ValidationError(
            f"metric dimension {d} does not match grid with {grid.n_axes} axes"
        )
    h = metric._profile(metric.values)
    # dh[..., k, i, j] = d_k h_{ij}; the bracket is indexed [d, b, c]
    dh = np.zeros(h.shape[:-2] + (d, d, d))
    for k in metric.support:
        dh[..., k, :, :] = first_derivative(h, grid.spacing(k), axis=k)
    t = (np.swapaxes(dh, -3, -2) + np.moveaxis(dh, -3, -1)) - dh
    hinv = metric._profile(metric.inverse)
    gamma = 0.5 * np.einsum("...ad,...dbc->...abc", hinv, t, optimize=True)
    return _broadcast(gamma, grid)


def curvature(metric):
    """Ricci, scalar and Einstein tensors from the metric's connection.

    Ricci ``R_{bd} = d_a gamma^a_{db} - d_d gamma^a_{ab} + gamma^a_{ae}
    gamma^e_{db} - gamma^a_{de} gamma^e_{ab}`` is Riemann ``R^a_{bcd}``
    contracted on its first and third slots, formed directly: Riemann's
    ``d**4`` components per node cost most of the layer's time and memory,
    and no caller reads them.  The scalar is the inverse-metric contraction
    of Ricci, and the Einstein combination is assembled from those.  All
    of it runs on the metric's support, where alone its connection varies.
    """
    grid = metric.grid
    d = metric.dim
    axes = metric.support
    g = metric._profile(metric.connection)
    trace = np.einsum("...aab->...b", g)
    # d_a gamma^a_{db} comes out indexed [d, b]; gamma is symmetric in (d, b)
    ricci = np.zeros(g.shape[:-1])
    dtrace = np.zeros(trace.shape + (d,))
    for a in axes:
        ricci += first_derivative(g[..., a, :, :], grid.spacing(a), axis=a)
        dtrace[..., a] = first_derivative(trace, grid.spacing(a), axis=a)
    ricci -= dtrace
    ricci += np.einsum("...e,...edb->...bd", trace, g, optimize=True)
    ricci -= np.einsum("...ade,...eab->...bd", g, g, optimize=True)
    hinv = metric._profile(metric.inverse)
    scalar = np.einsum("...bd,...bd->...", hinv, ricci)
    h = metric._profile(metric.values)
    einstein = ricci - 0.5 * scalar[..., None, None] * h
    return CurvatureBundle(
        _broadcast(ricci, grid), _broadcast(scalar, grid), _broadcast(einstein, grid), grid
    )


def combined_metric(einstein_bundle, stubbornness_field, gamma):
    """Blend a curvature-derived metric into the identity background.

    Per node: ``N = exp(gamma * b) * G + eta`` where ``G`` is the Einstein
    tensor of the curved field, ``eta`` the identity and ``b`` the
    stubbornness field.  ``G`` is symmetrized first; finite differences
    leave it asymmetric at discretization level.

    Raises :class:`ValidationError` on ``gamma`` outside ``(0, 2]`` and
    :class:`RangeOverflowError` naming the first node where ``gamma * b``
    would overflow the exponential.
    """
    gamma = float(gamma)
    if not 0.0 < gamma <= 2.0:
        raise ValidationError("gamma must lie in (0,2]")
    grid = einstein_bundle.grid
    b = np.asarray(stubbornness_field, dtype=float)
    if b.shape != grid.shape:
        raise ValidationError(
            "stubbornness field shape does not match grid",
            [f"grid {grid.shape}, field {b.shape}"],
        )
    axes = _joint_support(grid.n_axes, b, einstein_bundle.einstein)
    exponent = gamma * _on_support(b, axes, grid.n_axes)
    over = exponent > _EXP_LIMIT
    if np.any(over):
        node = _first_bad_node(_broadcast(over, grid))
        raise RangeOverflowError(
            f"conformal exponent {_broadcast(exponent, grid)[node]:.3g} exceeds "
            f"{_EXP_LIMIT} at node {node}",
            node=node,
        )
    g = _on_support(einstein_bundle.einstein, axes, grid.n_axes)
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    factor = np.exp(exponent)[..., None, None]
    return MetricField(_broadcast(factor * g + np.eye(g.shape[-1]), grid), grid)


def covariant_laplacian(metric, values):
    """Laplace operator of a scalar field in curved coordinates.

    Returns ``h^{ab} d_a d_b f - (h^{ab} gamma^c_{ab}) d_c f`` using the
    module stencils and the metric's connection, on the joint support of
    the metric and the field: derivatives along the other axes are exact
    zeros, and the result is a read-only view of its profile at every node.  On a
    flat metric this reduces exactly to the plain discrete Laplacian: the
    inverse metric is the identity, so mixed terms carry zero
    coefficients and the first-order terms vanish.
    """
    grid = metric.grid
    f = np.asarray(values)
    if f.shape != grid.shape:
        raise ValidationError("field shape does not match grid")
    n_axes = grid.n_axes
    axes = _joint_support(n_axes, metric.values, f)
    f = _on_support(f, axes, n_axes)
    hinv = _on_support(metric.inverse, axes, n_axes)
    contr = np.einsum("...ab,...cab->...c", hinv, _on_support(metric.connection, axes, n_axes))
    out = np.zeros(f.shape, dtype=np.result_type(f.dtype, np.float64))
    for a in axes:
        for b in axes:
            coeff = hinv[..., a, b]
            if a == b:
                out += coeff * second_derivative(f, grid.spacing(a), a)
            else:
                out += coeff * mixed_derivative(
                    f, grid.spacing(a), a, grid.spacing(b), b
                )
    for c in axes:
        out -= contr[..., c] * first_derivative(f, grid.spacing(c), c)
    return _broadcast(out, grid)


# ---------------------------------------------------------------------------
# sparse interior operator (shared by the evolution solver)


def _interior_first_difference(n, spacing):
    """Central first-difference matrix on the interior nodes of one axis
    with zero boundary values; it is skew-symmetric."""
    import scipy.sparse as sp

    m = n - 2
    return sp.csr_matrix(
        sp.diags([np.full(m - 1, -0.5 / spacing), np.full(m - 1, 0.5 / spacing)], [-1, 1])
    )


def _face_difference(n, spacing):
    """Differences across the ``n - 1`` half-nodes of one axis, from its
    interior nodes with zero boundary values."""
    import scipy.sparse as sp

    m = n - 2
    return sp.diags([np.ones(m), -np.ones(m)], [0, -1], shape=(m + 1, m)) / spacing


def laplace_operator_matrix(metric):
    """Sparse Laplace-Beltrami matrix ``(1/s) d_a (s h^{ab} d_b f)``,
    ``s = sqrt|det h|``, on the interior nodes of a two-axis grid.

    Boundary values are zero (Dirichlet); rows and columns run row-major
    over the interior.  The diagonal terms are flux differences across
    half-nodes, each face carrying the mean of ``s h^{aa}`` at its two
    nodes; the mixed term is ``D0 diag(s h^{01}) D1 + D1 diag(s h^{01}) D0``
    with central differences.  The matrix is ``diag(1/s) S`` with ``S``
    symmetric, so it is self-adjoint in the ``s``-weighted inner product.
    No connection coefficients enter; :func:`covariant_laplacian` stays
    the pointwise form.
    """
    import scipy.sparse as sp

    grid = metric.grid
    if grid.n_axes != 2 or metric.dim != 2:
        raise ValidationError("operator assembly expects a two-axis grid and metric")
    n1, n2 = grid.shape
    m1, m2 = n1 - 2, n2 - 2
    h0, h1 = grid.spacings
    s = metric.volume_density
    flux = s[..., None, None] * metric.inverse
    grad0 = sp.kron(_face_difference(n1, h0), sp.identity(m2), format="csr")
    grad1 = sp.kron(sp.identity(m1), _face_difference(n2, h1), format="csr")
    face0 = 0.5 * (flux[1:, 1:-1, 0, 0] + flux[:-1, 1:-1, 0, 0]).reshape(-1)
    face1 = 0.5 * (flux[1:-1, 1:, 1, 1] + flux[1:-1, :-1, 1, 1]).reshape(-1)
    sym = -(grad0.T @ sp.diags(face0) @ grad0 + grad1.T @ sp.diags(face1) @ grad1)
    cross = flux[1:-1, 1:-1, 0, 1].reshape(-1)
    if np.any(cross):
        d0 = sp.kron(_interior_first_difference(n1, h0), sp.identity(m2), format="csr")
        d1 = sp.kron(sp.identity(m1), _interior_first_difference(n2, h1), format="csr")
        mixed = d0 @ sp.diags(cross) @ d1
        # D0 and D1 are skew, so D1 diag D0 is the transpose of D0 diag D1
        sym = sym + mixed + mixed.T
    return sp.csr_matrix(sp.diags(1.0 / s[1:-1, 1:-1].reshape(-1)) @ sym)


# ---------------------------------------------------------------------------
# metric presets


def flat_metric(grid):
    """Identity metric on every node."""
    d = grid.n_axes
    return MetricField(np.broadcast_to(np.eye(d), grid.shape + (d, d)), grid)


def constant_metric(grid, matrix):
    """One fixed symmetric matrix replicated over the grid."""
    m = np.asarray(matrix, dtype=float)
    return MetricField(np.broadcast_to(m, grid.shape + m.shape), grid)


def sphere_metric(grid, radius=1.0):
    """Round-sphere line element ``r^2 (dtheta^2 + sin^2 theta dphi^2)``.

    On a two-axis grid the first axis is the colatitude ``theta``; on a
    three-axis grid the middle axis is ``theta`` and the leading axis is
    a flat product direction.  The grid must keep ``sin(theta)`` bounded
    away from zero, otherwise the metric is singular at the poles.
    """
    d = grid.n_axes
    theta_axis = 0 if d == 2 else 1
    shape = [1] * d
    shape[theta_axis] = grid.counts[theta_axis]
    theta = grid.coordinates(theta_axis).reshape(shape)
    values = np.zeros(tuple(shape) + (d, d))
    values[...] = np.eye(d)
    values[..., theta_axis, theta_axis] = radius**2
    values[..., theta_axis + 1, theta_axis + 1] = (radius * np.sin(theta)) ** 2
    return MetricField(_broadcast(values, grid), grid)
