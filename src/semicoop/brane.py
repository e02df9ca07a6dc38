"""Discretized membrane-style action over the strategy world volume.

The world volume is a three-axis grid (time and two strategy axes).  An
embedding field maps each node into the transverse directions of an
11-dimensional background, occupying background index slots 4..11; the
leading three background slots mirror the world-volume directions and
are carried as data only.

The action density per node is

    (1/2) sqrt(h) [ 3 + h^{ab} Npull_{ab} (p*b)^W
                    - (1/3!sqrt(h)) eps^{abc} Hpull_{abc} (p*b)^{1-W}
                    - Q*R*xbar - lambda * residual ]

where ``Npull`` and ``Hpull`` are the pull-backs of the background
metric and of the antisymmetric coupling, ``p*b`` the profit weighted by
stubbornness, ``W`` the profit freedom exponent, and the residual term
enforces the share dynamics through the multiplier field.  The 3-form
enters only through ``eps^{abc} Hpull_{abc} / 3!``, so :func:`pullbacks`
returns that single component, in closed form as a sum of 3x3 minors of
the embedding Jacobian, instead of the full antisymmetric tensor.  The
gauge-fixing ghost term is not part of the bracket: :func:`ghost_action`
integrates it covariantly, and the pipeline reports it separately as
``action.json["ghost"]``.  Integration is by tensor-product trapezoid
weights, which makes the action exactly additive across a partition of
the time axis at a grid plane.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import structural_rank

from .errors import NumericalError, ValidationError
from .geometry import MetricField, _interior_1d_operators, first_derivative
from .grids import require_same_grid

WORLD_DIM = 3
TRANSVERSE_DIM = 8
BACKGROUND_DIM = 11

#: Exact alternating symbol on three indices.
LEVI_CIVITA = np.zeros((3, 3, 3))
LEVI_CIVITA[0, 1, 2] = LEVI_CIVITA[1, 2, 0] = LEVI_CIVITA[2, 0, 1] = 1.0
LEVI_CIVITA[0, 2, 1] = LEVI_CIVITA[2, 1, 0] = LEVI_CIVITA[1, 0, 2] = -1.0


def transverse_pattern_from_world_det(world_metric):
    """Default antisymmetric coupling: the alternating symbol on the
    first three transverse slots scaled by ``-1/det`` of the world
    metric per node.

    Returns ``(scalar_grid, pattern)`` where the full coupling is their
    product; storing the factorization keeps the memory footprint flat.
    """
    scalar = -1.0 / world_metric.determinant
    pattern = np.zeros((TRANSVERSE_DIM,) * 3)
    pattern[:3, :3, :3] = LEVI_CIVITA
    return scalar, pattern


def _check_antisymmetric(pattern):
    for axes in ((0, 1), (0, 2), (1, 2)):
        swapped = np.swapaxes(pattern, *axes)
        if not np.array_equal(swapped, -pattern):
            raise ValidationError(
                "coupling pattern must be antisymmetric in every index pair"
            )


@dataclass
class BraneConfiguration:
    """Embedding, metrics, coupling, ghosts and scalar data of one brane.

    Parameters
    ----------
    embedding : ndarray (*grid.shape, 8)
        Transverse coordinates per node (background slots 4..11).
    world_metric : MetricField
        3x3 field on the same grid.
    background : MetricField or ndarray
        11x11 background metric, either one constant matrix or a field;
        it is only ever contracted, never differentiated.
    coupling_scalar, coupling_pattern :
        Factorized antisymmetric coupling; defaults derive from the
        world-metric determinant.
    ghost_e : ndarray (*grid.shape, 3, 3), optional
    ghost_c : ndarray (*grid.shape, 3), optional
        Gauge-fixing fields; evaluated as ordinary real fields.
    multiplier : ndarray (*grid.shape), optional
        Constraint multiplier field.
    freedom_exponent : float in (0, 1), strictly interior.
    mean_share, stubbornness_measure : floats.
    ricci_scalar : float or ndarray
        Curvature scalar entering the background potential term.
    """

    embedding: np.ndarray
    world_metric: MetricField
    background: object
    coupling_scalar: np.ndarray = None
    coupling_pattern: np.ndarray = None
    ghost_e: np.ndarray = None
    ghost_c: np.ndarray = None
    multiplier: np.ndarray = None
    freedom_exponent: float = 0.5
    mean_share: float = 0.0
    stubbornness_measure: float = 2.0
    ricci_scalar: object = 0.0

    def __post_init__(self):
        grid = self.world_metric.grid
        if grid.n_axes != WORLD_DIM:
            raise ValidationError("world volume must have 3 axes")
        emb = np.asarray(self.embedding, dtype=float)
        if emb.shape != grid.shape + (TRANSVERSE_DIM,):
            raise ValidationError(
                f"embedding must have shape {grid.shape + (TRANSVERSE_DIM,)}"
            )
        self.embedding = emb
        if not 0.0 < self.freedom_exponent < 1.0:
            raise ValidationError("freedom exponent must lie strictly inside (0,1)")

        if self.coupling_scalar is None or self.coupling_pattern is None:
            scalar, pattern = transverse_pattern_from_world_det(self.world_metric)
            self.coupling_scalar = scalar
            self.coupling_pattern = pattern
        else:
            self.coupling_scalar = np.broadcast_to(
                np.asarray(self.coupling_scalar, dtype=float), grid.shape
            ).copy()
            self.coupling_pattern = np.asarray(self.coupling_pattern, dtype=float)
        if self.coupling_pattern.shape != (TRANSVERSE_DIM,) * 3:
            raise ValidationError("coupling pattern must be 8x8x8")
        _check_antisymmetric(self.coupling_pattern)

        if (self.ghost_e is None) != (self.ghost_c is None):
            raise ValidationError("ghost fields come in pairs (e together with c)")
        if self.ghost_e is not None:
            self.ghost_e = np.asarray(self.ghost_e, dtype=float)
            self.ghost_c = np.asarray(self.ghost_c, dtype=float)
            if self.ghost_e.shape != grid.shape + (3, 3):
                raise ValidationError("ghost e field must have shape (*grid, 3, 3)")
            if self.ghost_c.shape != grid.shape + (3,):
                raise ValidationError("ghost c field must have shape (*grid, 3)")
        if self.multiplier is not None:
            self.multiplier = np.broadcast_to(
                np.asarray(self.multiplier, dtype=float), grid.shape
            ).copy()

    @property
    def grid(self):
        return self.world_metric.grid

    def potential(self):
        """Per-node curvature potential ``Q * R * xbar``."""
        ricci = np.broadcast_to(np.asarray(self.ricci_scalar, dtype=float), self.grid.shape)
        return self.stubbornness_measure * ricci * self.mean_share

    def background_transverse(self):
        """The 8x8 background block the pull-back contracts against."""
        values = (
            self.background.values
            if isinstance(self.background, MetricField)
            else np.asarray(self.background, dtype=float)
        )
        if values.shape[-2:] != (BACKGROUND_DIM, BACKGROUND_DIM):
            raise ValidationError("background metric must be 11x11")
        return values[..., WORLD_DIM:, WORLD_DIM:]

    def embedding_jacobian(self):
        """``J[..., a, p] = d embedding_p / d sigma_a`` by the module
        difference stencils."""
        grid = self.grid
        cols = [
            first_derivative(self.embedding, grid.spacing(a), axis=a)
            for a in range(WORLD_DIM)
        ]
        return np.stack(cols, axis=-2)


def pullbacks(config):
    """Pull the background metric and coupling onto the world volume.

    Returns
    -------
    (npull, component)
        ``npull`` is the symmetric per-node 3x3 contraction of the
        background block with the embedding Jacobian.  ``component`` is
        the single independent per-node component ``Hpull_{012}`` of the
        pulled-back 3-form, equal to ``eps^{abc} Hpull_{abc} / 3!``.
        Because the coupling pattern ``P`` and ``eps`` are both
        antisymmetric, it is the closed form

            coupling_scalar * sum_{p<q<r} P_pqr det(J[..., :, [p, q, r]])

        which for the default pattern is one 3x3 determinant per node.
    """
    jac = config.embedding_jacobian()
    ntrans = config.background_transverse()
    if ntrans.ndim == 2:
        npull = np.einsum("...ap,...bq,pq->...ab", jac, jac, ntrans, optimize=True)
    else:
        require_same_grid(config.grid, config.world_metric.grid)
        npull = np.einsum("...ap,...bq,...pq->...ab", jac, jac, ntrans, optimize=True)
    npull = 0.5 * (npull + np.swapaxes(npull, -1, -2))

    pattern = config.coupling_pattern
    triples = np.array(
        [t for t in itertools.combinations(range(TRANSVERSE_DIM), 3) if pattern[t]],
        dtype=int,
    ).reshape(-1, 3)
    minors = np.linalg.det(np.swapaxes(jac[..., triples], -3, -2))
    component = minors @ pattern[tuple(triples.T)]
    component = component * config.coupling_scalar
    return npull, component


def _profit_weight(config, firm, profit):
    """Per-node profit weighted by the firm's stubbornness value."""
    grid = config.grid
    s = grid.meshgrid()[0]
    u_own = firm.strategy
    u_other = firm.alpha_other**firm.coop_other
    values = np.asarray(profit(s, firm.share, u_own, u_other), dtype=float)
    weighted = np.broadcast_to(values, grid.shape) * firm.stubbornness
    return weighted


def _powers(weight, exponent):
    if np.any(weight <= 0.0):
        node = tuple(int(i) for i in np.argwhere(weight <= 0.0)[0])
        raise NumericalError(
            f"profit weight must be positive for fractional exponents; "
            f"value {weight[node]:.6g} at node {node}"
        )
    return weight**exponent, weight ** (1.0 - exponent)


def scalar_action_terms(config, firm, profit):
    """Per-node bracket of the action without multiplier or potential
    terms: ``3 + kinetic(world) - kinetic(transverse)``.

    This is the scalar the effective-scale extraction consumes.
    """
    npull, component = pullbacks(config)
    sqrt_h = np.sqrt(config.world_metric.determinant)
    pw = _profit_weight(config, firm, profit)
    pw_w, pw_1mw = _powers(pw, config.freedom_exponent)

    world_term = np.einsum("...ab,...ab->...", config.world_metric.inverse, npull)
    trans_term = component / sqrt_h
    return 3.0 + world_term * pw_w - trans_term * pw_1mw


def evaluate_action(config, firm, profit, residuals=None, terms=None):
    """Trapezoid value of the action over the world volume.

    Parameters
    ----------
    residuals : ndarray, optional
        Discrete dynamics residual per node, either scalar or with a
        trailing component axis (summed).  Paths that satisfy the
        discrete share dynamics exactly contribute zero here for any
        multiplier.
    terms : ndarray, optional
        The bracket :func:`scalar_action_terms` returns for the same
        ``config``, ``firm`` and ``profit``, for a caller that already
        holds it; computed here when omitted.

    Returns the real action value; phase conventions are applied by the
    transition-kernel layer, not here.
    """
    grid = config.grid
    if terms is None:
        terms = scalar_action_terms(config, firm, profit)
    bracket = terms - config.potential()

    if residuals is not None:
        res = np.asarray(residuals, dtype=float)
        if res.shape == grid.shape + (3,):
            res = res.sum(axis=-1)
        elif res.shape != grid.shape:
            raise ValidationError("residual grid shape does not match world volume")
        lam = config.multiplier if config.multiplier is not None else 0.0
        bracket = bracket - lam * res

    sqrt_h = np.sqrt(config.world_metric.determinant)
    density = 0.5 * sqrt_h * bracket
    weights = grid.trapezoid_weights()
    return float(np.sum(weights * density))


def ghost_covariant_derivative(config, chris):
    """Raised covariant derivative of the ghost vector field.

    ``out[..., a, b] = h^{ac} (d_c ghost^b + gamma^b_{cd} ghost^d)``.
    """
    if config.ghost_c is None:
        raise ValidationError("configuration has no ghost fields")
    grid = config.grid
    c_field = config.ghost_c
    dc = np.stack(
        [first_derivative(c_field, grid.spacing(t), axis=t) for t in range(WORLD_DIM)],
        axis=-2,
    )
    cov = dc + np.einsum("...btd,...d->...tb", chris.values, c_field)
    return np.einsum("...ac,...cb->...ab", config.world_metric.inverse, cov)


def ghost_action(config, chris, epsilon_step):
    """Gauge-fixing action ``(1/(2*pi*eps)) int sqrt(h) e : grad(c)``."""
    if config.ghost_e is None or config.ghost_c is None:
        raise ValidationError("ghost action needs both ghost fields")
    if not epsilon_step > 0:
        raise ValidationError("epsilon step must be positive")
    grid = config.grid
    raised = ghost_covariant_derivative(config, chris)
    density = np.einsum("...ab,...ab->...", config.ghost_e, raised)
    sqrt_h = np.sqrt(config.world_metric.determinant)
    weights = grid.trapezoid_weights()
    integral = float(np.sum(weights * sqrt_h * density))
    return integral / (2.0 * np.pi * epsilon_step)


# ---------------------------------------------------------------------------
# gauge-fixing determinant


@dataclass(frozen=True)
class FPDeterminant:
    """Sign and log magnitude of the gauge-fixing operator determinant.

    ``singular`` marks a vanishing determinant; ``log_abs_det`` is then
    ``-inf``.
    """

    sign: float
    log_abs_det: float

    @property
    def singular(self):
        return not np.isfinite(self.log_abs_det)


def _permutation_sign(perm):
    """Sign of a permutation given as an index array: ``(-1)**(n - cycles)``."""
    seen = np.zeros(perm.size, dtype=bool)
    cycles = 0
    for start in range(perm.size):
        if not seen[start]:
            cycles += 1
            k = start
            while not seen[k]:
                seen[k] = True
                k = perm[k]
    return -1.0 if (perm.size - cycles) % 2 else 1.0


def fp_log_determinant(matrix):
    """Log-determinant of an explicit operator matrix by sparse LU.

    SuperLU factors ``Pr A Pc = L U`` with a unit-diagonal ``L``, so
    ``log|det A| = sum log|diag U|`` and the sign is the product of the
    two permutation signs and the signs of ``diag U``.  A singular
    operator is reported as ``FPDeterminant(0.0, -inf)``.  Structurally
    singular matrices (no perfect matching between rows and columns) are
    recognized before factoring, because SuperLU can abort on them
    instead of reporting the zero pivot.
    """
    matrix = sp.csc_matrix(matrix, dtype=float)
    if structural_rank(matrix) < matrix.shape[0]:
        return FPDeterminant(0.0, -np.inf)
    try:
        lu = spla.splu(matrix)
    except RuntimeError as exc:
        if "exactly singular" in str(exc):
            return FPDeterminant(0.0, -np.inf)
        raise NumericalError(
            f"sparse LU of the gauge-fixing operator failed: {exc}"
        ) from exc
    diag = lu.U.diagonal()
    sign = _permutation_sign(lu.perm_r) * _permutation_sign(lu.perm_c)
    sign *= float(np.prod(np.sign(diag)))
    return FPDeterminant(sign, float(np.sum(np.log(np.abs(diag)))))


def fp_operator_matrix(config, chris):
    """Square pairing matrix between ghost fields on interior nodes.

    The ghost bilinear pairs a rank-2 antighost with the covariant
    derivative of the ghost vector.  Restricted to the diagonal antighost
    pattern (the identity pattern used throughout), the pairing becomes a
    square operator on the ghost vector alone:

        (F c)^b(n) = sqrt(h) h^{bc} ( d_c c^b + gamma^b_{cd} c^d )

    assembled on interior nodes with zero boundary values and central
    differences.  Degrees of freedom are ordered node-major, component
    within node.
    """
    grid = require_same_grid(config.world_metric, chris)
    shape = grid.shape
    m = tuple(n - 2 for n in shape)
    n_nodes = int(np.prod(m))
    size = WORLD_DIM * n_nodes

    inner = tuple(slice(1, -1) for _ in range(WORLD_DIM))
    hinv = config.world_metric.inverse[inner]
    sqrt_h = np.sqrt(config.world_metric.determinant)[inner]
    gamma = chris.values[inner]

    d1 = [_interior_1d_operators(shape[k], grid.spacing(k))[0] for k in range(WORLD_DIM)]
    eyes = [sp.identity(mk, format="csr") for mk in m]
    node_ops = []
    for c in range(WORLD_DIM):
        op = None
        for k in range(WORLD_DIM):
            block = d1[k] if k == c else eyes[k]
            op = block if op is None else sp.kron(op, block, format="csr")
        node_ops.append(op)

    eye3 = sp.identity(WORLD_DIM, format="csr")
    matrix = sp.csr_matrix((size, size))
    for c in range(WORLD_DIM):
        weights = (sqrt_h[..., None] * hinv[..., :, c]).reshape(-1)
        matrix = matrix + sp.diags(weights) @ sp.kron(node_ops[c], eye3, format="csr")

    local = sqrt_h[..., None, None] * np.einsum("...bc,...bcd->...bd", hinv, gamma)
    local = local.reshape(n_nodes, WORLD_DIM, WORLD_DIM)
    if np.any(local):
        rows = np.repeat(
            np.arange(n_nodes) * WORLD_DIM, WORLD_DIM * WORLD_DIM
        ) + np.tile(np.repeat(np.arange(WORLD_DIM), WORLD_DIM), n_nodes)
        cols = np.repeat(np.arange(n_nodes) * WORLD_DIM, WORLD_DIM * WORLD_DIM) + np.tile(
            np.tile(np.arange(WORLD_DIM), WORLD_DIM), n_nodes
        )
        matrix = matrix + sp.csr_matrix(
            (local.reshape(-1), (rows, cols)), shape=(size, size)
        )
    return matrix


def fp_determinant(config, chris):
    """Determinant of the gauge-fixing operator on interior nodes.

    Returns the determinant of the operator itself (the anticommuting
    Gaussian convention), as sign and log magnitude; a singular operator
    is flagged with ``-inf``.
    """
    return fp_log_determinant(fp_operator_matrix(config, chris))
