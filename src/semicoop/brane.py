"""Discretized membrane-style action over the strategy world volume.

The world volume is a three-axis grid (time and two strategy axes).  An
embedding field maps each node into the transverse directions of an
11-dimensional background, occupying background index slots 4..11; the
leading three background slots mirror the world-volume directions and
are carried as data only.

The action density per node is

    (1/2) sqrt(h) [ 3 + h^{ab} Npull_{ab} (p*b)^W
                    - (1/3!sqrt(h)) eps^{abc} Hpull_{abc} (p*b)^{1-W}
                    - Q*R*xbar ]

where ``Npull`` and ``Hpull`` are the pull-backs of the background
metric and of the antisymmetric coupling, ``p*b`` the profit weighted by
stubbornness and ``W`` the profit freedom exponent.  The multiplier term
that enforces the share dynamics is absent: simulated paths satisfy the
discrete dynamics exactly, so its residual is zero.  The background is
the identity, so ``Npull = J J^T`` for the embedding Jacobian ``J``.  The
coupling is the alternating symbol on the first three transverse slots
times ``-1/det h``, and it enters only through ``eps^{abc} Hpull_{abc} /
3!``, so :func:`pullbacks` returns that single component, ``det
J[..., :3] * (-1/det h)``, instead of the full antisymmetric tensor.  The
gauge-fixing ghost term is not part of the bracket: :func:`ghost_action`
integrates it covariantly, and the pipeline reports it separately as
``action.json["ghost"]``.  :func:`fp_determinant` discretizes the ghost
operator with first-order forward differences, which makes it block upper
triangular: its determinant is local by construction, a product of one
3x3 determinant per interior node, and a singular result names the node
whose block is singular.  Integration is by tensor-product trapezoid
weights, which makes the action exactly additive across a partition of
the time axis at a grid plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .geometry import MetricField, _first_bad_node, first_derivative, lu_determinants
from .grids import require_same_grid

WORLD_DIM = 3
TRANSVERSE_DIM = 8
BACKGROUND_DIM = 11


@dataclass
class BraneConfiguration:
    """Embedding, world metric, ghosts and scalar data of one brane.

    Parameters
    ----------
    embedding : ndarray (*grid.shape, 8)
        Transverse coordinates per node (background slots 4..11).
    world_metric : MetricField
        3x3 field on the same grid.
    ghost_e : ndarray (*grid.shape, 3, 3), optional
    ghost_c : ndarray (*grid.shape, 3), optional
        Gauge-fixing fields; evaluated as ordinary real fields.
    freedom_exponent : float in (0, 1), strictly interior.
    mean_share, stubbornness_measure : floats.
    ricci_scalar : float or ndarray
        Curvature scalar entering the background potential term.
    """

    embedding: np.ndarray
    world_metric: MetricField
    ghost_e: np.ndarray = None
    ghost_c: np.ndarray = None
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

        if (self.ghost_e is None) != (self.ghost_c is None):
            raise ValidationError("ghost fields come in pairs (e together with c)")
        if self.ghost_e is not None:
            self.ghost_e = np.asarray(self.ghost_e, dtype=float)
            self.ghost_c = np.asarray(self.ghost_c, dtype=float)
            if self.ghost_e.shape != grid.shape + (3, 3):
                raise ValidationError("ghost e field must have shape (*grid, 3, 3)")
            if self.ghost_c.shape != grid.shape + (3,):
                raise ValidationError("ghost c field must have shape (*grid, 3)")

    @property
    def grid(self):
        return self.world_metric.grid

    def potential(self):
        """Per-node curvature potential ``Q * R * xbar``."""
        ricci = np.broadcast_to(np.asarray(self.ricci_scalar, dtype=float), self.grid.shape)
        return self.stubbornness_measure * ricci * self.mean_share

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
        ``npull = J J^T`` is the per-node 3x3 pull-back of the identity
        background block through the embedding Jacobian ``J``.
        ``component`` is the single independent per-node component
        ``Hpull_{012}`` of the pulled-back 3-form, equal to ``eps^{abc}
        Hpull_{abc} / 3!``; for the alternating symbol on the first three
        transverse slots it is the leading 3x3 minor ``det J[..., :3]``,
        times the coupling's ``-1/det h``.
    """
    jac = config.embedding_jacobian()
    npull = jac @ np.swapaxes(jac, -1, -2)
    component = np.linalg.det(jac[..., :3]) * (-1.0 / config.world_metric.determinant)
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
    """Per-node bracket of the action without the potential term:
    ``3 + kinetic(world) - kinetic(transverse)``.

    This is the scalar the effective-scale extraction consumes.
    """
    npull, component = pullbacks(config)
    sqrt_h = np.sqrt(config.world_metric.determinant)
    pw = _profit_weight(config, firm, profit)
    pw_w, pw_1mw = _powers(pw, config.freedom_exponent)

    world_term = np.einsum("...ab,...ab->...", config.world_metric.inverse, npull)
    trans_term = component / sqrt_h
    return 3.0 + world_term * pw_w - trans_term * pw_1mw


def evaluate_action(config, firm, profit, terms=None):
    """Trapezoid value of the action over the world volume.

    Parameters
    ----------
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

    The operator is block upper triangular with one 3x3 block per
    interior node (see :func:`fp_determinant`), so it is singular exactly
    when one block is.  ``singular_node`` is then the world-grid index of
    the first such node, ``sign`` is 0 and ``log_abs_det`` is ``-inf``;
    it is None for a regular operator.
    """

    sign: float
    log_abs_det: float
    singular_node: tuple = None

    @property
    def singular(self):
        return self.singular_node is not None


def fp_determinant(config, chris):
    """Determinant of the gauge-fixing operator on interior nodes.

    The ghost bilinear, restricted to the identity antighost pattern, is
    the square operator ``(F c)^b = sqrt(h) h^{bc} (d_c c^b +
    gamma^b_{cd} c^d)`` on the ghost vector, with zero boundary values.
    ``d_c`` is the first-order forward difference, so in node-major order
    F couples node ``n`` only to itself and to the later nodes
    ``n + e_c``: F is block upper triangular with the diagonal blocks

        D_n[b, d] = sqrt(h) (sum_c h^{bc} gamma^b_{cd}
                             - delta_bd sum_c h^{bc} / spacing_c)

    and ``det F`` is the product of the ``det D_n``, local by
    construction.  (Central differences would leave an odd-even null
    mode on every axis with an odd interior count.)  Returns the
    determinant of the operator itself (the anticommuting Gaussian
    convention) as sign and log magnitude; a zero ``det D_n`` makes the
    result singular and names that node, and a non-finite one is a
    :class:`NumericalError`.
    """
    grid = require_same_grid(config.world_metric, chris)
    inner = (slice(1, -1),) * WORLD_DIM
    hinv = config.world_metric.inverse[inner]
    sqrt_h = np.sqrt(config.world_metric.determinant[inner])
    blocks = np.einsum("...bc,...bcd->...bd", hinv, chris.values[inner])
    diagonal = np.einsum("...bc,c->...b", hinv, 1.0 / np.array(grid.spacings))
    blocks = sqrt_h[..., None, None] * (blocks - diagonal[..., None] * np.eye(WORLD_DIM))
    with np.errstate(over="ignore", invalid="ignore"):
        det, _ = lu_determinants(blocks)
    if not np.all(np.isfinite(det)):
        node = tuple(i + 1 for i in _first_bad_node(~np.isfinite(det)))
        raise NumericalError(f"gauge-fixing block determinant is not finite at node {node}")
    if np.any(det == 0.0):
        return FPDeterminant(0.0, -np.inf, tuple(i + 1 for i in _first_bad_node(det == 0.0)))
    return FPDeterminant(float(np.prod(np.sign(det))), float(np.sum(np.log(np.abs(det)))))
