"""Discretized membrane-style action over the strategy world volume.

The world volume is a three-axis grid (time and two strategy axes),
embedded in an 11-dimensional background whose leading three slots
mirror the world-volume directions.  The brane is held in static gauge:
the embedding is the world coordinates ``sigma`` on the first three
transverse slots and zero on the other five, and the ghost pair is
``e = I``, ``c = sigma``.  Every quantity below is the closed form of
that gauge; no embedding, Jacobian or ghost field is formed.

The action density per node is

    (1/2) sqrt(h) [ 3 + h^{ab} Npull_{ab} (p*b)^W
                    - (1/3!sqrt(h)) eps^{abc} Hpull_{abc} (p*b)^{1-W}
                    - Q*R*xbar ]

where ``Npull`` and ``Hpull`` are the pull-backs of the background
metric and of the antisymmetric coupling, ``p*b`` the firm's profit at
its strategy times its stubbornness, one number over the whole world
volume, and ``W`` the profit freedom exponent.  The multiplier term
that enforces the share dynamics is absent: simulated paths satisfy the
discrete dynamics exactly, so its residual is zero.  In static gauge the
embedding Jacobian is the identity on the first three transverse slots,
so ``Npull = I`` and ``h^{ab} Npull_{ab} = tr h^{-1}``.  The coupling is
the alternating symbol on the first three transverse slots times ``-1/det
h``, so ``eps^{abc} Hpull_{abc} / 3! = -1/det h`` and the bracket is

    3 + tr(h^{-1}) (p*b)^W + (det h)^(-3/2) (p*b)^{1-W} - Q*R*xbar.

:func:`scalar_action_terms` forms it once per node; the action and the
kernel's effective scale both read that one array.

The gauge-fixing ghost term is not part of the bracket:
:func:`ghost_action` integrates it covariantly, and the pipeline reports
it separately as ``action.json["ghost"]``.  :func:`fp_determinant`
discretizes the ghost operator with first-order forward differences,
which makes it block upper triangular: its determinant is local by
construction, a product of one 3x3 determinant per interior node, and a
singular result names the node whose block is singular.

Every integrand is a profile over the axes it varies along, and is
integrated there (:func:`_trapezoid`): by per-axis trapezoid weights
along those axes, and along every other axis by the rule's exact sums
``sum w = b - a`` and ``sum w x = (b^2 - a^2)/2``, so no array spans
the grid.  The rule is the tensor-product trapezoid rule, which makes
the action additive across a partition of the time axis at a grid
plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .geometry import (
    _broadcast,
    _first_bad_node,
    _joint_support,
    _on_support,
    lu_determinants,
)

WORLD_DIM = 3
BACKGROUND_DIM = 11


def scalar_action_terms(metric, ricci_scalar, weight, exponent, measure, mean_share):
    """Per-node action bracket, curvature potential included,

        3 + tr(h^{-1}) w^W + (det h)^(-3/2) w^{1-W} - Q R xbar,

    at the firm's weight ``w = p*b`` (one positive number), the freedom
    exponent ``W`` in ``(0, 1)``, the stubbornness measure ``Q``, the
    curvature scalar ``R`` (a number or a per-node field) and the mean
    share ``xbar``.  It is formed once, on the joint support of the
    metric and ``R``, and broadcast to the grid: :func:`evaluate_action`
    and the effective-scale extraction both consume it.
    """
    grid = metric.grid
    if grid.n_axes != WORLD_DIM:
        raise ValidationError("world volume must have 3 axes")
    if not 0.0 < exponent < 1.0:
        raise ValidationError("freedom exponent must lie strictly inside (0,1)")
    if not weight > 0.0:
        raise NumericalError(
            f"profit weight must be positive for fractional exponents; value {weight:.6g}"
        )
    ricci = np.broadcast_to(np.asarray(ricci_scalar, dtype=float), grid.shape)
    axes = _joint_support(WORLD_DIM, metric.values, ricci)
    det = _on_support(metric.determinant, axes, WORLD_DIM)
    sqrt_h = np.sqrt(det)
    # as a 0-d array the weight takes numpy's array power, as a per-node
    # weight would; scalar pow can differ from it by an ulp
    weight = np.asarray(weight, dtype=float)
    world_term = np.einsum("...aa->...", _on_support(metric.inverse, axes, WORLD_DIM))
    trans_term = (-1.0 / det) / sqrt_h
    terms = 3.0 + world_term * weight**exponent - trans_term * weight ** (1.0 - exponent)
    potential = measure * _on_support(ricci, axes, WORLD_DIM) * mean_share
    return _broadcast(terms - potential, grid)


def _trapezoid(grid, axes, profile, moment=None):
    """Trapezoid integral over ``grid`` of ``profile``, a field's values
    on ``axes`` (length 1 along every other axis), times the coordinate
    along axis ``moment`` if one is given.

    Along each axis of ``axes`` the weights are the rule's, times the
    coordinates on axis ``moment``; along any other axis they are its
    sums, ``b - a``, or ``(b^2 - a^2)/2`` on axis ``moment``.  Their
    product is taken in axis order.
    """
    weights = 1.0
    for k, (a, b) in enumerate(grid.extents):
        if k in axes:
            w = np.full(grid.counts[k], grid.spacing(k))
            w[0] *= 0.5
            w[-1] *= 0.5
            if k == moment:
                w = w * grid.coordinates(k)
        else:
            w = np.array([0.5 * (b * b - a * a) if k == moment else b - a])
        weights = weights * w.reshape([-1 if j == k else 1 for j in range(grid.n_axes)])
    # elementwise, no tensordot: a run's first BLAS call costs more than this small sum
    with np.errstate(over="ignore", invalid="ignore"):  # action.json reports a non-finite one
        return float(np.sum(weights * profile))


def evaluate_action(metric, bracket):
    """Trapezoid value of the action ``(1/2) sqrt(h) * bracket`` over the
    world volume, from the bracket that :func:`scalar_action_terms`
    returns for ``metric``, integrated on the joint support of the two.

    Returns the real action value; phase conventions are applied by the
    transition-kernel layer, not here.
    """
    axes = _joint_support(WORLD_DIM, bracket, metric.determinant)
    sqrt_h = np.sqrt(_on_support(metric.determinant, axes, WORLD_DIM))
    density = 0.5 * sqrt_h * _on_support(bracket, axes, WORLD_DIM)
    return _trapezoid(metric.grid, axes, density)


def ghost_action(metric, epsilon_step):
    """Gauge-fixing action ``(1/(2*pi*eps)) int sqrt(h) e : grad(c)``.

    With ``e = I`` and ``c = sigma`` the density ``h^{ac} (d_c c^a +
    gamma^a_{cd} c^d)`` is ``tr h^{-1} + A_d sigma^d`` with ``A_d =
    h^{ac} gamma^a_{cd}``, from the metric's connection.  The trace, ``A``
    and ``sqrt(h)`` are taken on the metric's support, and each term
    ``sqrt(h) A_d sigma^d`` is integrated as ``sqrt(h) A_d`` against the
    first moment of axis ``d``.
    """
    if not epsilon_step > 0:
        raise ValidationError("epsilon step must be positive")
    grid = metric.grid
    hinv = metric._profile(metric.inverse)
    pull = np.einsum("...at,...atd->...d", hinv, metric._profile(metric.connection))
    sqrt_h = np.sqrt(metric._profile(metric.determinant))
    integral = _trapezoid(grid, metric.support, sqrt_h * np.einsum("...aa->...", hinv))
    for d in range(WORLD_DIM):
        integral += _trapezoid(grid, metric.support, sqrt_h * pull[..., d], moment=d)
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


def fp_determinant(metric):
    """Determinant of the gauge-fixing operator on interior nodes.

    The ghost bilinear, restricted to the identity antighost pattern, is
    the square operator ``(F c)^b = sqrt(h) h^{bc} (d_c c^b +
    gamma^b_{cd} c^d)`` on the ghost vector, with zero boundary values and
    the metric's connection ``gamma``.
    ``d_c`` is the first-order forward difference, so in node-major order
    F couples node ``n`` only to itself and to the later nodes
    ``n + e_c``: F is block upper triangular with the diagonal blocks

        D_n[b, d] = sqrt(h) (sum_c h^{bc} gamma^b_{cd}
                             - delta_bd sum_c h^{bc} / spacing_c)

    and ``det F`` is the product of the ``det D_n``, local by
    construction.  (Central differences would leave an odd-even null
    mode on every axis with an odd interior count.)  The blocks are
    formed on the interior of the metric's profile; each repeats at the
    ``prod (n_k - 2)`` interior nodes along the axes outside the support,
    which multiply the log magnitude and raise the sign to that power.
    Returns the determinant of the operator itself (the anticommuting
    Gaussian convention) as sign and log magnitude; a zero ``det D_n``
    makes the result singular and names the first such node in C order,
    at index 1 on every axis outside the support, and a non-finite one is
    a :class:`NumericalError`.
    """
    grid = metric.grid
    # the profile's interior: the one slice along an axis outside the support
    inner = tuple(slice(1, -1) if k in metric.support else slice(None) for k in range(WORLD_DIM))
    hinv = metric._profile(metric.inverse)[inner]
    sqrt_h = np.sqrt(metric._profile(metric.determinant)[inner])
    blocks = np.einsum("...bc,...bcd->...bd", hinv, metric._profile(metric.connection)[inner])
    diagonal = np.einsum("...bc,c->...b", hinv, 1.0 / np.array(grid.spacings))
    blocks = sqrt_h[..., None, None] * (blocks - diagonal[..., None] * np.eye(WORLD_DIM))
    with np.errstate(over="ignore", invalid="ignore"):
        det, _ = lu_determinants(blocks)
    # index 0 of the profile's interior is node 1 along every axis
    if not np.all(np.isfinite(det)):
        node = tuple(i + 1 for i in _first_bad_node(~np.isfinite(det)))
        raise NumericalError(f"gauge-fixing block determinant is not finite at node {node}")
    if np.any(det == 0.0):
        return FPDeterminant(0.0, -np.inf, tuple(i + 1 for i in _first_bad_node(det == 0.0)))
    # each block repeats at the interior nodes of every axis outside the support
    repeats = math.prod(n - 2 for k, n in enumerate(grid.counts) if k not in metric.support)
    sign = float(np.prod(np.sign(det))) ** (repeats % 2)
    return FPDeterminant(sign, repeats * float(np.sum(np.log(np.abs(det)))))
