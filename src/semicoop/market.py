"""Market-share dynamics with geometry-derived drift and diffusion.

A firm's share moves as an Ito process whose coefficients may be derived
from a metric field: the drift is the contraction
``mu^a = -1/2 h^{bc} gamma^a_{bc}`` and the diffusion matrix is the
Cholesky factor of the inverse metric, so the reconstruction
``omega omega^T = h^{ab}`` holds at every node and share increments pick
up the inverse-metric covariance.

Simulation is Euler-Maruyama on chunks of 4096 paths, component-major:
a chunk's states live in a ``(steps + 1, 3, n)`` buffer and its
increments in ``(steps, 3, n)``, so every step works on contiguous rows.
The coefficient tables are built on the metric's profile, the grid axes
along which the metric and its connection vary, and checked for finite
values once, before the first step.  Each step looks up all
twelve coefficients (three drift, nine diffusion) of every path in one
gather from a ``(12, profile nodes)`` table, through the nearest-node
index on those axes alone; the tables are constant along the others, so
the gather equals a lookup on the whole grid.  Randomness
flows from a master seed split into fixed per-chunk streams keyed by
chunk index, so ensembles are bit-identical for a given seed no matter
how many worker threads run the chunks or in which order they finish.
A chunk's normals are drawn 64 paths at a time into a small slab and
scaled into its increment buffer.

A finished chunk transposes its states once into a path-major
``(n, steps + 1, 3)`` rows block, held in its increment buffer, and the
calling thread hands the blocks, in path order, to a sink: an
:class:`fieldio.EnsembleWriter`, which hashes each block and appends it
to the ensemble file, or an in-memory array.  At most ``threads + 1``
chunks are in flight, submitted and not yet handed over, so at most that
many buffer sets ever exist and the memory of a run does not grow with
the path count.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from numpy.random import SeedSequence, default_rng

from .errors import NumericalError, SingularMetricError, ValidationError
from .geometry import _broadcast, _joint_support, _on_support
from .grids import GridSpec
from .polygon import effective_region

STATE_DIM = 3

_SDE_STREAM_TAG = 0x5DE
_CHUNK_SIZE = 4096
_SLAB_PATHS = 64


@dataclass
class FirmState:
    """One firm's state: share vector, strategy and cooperation data.

    ``share`` is the firm's position in strategy coordinates; the scalar
    market share everyone quotes is its first component.  When
    ``polygon_area`` is known the strategy value must sit inside the
    committed region ``alpha_own**coop_own * polygon_area``.
    """

    share: np.ndarray
    strategy: float
    alpha_own: float
    alpha_other: float
    coop_own: float
    coop_other: float
    stubbornness: float = 1.0
    polygon_area: float = None

    def __post_init__(self):
        share = np.asarray(self.share, dtype=float).reshape(-1)
        if share.shape != (STATE_DIM,):
            raise ValidationError("share must be a 3-vector")
        self.share = share
        problems = []
        for name in ("alpha_own", "alpha_other"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                problems.append(f"{name} must lie in [0,1]")
        for name in ("coop_own", "coop_other"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                problems.append(f"{name} must lie in (0,1]")
        if not np.isfinite(self.strategy):
            problems.append("strategy must be finite")
        if problems:
            raise ValidationError("invalid firm state", problems)
        if self.polygon_area is not None:
            region = effective_region(self.polygon_area, self.alpha_own, self.coop_own)
            if not 0.0 <= self.strategy <= region:
                raise ValidationError(
                    f"strategy {self.strategy} lies outside the committed "
                    f"region [0, {region:.6g}]"
                )


@dataclass
class SDECoefficients:
    """Drift and diffusion of the share SDE: per-node tables or callables.

    Geometry-derived instances (:func:`derive_coefficients`) carry the
    tables ``drift_table`` (``grid.shape + (3,)``) and
    ``diffusion_table`` (``grid.shape + (3, 3)``) with their grid, as
    read-only views of their profile.  :func:`simulate` reads them at the
    nearest node, clamped to the grid, drift and diffusion together in
    one gather per step; the index runs over the axes along which the
    tables vary (any table works, and one that varies along every axis
    is looked up on all of them).  Instances
    without tables give callables instead: ``drift(s, x)`` maps a float
    time and an ``(n, 3)`` state block to an ``(n, 3)`` array,
    ``diffusion(s, x)`` to ``(n, 3, 3)``.  They let the integrator be
    checked on smooth coefficients (strong order one half, linear decay).
    """

    drift: object = None
    diffusion: object = None
    grid: GridSpec = None
    drift_table: np.ndarray = field(default=None, repr=False)
    diffusion_table: np.ndarray = field(default=None, repr=False)


def _node_indexer(grid, axes):
    """Nearest-node lookup on the grid axes ``axes`` for component-major
    state blocks.

    The returned function maps ``x`` of shape (components, n) to the
    C-order index, in the profile over ``axes``, of the node nearest each
    column: row ``k`` of ``x``, for ``k`` in ``axes``, is rounded to the
    nearest node of grid axis ``k`` and clamped to the grid, then the
    per-axis indices are flattened.  Rows off ``axes`` are not read.
    """
    axes = list(axes)
    low = np.array([grid.extents[a][0] for a in axes])[:, None]
    spacing = np.array([grid.spacing(a) for a in axes])[:, None]
    counts = [grid.counts[a] for a in axes]
    top = np.array(counts, dtype=np.intp)[:, None] - 1
    strides = np.cumprod([1] + counts[:0:-1])[::-1, None]

    def index(x):
        t = x[axes]
        t -= low
        t /= spacing
        j = np.rint(t, out=t).astype(np.intp)
        np.clip(j, 0, top, out=j)
        j *= strides
        return j.sum(axis=0)

    return index


def derive_coefficients(metric, chris):
    """Geometry-consistent drift and diffusion tables.

    They are computed on the joint support of the metric and the
    connection and broadcast to the grid.  The metric must be positive
    definite on its grid (the simulation slice is Riemannian); the first
    node, in C order, where the Cholesky factorization fails is reported
    by index.
    """
    grid = metric.grid
    axes = _joint_support(grid.n_axes, metric.values, chris.values)
    hinv = _on_support(metric.inverse, axes, grid.n_axes)
    mu = -0.5 * np.einsum("...bc,...abc->...a", hinv, _on_support(chris.values, axes, grid.n_axes))
    try:
        omega = np.linalg.cholesky(hinv)
    except np.linalg.LinAlgError:
        eig = np.linalg.eigvalsh(hinv)
        bad = np.argwhere(_broadcast(eig.min(axis=-1) <= 0.0, grid))
        node = tuple(int(i) for i in bad[0]) if len(bad) else (0,) * grid.n_axes
        raise SingularMetricError(node, "inverse metric is not positive definite")

    return SDECoefficients(
        grid=grid, drift_table=_broadcast(mu, grid), diffusion_table=_broadcast(omega, grid)
    )


@dataclass
class PathEnsemble:
    """Simulated share paths: ``values[path, step, component]``, and
    ``final``, the contiguous ``(paths, 3)`` array of each path's last
    state."""

    times: np.ndarray
    values: np.ndarray
    final: np.ndarray
    seed: int = None

    def summary(self):
        """Counts, horizon, and the final mean and ``ddof=1`` variance,
        from ``final`` alone, so ``values`` is never read."""
        return {
            "paths": len(self.final),
            "steps": int(len(self.times) - 1),
            "horizon": float(self.times[-1]),
            "final_mean": [float(v) for v in self.final.mean(axis=0)],
            "final_variance": [float(v) for v in self.final.var(axis=0, ddof=1)],
        }


class _ArraySink:
    """In-memory sink of :func:`simulate`: the rows blocks are copied into
    ``values`` and their last states into ``final``."""

    def __init__(self, shape):
        self.values = np.empty(shape)
        self.final = np.empty((shape[0], shape[2]))

    def rows(self, lo, block):
        hi = lo + len(block)
        self.values[lo:hi] = block
        self.final[lo:hi] = block[:, -1]


def _draw_increments(seed, chunk_index, dw, slab, dt):
    """Fill ``dw`` (steps, 3, n) with chunk ``chunk_index``'s Brownian
    increments.

    The chunk's stream is the path-major ``(n, steps, 3)`` normal draw,
    taken ``len(slab)`` paths at a time into ``slab``; each slab is
    scaled by ``sqrt(dt)`` and transposed into ``dw`` in one multiply.
    Consecutive draws continue one stream, so the numbers are those of a
    single ``(n, steps, 3)`` draw.
    """
    ss = SeedSequence(int(seed), spawn_key=(_SDE_STREAM_TAG, int(chunk_index)))
    rng = default_rng(ss)
    scale = math.sqrt(dt)
    n = dw.shape[2]
    for lo in range(0, n, len(slab)):
        hi = min(lo + len(slab), n)
        normals = slab[: hi - lo]
        rng.standard_normal(out=normals)
        np.multiply(normals.transpose(1, 2, 0), scale, out=dw[:, :, lo:hi])


def _coefficient_block(coeffs):
    """Per-step coefficient lookup of :func:`simulate`.

    Returns ``(fill, checked)``.  ``fill(s, x, block)`` writes the
    coefficients at the component-major states ``x`` (3, n) into
    ``block`` (12, n): rows 0-2 hold the drift ``mu^a``, rows
    ``3 + 3b + a`` the diffusion entry ``omega^a_b``.  Table-backed
    coefficients are one ``take`` from a (12, profile nodes) table, over
    the axes along which the tables vary, through one nearest-node index
    on those axes; the table is checked for finite values here, once, so
    ``checked`` is true.  Callables see an ``(n, 3)`` state block, as
    their contract says, and their values are left to the caller to
    check at every step.

    Raises
    ------
    NumericalError
        When a table entry is not finite; the message names the first
        such grid node in C order.
    """
    if coeffs.drift_table is not None:
        grid = coeffs.grid
        axes = _joint_support(grid.n_axes, coeffs.drift_table, coeffs.diffusion_table)
        drift = _on_support(coeffs.drift_table, axes, grid.n_axes)
        diffusion = _on_support(coeffs.diffusion_table, axes, grid.n_axes)
        profile = drift.shape[: grid.n_axes]
        nodes = math.prod(profile)
        table = np.empty((1 + STATE_DIM, STATE_DIM, nodes))
        table[0] = drift.reshape(nodes, STATE_DIM).T
        table[1:] = diffusion.reshape(nodes, STATE_DIM, STATE_DIM).transpose(2, 1, 0)
        table = table.reshape(-1, nodes)
        finite = np.isfinite(table).all(axis=0)
        if not finite.all():
            # the profile has length 1 along the other axes, so its first
            # bad node is the grid's first, with index 0 along them
            first = np.unravel_index(np.argmin(finite), profile)
            node = tuple(int(i) for i in first)
            raise NumericalError(f"non-finite coefficients at node {node}")
        index = _node_indexer(grid, axes)

        def fill(s, x, block):
            # indices are clamped to the grid, so "clip" never clips
            np.take(table, index(x), axis=1, out=block, mode="clip")

        return fill, True

    def fill(s, x, block):
        n = x.shape[1]
        xs = np.ascontiguousarray(x.T)
        mu = np.asarray(coeffs.drift(s, xs), dtype=float)
        om = np.asarray(coeffs.diffusion(s, xs), dtype=float)
        block[:STATE_DIM] = np.broadcast_to(mu, (n, STATE_DIM)).T
        block[STATE_DIM:].reshape(STATE_DIM, STATE_DIM, n)[...] = np.broadcast_to(
            om, (n, STATE_DIM, STATE_DIM)
        ).transpose(2, 1, 0)

    return fill, False


class _ChunkBuffers:
    """One chunk's arrays, allocated once for chunks of up to ``width``
    paths: one flat block viewed, for a chunk of ``n`` paths, as
    contiguous increments, states and per-step arrays, plus the slab the
    normals are drawn into.  The increments' region holds one step more
    than the increments need: once a chunk's states are final, that
    region holds them path-major as the chunk's rows block."""

    def __init__(self, steps, width):
        self.shapes = [
            (steps + 1, STATE_DIM),  # dw, then the rows block
            (steps + 1, STATE_DIM),  # states
            (4 * STATE_DIM,),  # coefficient block
            (STATE_DIM, STATE_DIM),  # products omega dW
            (STATE_DIM,),  # noise
        ]
        self.flat = np.empty(sum(math.prod(s) for s in self.shapes) * width)
        self.slab = np.empty((min(_SLAB_PATHS, width), steps, STATE_DIM))

    def views(self, n):
        """``(dw, states, block, products, noise)``, each with a last
        axis of ``n`` paths; ``dw`` has one step more than a chunk
        draws."""
        views, at = [], 0
        for shape in self.shapes:
            size = math.prod(shape) * n
            views.append(self.flat[at : at + size].reshape(shape + (n,)))
            at += size
        return views


def simulate(coeffs, initial, horizon, steps, paths, seed, increments=None, threads=1, sink=None):
    """Euler-Maruyama ensemble of share paths.

    Paths run in chunks of 4096.  A chunk keeps its states and increments
    component-major, ``(steps + 1, 3, n)`` and ``(steps, 3, n)``; each
    step looks up drift and diffusion together (one nearest-node gather
    from the tables, or one call of each callable) and applies
    ``x + mu dt + omega dW`` with the three products of ``omega dW``
    summed in the order numpy's ``einsum`` sums them for C-ordered
    blocks, ``(w0 d0 + w2 d2) + w1 d1``.  The finished chunk transposes
    its states once into a path-major ``(n, steps + 1, 3)`` rows block in
    its increment buffer, and the calling thread passes the blocks to
    ``sink.rows(lo, block)`` in path order, while the workers go on with
    later chunks.

    At most ``threads + 1`` chunks are in flight, submitted and not yet
    passed to the sink.  A chunk's buffer set returns to a shared pool
    once its block is passed on, and a chunk takes one from that pool
    when it starts, so at most ``threads + 1`` sets ever exist; normals
    are drawn in slabs of 64 paths.  So the memory a call allocates
    besides its sink does not grow with the path count.  When a chunk or
    the sink raises, no further chunk is submitted, and the chunks in
    flight finish before the exception propagates.

    Parameters
    ----------
    coeffs : SDECoefficients
        Its tables when ``drift_table`` is set, its callables otherwise.
    initial : FirmState or 3-vector
        Starting share; applied exactly at time zero.
    horizon : float
        Final time.
    steps : int
        Time steps, at least 2.
    paths : int
    seed : int
        Master seed; increments for path chunk ``c`` come from the fixed
        stream ``(seed, c)`` regardless of thread count.
    increments : ndarray (paths, steps, 3), optional
        Explicit Brownian increments, overriding the seeded streams
        (used for convergence studies against a common noise).
    threads : int
        Worker threads over path chunks; affects speed only, never the
        numbers.
    sink : object, optional
        Receives the ensemble: ``sink.rows(lo, block)`` takes rows
        ``[lo, lo + len(block))`` as a C-contiguous float64 block that is
        reused once the call returns, and after the last block
        ``sink.values`` (``(paths, steps + 1, 3)``) and ``sink.final``
        (``(paths, 3)``, each path's last state) become the ensemble's.
        An :class:`fieldio.EnsembleWriter` writes the ensemble file; the
        default keeps it in memory.

    Returns
    -------
    PathEnsemble

    Raises
    ------
    NumericalError
        When a coefficient table holds a non-finite value (the message
        names the node), or when coefficient evaluation fails or a
        callable gives non-finite values (the message names the step).
    """
    if steps < 2:
        raise ValidationError("step count must be at least 2")
    if paths < 1:
        raise ValidationError("path count must be positive")
    if not horizon > 0:
        raise ValidationError("horizon must be positive")
    x0 = initial.share if isinstance(initial, FirmState) else np.asarray(initial, float)
    if x0.shape != (STATE_DIM,):
        raise ValidationError("initial share must be a 3-vector")
    if sink is None:
        sink = _ArraySink((paths, steps + 1, STATE_DIM))

    dt = float(horizon) / steps
    times = np.linspace(0.0, float(horizon), steps + 1)

    fill, checked = _coefficient_block(coeffs)
    # Step 0 adds to x0 + 0.0: a -0.0 start component becomes +0.0, so no
    # state after step 0 is -0.0, as with einsum's zero-started sums.
    start = x0[:, None] + 0.0
    width = min(paths, _CHUNK_SIZE)
    spare = []  # buffer sets that no chunk in flight holds

    def run_chunk(chunk_index, lo, hi):
        """Run one chunk; returns its buffer set and rows block."""
        n = hi - lo
        try:
            own = spare.pop()  # atomic, unlike a test for emptiness then a pop
        except IndexError:
            own = _ChunkBuffers(steps, width)
        region, states, block, products, noise = own.views(n)
        dw = region[:steps]
        if increments is not None:
            given = np.asarray(increments[lo:hi], dtype=float)
            if given.shape != (n, steps, STATE_DIM):
                raise ValidationError(
                    "increments must have shape (paths, steps, 3)"
                )
            dw[...] = given.transpose(1, 2, 0)
        else:
            _draw_increments(seed, chunk_index, dw, own.slab, dt)
        drift = block[:STATE_DIM]
        diffusion = block[STATE_DIM:].reshape(STATE_DIM, STATE_DIM, n)
        states[0] = x0[:, None]
        for k in range(steps):
            x = states[k]
            try:
                fill(times[k], x, block)
            except Exception as exc:
                raise NumericalError(
                    f"coefficient evaluation failed at step {k}: {exc}"
                ) from exc
            if not checked and not np.isfinite(block).all():
                raise NumericalError(f"non-finite coefficients at step {k}")
            np.multiply(diffusion, dw[k][:, None, :], out=products)
            np.add(products[0], products[2], out=noise)
            noise += products[1]
            x_next = states[k + 1]
            np.multiply(drift, dt, out=x_next)
            np.add(x if k else start, x_next, out=x_next)
            x_next += noise
        rows = region.reshape(n, steps + 1, STATE_DIM)
        rows[...] = states.transpose(2, 0, 1)
        return own, rows

    def deliver(lo, own, rows):
        """Pass a finished chunk's rows to the sink and free its buffers."""
        sink.rows(lo, rows)
        spare.append(own)

    bounds = [
        (c, lo, min(lo + _CHUNK_SIZE, paths))
        for c, lo in enumerate(range(0, paths, _CHUNK_SIZE))
    ]
    if threads and threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        window = deque()  # (lo, future) of the chunks in flight, in path order
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            for c, lo, hi in bounds:
                if len(window) > threads:
                    first, future = window.popleft()
                    deliver(first, *future.result())
                window.append((lo, pool.submit(run_chunk, c, lo, hi)))
            while window:
                first, future = window.popleft()
                deliver(first, *future.result())
    else:
        for c, lo, hi in bounds:
            deliver(lo, *run_chunk(c, lo, hi))

    return PathEnsemble(times=times, values=sink.values, final=sink.final, seed=int(seed))
