"""Market-share dynamics with geometry-derived drift and diffusion.

A firm's share moves as an Ito process whose coefficients are per-node
tables derived from a metric field: the drift is the contraction
``mu^a = -1/2 h^{bc} gamma^a_{bc}`` and the diffusion matrix is the
Cholesky factor of the inverse metric, so the reconstruction
``omega omega^T = h^{ab}`` holds at every node and share increments pick
up the inverse-metric covariance.

Simulation is Euler-Maruyama on chunks of 4096 paths, run one time
step at a time over every chunk.  The states live in two component-major
``(3, paths)`` rows: a step reads row ``k % 2`` and writes row
``(k + 1) % 2``, so every step works on contiguous rows and no array of
a run grows with the step count.  The run copies its last row into the
ensemble's ``final`` itself, once the other row is let go.

State component ``k`` is looked up along grid axis ``k``: a state takes
the coefficients of its nearest grid node, each component rounded on its
own axis and clamped to the grid.  The step's time indexes no axis (axis
0 is read at component 0), so the lookup is the same at every step.

The coefficient tables are built on the metric's profile, the grid axes
along which the metric and its connection vary.  Before the first step
they are checked for finite values and each of the twelve coefficient
rows (three drift, nine diffusion) is classified once as zero, constant
or varying.  Each step gathers only the varying rows of every path, in
one ``take`` from a ``(varying rows, profile nodes)`` table through the
nearest-node index on those axes alone (the tables are constant along
the others, so the gather equals a lookup on the whole grid), multiplies
constant rows as numbers, adds the increment itself for a component whose
one diffusion term is a constant ``1.0`` and leaves zero rows out; no
state is ``-0.0`` and every increment is finite, so the paths keep the
bits of a step that uses all twelve.  On a sphere metric two rows vary
(``mu^1`` and ``omega^2_2``), two are constant and eight are zero; on
the unit sphere both constant rows (``omega^0_0`` and ``omega^1_1``) are
``1.0``.

Randomness flows from a master seed split into fixed per-chunk streams
keyed by chunk index, so ensembles are bit-identical for a given seed no
matter how many worker threads run the chunks or in which order they
finish.  A chunk's stream is one component-major ``(steps, 3, n)``
normal draw, which its steps take in turn, ``(3, n)`` each; the chunk
width is part of the stream.

``threads`` threads, the calling thread and up to ``threads - 1``
helpers, run the steps in rounds that meet at a barrier; the command
line's default is every CPU the process may run on, and no number
depends on it.  Round ``k`` has one task that hands state row ``k`` to a
sink and one task per chunk that steps it to row ``k + 1``; the threads
take the tasks in that order.  So the sink gets the rows ``0..steps``
one call at a time, in step order, possibly from different threads, and
its work overlaps the next step's arithmetic.  This module only hands
over state rows; both sinks, the ensemble file's and the in-memory one,
are in :mod:`fieldio`.  Besides its sink a run holds the two state rows,
48 bytes a path, and one small scratch per thread, ``n <= 4096`` paths
wide.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.random import SeedSequence, default_rng

from .errors import NumericalError, SingularMetricError, ValidationError
from .fieldio import _ArraySink
from .geometry import _broadcast, _joint_support, _on_support
from .grids import GridSpec

STATE_DIM = 3

_SDE_STREAM_TAG = 0x5DE
_CHUNK_SIZE = 4096


@dataclass
class SDECoefficients:
    """Drift and diffusion of the share SDE as per-node tables.

    ``drift_table`` (``grid.shape + (3,)``) and ``diffusion_table``
    (``grid.shape + (3, 3)``) hold the coefficients at every node of
    ``grid``; :func:`derive_coefficients` makes them read-only views of
    their profile.  :func:`simulate` reads them at the nearest node,
    clamped to the grid, in one gather per step of the entries that vary
    from node to node; the index runs over the axes along which the
    tables vary (any table works, and one that varies along every axis
    is looked up on all of them).
    """

    grid: GridSpec
    drift_table: np.ndarray = field(repr=False)
    diffusion_table: np.ndarray = field(repr=False)


def _node_indexer(grid, axes):
    """Nearest-node lookup on the grid axes ``axes`` for component-major
    state blocks.

    The returned function maps ``x`` of shape (components, n) to the
    C-order index, in the profile over ``axes``, of the node nearest each
    column: row ``k`` of ``x``, for ``k`` in ``axes``, is rounded to the
    nearest node of grid axis ``k`` and clamped to the grid, however far
    off it lies, then the per-axis indices are flattened.  Rows off
    ``axes`` are not read.
    """
    counts = [grid.counts[a] for a in axes]
    strides = np.cumprod([1] + counts[:0:-1])[::-1]
    plan = [
        (a, float(grid.extents[a][0]), grid.spacing(a), grid.counts[a] - 1, int(stride))
        for a, stride in zip(axes, strides)
    ]

    def index(x):
        flat = None
        for a, low, spacing, top, stride in plan:
            t = x[a] - low
            t /= spacing
            np.rint(t, out=t)
            # clamped before the cast, so that no value leaves the intp range
            # and a NaN state, which fails the summary, goes to node 0
            np.fmin(np.fmax(t, 0.0, out=t), top, out=t)
            j = t.astype(np.intp)
            if stride > 1:
                j *= stride
            flat = j if flat is None else np.add(flat, j, out=flat)
        return flat

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

    def summary(self):
        """Counts, horizon, and the final mean and ``ddof=1`` variance,
        from ``final`` alone, so ``values`` is never read.  A moment that
        overflows is left non-finite, for the JSON writers to report."""
        with np.errstate(over="ignore", invalid="ignore"):
            mean, variance = self.final.mean(axis=0), self.final.var(axis=0, ddof=1)
        return {
            "paths": len(self.final),
            "steps": int(len(self.times) - 1),
            "horizon": float(self.times[-1]),
            "final_mean": [float(v) for v in mean],
            "final_variance": [float(v) for v in variance],
        }


def _coefficient_block(coeffs):
    """Per-step coefficient lookup of :func:`simulate`.

    Returns ``(fill, plan)``.  The twelve coefficient rows are the drift
    ``mu^a`` (rows 0-2) and the diffusion entries ``omega^a_b`` (row
    ``3 + 3b + a``); ``plan[r]`` is ``None`` when row ``r`` is zero, its
    value when it is one number everywhere, and otherwise its index in
    the block that ``fill(x, block)`` writes for the component-major
    states ``x`` (3, n).  The tables are checked for finite values and
    classified here, once: every entry ``0.0`` or ``-0.0`` makes a zero
    row, one value everywhere a constant row, and the rows that vary are
    gathered in one ``take`` from a (varying rows, profile nodes) table,
    over the axes along which the tables vary, through one nearest-node
    index on those axes.  Every index is clamped to the grid, so ``fill``
    cannot fail and writes finite rows.

    Raises
    ------
    NumericalError
        When a table entry is not finite; the message names the first
        such grid node in C order.
    """
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
    plan, varying = [], []
    for row in table:
        if not row.any():
            plan.append(None)
        elif (row == row[0]).all():
            plan.append(float(row[0]))
        else:
            plan.append(len(varying))
            varying.append(row)
    gathered = np.array(varying).reshape(len(varying), nodes)
    index = _node_indexer(grid, axes)

    def fill(x, block):
        # indices are clamped to the grid, so "clip" never clips
        np.take(gathered, index(x), axis=1, out=block, mode="clip")

    return fill, plan


def _step_terms(plan, block):
    """Each component's operands of an Euler-Maruyama step: its drift,
    the ``b`` of its increment ``dW_b`` when its one diffusion term is a
    constant ``1.0`` row, and otherwise its diffusion entries
    ``(omega^a_b, b)`` for ``b`` in the order 0, 2, 1 of the sum, each a
    row of ``block`` or a number, with zero rows left out (a zero drift
    and a missing unit term are ``None``)."""

    def operand(r):
        return block[r] if isinstance(r, int) else r

    terms = []
    for a in range(STATE_DIM):
        diffusion = [
            (operand(plan[3 + 3 * b + a]), b) for b in (0, 2, 1) if plan[3 + 3 * b + a] is not None
        ]
        unit = None
        if len(diffusion) == 1 and isinstance(diffusion[0][0], float) and diffusion[0][0] == 1.0:
            (_, unit), diffusion = diffusion[0], []
        terms.append((operand(plan[a]), unit, diffusion))
    return terms


def _euler_step(x, x_next, dwk, dt, terms, noise, product):
    """``x_next = (x + mu dt) + ((w0 d0 + w2 d2) + w1 d1)``, component by
    component, with the terms of zero rows left out and a lone unit term
    ``1.0 d_b`` taken as ``d_b`` itself.

    No state is ``-0.0`` and every increment is finite, so a left-out
    term, a product with ``+-0``, would leave the bits of the sum as
    they are; ``1.0 d == d`` exactly, and the sum's last addition is
    commutative, so the unit term leaves them too.
    """
    for a, (mu, unit, diffusion) in enumerate(terms):
        out = x_next[a]
        sigma = None if unit is None else dwk[unit]
        for i, (w, b) in enumerate(diffusion):
            if i == 0:
                sigma = noise if mu is not None else out
                np.multiply(w, dwk[b], out=sigma)
            else:
                np.multiply(w, dwk[b], out=product)
                sigma += product
        if mu is not None:
            np.multiply(mu, dt, out=out)
            np.add(x[a], out, out=out)
            if sigma is not None:
                out += sigma
        elif sigma is not None:
            np.add(x[a], sigma, out=out)
        else:
            out[...] = x[a]


class _StepScratch:
    """One thread's arrays for stepping chunks of up to ``width`` paths:
    one flat block viewed, for a chunk of ``n`` paths, as C-contiguous
    rows with a last axis of ``n``: the step's increments ``(3, n)``, the
    gathered coefficient rows and two rows for the noise sum and a
    product.  Nothing in it grows with the step or the path count."""

    def __init__(self, width, plan):
        self.plan = plan
        self.varying = sum(isinstance(r, int) for r in plan)
        self.flat = np.empty((STATE_DIM + self.varying + 2) * width)
        self._n = None

    def views(self, n):
        """``(dw, block, noise, product, terms)`` for a chunk of ``n``
        paths, ``terms`` being :func:`_step_terms` of ``block``."""
        if n != self._n:
            rows = self.flat[: (STATE_DIM + self.varying + 2) * n].reshape(-1, n)
            block = rows[STATE_DIM : STATE_DIM + self.varying]
            terms = _step_terms(self.plan, block)
            self._views = (rows[:STATE_DIM], block, rows[-2], rows[-1], terms)
            self._n = n
        return self._views


def simulate(coeffs, initial, horizon, steps, paths, seed, increments=None, threads=1, sink=None):
    """Euler-Maruyama ensemble of share paths.

    Paths run in chunks of 4096, one time step at a time over every
    chunk, on two component-major ``(3, paths)`` state rows.  Step
    ``k`` of a chunk of ``n`` paths takes its ``(3, n)`` increments from
    the chunk's stream (or copies them from ``increments``) and writes
    the chunk's columns of state row ``k + 1`` from those of row ``k``.
    Each step applies ``x + mu dt + omega dW`` component by component,
    with each component's products of ``omega dW`` summed in the order
    ``(w0 d0 + w2 d2) + w1 d1`` (the order numpy's ``einsum`` sums them
    for C-ordered blocks).  Only the coefficient rows that vary are
    looked up at each step, in one nearest-node gather from the tables;
    a constant row enters as a number, a component whose one diffusion
    term is a constant ``1.0`` adds its increment itself, and the terms
    of a zero row are left out, which leaves every bit of the sum as it
    is.

    Each step is a round.  The calling thread and ``min(threads,
    chunks) - 1`` helper threads take the round's tasks in order, first
    the one that passes state row ``k`` to ``sink.step(k, row)``, then
    each chunk's step to row ``k + 1`` in path order, and meet at a
    barrier before the next round; the last round hands row ``steps``
    alone.  So the sink is called once per row, in step order, one call
    at a time, from whichever thread took the task, while the other
    threads step the chunks.  Besides its sink a call holds the two
    state rows, 48 bytes a path, and one scratch per thread that steps a
    chunk, at most ``(5 + varying rows) * 4096`` floats: nothing grows
    with the step count.  The contiguous copy of the last row, the
    ensemble's ``final``, is made after the other row is let go.  When a
    task raises, no thread takes a further task of its round and no
    round starts after it; the error raised is the round's first in task
    order, the sink's before any chunk's, so it is that of the first
    failing chunk of the first failing step, and every row before that
    step has been handed over.  Every helper has
    ended when the call returns or raises.

    Parameters
    ----------
    coeffs : SDECoefficients
        The drift and diffusion tables, checked for finite values once,
        before any step runs.
    initial : 3-vector
        Starting share; applied exactly at time zero.
    horizon : float
        Final time.
    steps : int
        Time steps, at least 2.
    paths : int
    seed : int
        Master seed; the increments of path chunk ``c``, ``n`` paths
        wide, are ``sqrt(dt)`` times one ``(steps, 3, n)`` standard
        normal draw from the fixed stream ``(seed, c)``, taken ``(3, n)``
        a step, regardless of thread count.
    increments : ndarray (paths, steps, 3), optional
        Explicit Brownian increments, overriding the seeded streams
        (used for convergence studies against a common noise); checked
        for their shape and for finite values before any step runs.
    threads : int
        Threads that run the steps, the calling thread included, at
        least 1; affects speed only, never the numbers.  The
        ``simulate-sde`` and ``pipeline`` commands pass the count of CPUs
        the process may run on unless ``--threads`` is given, so their
        default changes no output byte.
    sink : object, optional
        Receives the ensemble: ``sink.step(k, row)`` takes state row
        ``k``, the ``(3, paths)`` states at ``times[k]``, as a
        C-contiguous float64 array that is overwritten once the next
        round ends, and after row ``steps`` ``sink.values`` (``(paths,
        steps + 1, 3)``) becomes the ensemble's.  :mod:`fieldio` holds
        both sinks: an :class:`fieldio.EnsembleWriter` writes the
        ensemble file, and the default keeps the rows in memory.

    Returns
    -------
    PathEnsemble
        ``values`` from the sink, and ``final`` a contiguous copy of the
        last state row, which the run forms itself.

    Raises
    ------
    ValidationError
        When a count is out of range, the seed is negative, or
        ``increments`` has another shape or a non-finite value.
    NumericalError
        When a coefficient table holds a non-finite value; the message
        names the node.
    """
    if steps < 2:
        raise ValidationError("step count must be at least 2")
    if paths < 1:
        raise ValidationError("path count must be positive")
    if not horizon > 0:
        raise ValidationError("horizon must be positive")
    if threads < 1:
        raise ValidationError("thread count must be at least 1")
    if seed < 0:
        raise ValidationError(f"seed {seed} is negative; it must be a non-negative integer")
    x0 = np.asarray(initial, float)
    if x0.shape != (STATE_DIM,):
        raise ValidationError("initial share must be a 3-vector")
    if increments is not None:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (paths, steps, STATE_DIM):
            raise ValidationError(
                f"increments must have shape {(paths, steps, STATE_DIM)}, "
                f"not {increments.shape}"
            )
        # a left-out zero term stands for 0 * dW, which is nan at dW = inf
        if not np.isfinite(increments).all():
            raise ValidationError("increments must be finite")
    if sink is None:
        sink = _ArraySink((paths, steps + 1, STATE_DIM))

    dt = float(horizon) / steps
    scale = math.sqrt(dt)
    times = np.linspace(0.0, float(horizon), steps + 1)

    fill, plan = _coefficient_block(coeffs)
    # Step 0 adds to x0 + 0.0: a -0.0 start component becomes +0.0, so no
    # state after step 0 is -0.0, as with einsum's zero-started sums.
    start = x0[:, None] + 0.0
    width = min(paths, _CHUNK_SIZE)
    chunks = -(-paths // _CHUNK_SIZE)
    if increments is None:
        rngs = [
            default_rng(SeedSequence(int(seed), spawn_key=(_SDE_STREAM_TAG, c)))
            for c in range(chunks)
        ]
    states = [np.empty((STATE_DIM, paths)) for _ in range(2)]
    states[0][...] = x0[:, None]

    def step_chunk(own, c, k):
        """Step chunk ``c`` from state row ``k`` to row ``k + 1`` in the
        scratch ``own``."""
        lo = c * _CHUNK_SIZE
        hi = min(lo + _CHUNK_SIZE, paths)
        dw, block, noise, product, terms = own.views(hi - lo)
        if increments is None:
            rngs[c].standard_normal(out=dw)
            dw *= scale
        else:
            dw[...] = increments[lo:hi, k].T
        x = states[k % 2][:, lo:hi]
        if own.varying:
            fill(x, block)
        _euler_step(x if k else start, states[(k + 1) % 2][:, lo:hi], dw, dt, terms, noise, product)

    lock = threading.Lock()
    # ``task`` and ``failures`` (exceptions by task) are guarded by
    # ``lock``; the round ``k`` and ``done`` change only in the barrier's
    # action, while every thread waits, so that no thread reads a failure
    # of the round after the one it has just ended
    k = task = 0
    done = False
    failures = {}

    def next_round():
        nonlocal k, task, done
        k, task = k + 1, 0
        done = bool(failures) or k > steps

    workers = min(int(threads), chunks)
    barrier = threading.Barrier(workers, action=next_round)

    def work():
        """Take the tasks of each round in order, task 0 handing row ``k``
        to the sink and task ``c + 1`` stepping chunk ``c``, then meet the
        other threads at the barrier; return after the last round or a
        failed one."""
        nonlocal task
        own = None
        while True:
            tasks = 1 + chunks if k < steps else 1
            while True:
                with lock:
                    t, task = task, task + 1
                if t >= tasks:
                    break
                try:
                    if t == 0:
                        sink.step(k, states[k % 2])
                    else:
                        if own is None:
                            own = _StepScratch(width, plan)
                        step_chunk(own, t - 1, k)
                except BaseException as exc:
                    with lock:
                        failures[t] = exc
                        task = tasks  # the round's tasks not yet taken are dropped
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                return
            if done:
                return

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    except BaseException:
        # interrupted between tasks: release the helpers at the barrier
        barrier.abort()
        raise
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]

    # the spare row is let go first, so the copy adds nothing to the peak
    last = states[steps % 2]
    states.clear()
    final = last.T.copy()
    return PathEnsemble(times=times, values=sink.values, final=final)
