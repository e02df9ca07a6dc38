"""End-to-end pipeline: geometry, stubbornness, dynamics, action, kernel,
evolution, cooperation search.

Each stage is a public function that takes the scenario and its metric,
from :meth:`ScenarioConfig.build_metric`, plus the outputs of earlier
stages, and returns its numbers without writing files; the per-stage CLI
subcommands call the same functions.  A stage reads the grid, the
connection and the curvature from the metric, which forms the latter two
on first read, so a command forms only what its stages read.
``run_pipeline`` chains the stages, writes every stage's artifacts into
the output directory and closes the run with a manifest of content
hashes.  The manifest is a pure function of (scenario, seed, package
version): the GFF draw and the share paths, the only random stages, seed
from the master seed split by fixed labels (:func:`stage_seed`), the
kernel stage reports closed forms, worker threads only change
scheduling, and no output embeds a timestamp.  A stage failure produces
a partial manifest naming the failed stage.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np
from numpy.random import SeedSequence

from . import __version__, brane, evolution, geometry, market, stubbornness
from .errors import NumericalError, SemicoopError, ValidationError
from .fieldio import EnsembleWriter, open_output, read_ensemble, sha256_of, write_grid
from .grids import GridSpec
from .polygon import effective_region

STAGE_LABELS = {"gff": 101, "sde": 202}
# paths per block of the CSV export, 3 MiB of states at 128 steps
_CSV_PATHS = 1024


def stage_seed(master, stage):
    """Seed of one stage's random stream, split from the master seed by
    the stage's fixed label; a negative master seed is a
    :class:`ValidationError`."""
    if int(master) < 0:
        raise ValidationError(f"seed {int(master)} is negative; it must be a non-negative integer")
    sequence = SeedSequence(int(master), spawn_key=(STAGE_LABELS[stage],))
    return int(sequence.generate_state(1)[0])


def _config_digest(config, seed):
    """SHA-256 of the scenario, seed and package version; a metric file
    enters by the SHA-256 of its contents, its grid included, not by its
    path."""
    scenario = config.to_dict()
    metric = scenario["metric"]
    if "file" in metric:
        path = metric["file"]
        try:
            metric["file"] = sha256_of(path)
        except OSError as exc:
            raise ValidationError(f"cannot read metric file {path}: {exc}") from exc
    payload = json.dumps(
        {"scenario": scenario, "seed": int(seed), "version": __version__}, sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def stubbornness_field(config, metric, seed):
    """Stubbornness stage: ``(gff_grid, field2d, combined)``, one GFF
    draw on the sampler's unit square with the grid's ``sigma1`` node
    count per side and, when ``sigma2`` has as many nodes, the combined
    metric it induces from the metric's curvature (None otherwise); a
    count the sampler rejects names ``grid.sigma1``."""
    grid = metric.grid
    gff_seed = stage_seed(seed, "gff")
    try:
        sampler = stubbornness.GFFSampler(grid.counts[1], seed=gff_seed)
    except ValidationError as exc:
        raise ValidationError(f"grid.sigma1 has {grid.counts[1]} nodes: {exc}") from exc
    field2d = sampler.sample()
    if field2d.shape != (grid.counts[1], grid.counts[2]):
        return sampler.grid, field2d, None
    field3d = np.broadcast_to(field2d, grid.shape)
    gamma = float(config.data["gff"]["gamma"])
    combined = geometry.combined_metric(metric.curvature, field3d, gamma)
    return sampler.grid, field2d, combined


def simulate_paths(config, metric, seed, threads, path, digest):
    """SDE stage: the share ensemble of the scenario's firm,
    streamed into the ensemble file at ``path`` one time step at a time
    as the simulation finishes them.

    Returns ``(ensemble, (sha256, nbytes))`` of that file, the SHA-256
    None unless ``digest`` asks for it, as a caller that records no
    digest needs none; the ensemble's ``values`` is the file read back
    through :func:`fieldio.read_ensemble`, and its summary reads none of
    it.  When the simulation fails no file is left at ``path``.
    """
    sde_cfg = config.data["sde"]
    horizon = float(sde_cfg["horizon"])
    steps = int(sde_cfg["steps"])
    paths = int(sde_cfg["paths"])
    sde_seed = stage_seed(seed, "sde")
    grid = market._time_grid(horizon, steps)
    with EnsembleWriter(path, grid, paths, market.STATE_DIM, digest=digest) as writer:
        ensemble = market.simulate(
            market.derive_coefficients(metric),
            config.firm["share"],
            horizon=horizon,
            steps=steps,
            paths=paths,
            seed=sde_seed,
            threads=threads,
            sink=writer,
        )
    return ensemble, (writer.sha256, writer.nbytes)


def action_terms(config, metric, u_own=None):
    """Per-node action bracket of the world volume, the metric's curvature
    potential included, with the profit at ``u_own`` (the firm's strategy
    if None).

    The brane is in static gauge: its embedding is the world coordinates
    on the first three transverse slots, so the bracket is the closed
    form ``3 + tr(h^{-1}) (p*b)^W + (det h)^(-3/2) (p*b)^{1-W} - Q R xbar``
    of :func:`brane.scalar_action_terms`.
    """
    kernel_cfg = config.data["kernel"]
    exponent = float(kernel_cfg["freedom_exponent"])
    mean_share = float(kernel_cfg["mean_share"])
    measure = stubbornness.stubbornness_measure(config.data["gff"]["gamma"])
    firm = config.firm
    profit = config.profit(firm["strategy"] if u_own is None else u_own)
    weight = profit * firm.get("stubbornness", 1.0)
    return brane.scalar_action_terms(
        metric, metric.curvature.scalar, weight, exponent, measure, mean_share
    )


def action(config, metric, bracket, ghost, fp_det):
    """Action stage: the ``action.json`` payload, with the ghost action
    and the FP log-determinant when asked for (None otherwise); with the
    latter, ``fp_singular_node`` is the node whose block makes the
    operator singular, or None."""
    payload = {"action": brane.evaluate_action(metric, bracket), "ghost": None, "logdet_fp": None}
    if ghost:
        payload["ghost"] = brane.ghost_action(metric, float(config.data["kernel"]["step"]))
    if fp_det:
        fp = brane.fp_determinant(metric)
        payload["logdet_fp"] = None if fp.singular else fp.log_abs_det
        payload["fp_singular"] = fp.singular
        payload["fp_singular_node"] = fp.singular_node
    return payload


def _initial_scale(bracket):
    """``F0``, the mean effective scale on the initial time plane of ``bracket``."""
    # summed as a contiguous plane: a broadcast view sums in another order
    f0 = float(np.ascontiguousarray(evolution.effective_scalar_F(bracket[:1]).values[0]).mean())
    if not np.isfinite(f0):
        raise NumericalError(f"effective scale on the initial time plane is {f0}")
    return f0


def kernel(config, bracket):
    """Kernel stage: the effective scale field, the kernel spec and ``F0``."""
    scale = evolution.effective_scalar_F(bracket)
    f0 = _initial_scale(bracket)
    kernel_cfg = config.data["kernel"]
    spec = evolution.KernelSpec(
        mass=float(kernel_cfg["mass"]),
        step=float(kernel_cfg["step"]),
        effective_scale=abs(f0) if f0 != 0 else 1.0,
        domain_halfwidth=float(kernel_cfg["domain_halfwidth"]),
    )
    return scale, spec, f0


def evolve(config, metric, spec):
    """Evolution stage on the strategy plane, whose metric is the spatial
    block of the world metric at the initial time node.

    Returns ``(slice_metric, psi0, psi)``: the initial Gaussian packet,
    of unit norm in the ``sqrt|det h|``-weighted norm the evolution
    keeps, and the evolved field.
    """
    grid = metric.grid
    slice_grid = GridSpec(extents=grid.extents[1:], counts=grid.counts[1:])
    slice_metric = geometry.MetricField(metric.values[0][..., 1:, 1:], slice_grid)
    evolve_cfg = config.data["evolve"]
    width = evolve_cfg.get("packet_width")
    if width is None:
        width = 0.15 * min(hi - lo for lo, hi in slice_grid.extents)
    psi0 = evolution.gaussian_packet(slice_grid, float(width)).normalized(
        slice_metric.volume_density
    )
    psi = evolution.evolve(psi0, spec, slice_metric, int(evolve_cfg["steps"]))
    return slice_metric, psi0, psi


def cooperation(config, metric):
    """Cooperation stage: the ``rho.json`` payload of
    :func:`evolution.optimal_rho`, the one place that knows each profit
    preset's maximiser of ``|F0(rho)|``.

    - ``rho_quadratic``: its own map ``F0 = peak - curvature (rho -
      vertex)^2``.  ``|F0|`` has one interior maximum, the vertex, when
      ``RHO_MIN < vertex < 1`` and ``peak * curvature > 0``, and none
      otherwise.
    - ``constant`` and ``region_power``: the kernel stage's ``F0`` of the
      bracket on ``metric`` and its curvature at the region ``alpha_own**rho``
      times the firm's area.  The bracket is affine in ``w^W`` and
      ``w^(1-W)`` with positive plane-mean coefficients, and ``w = p*b``
      is monotone in ``rho``, so ``F0`` is too: no interior maximum.

    The payload's ``reason`` says whether the vertex or an end won, or
    that no candidate was preferred (``"flat"``).
    """
    p = config.data["profit"]
    if p["preset"] == "rho_quadratic":
        peak = float(p.get("peak", 1.0))
        curvature = float(p.get("curvature", 1.0))
        vertex = float(p.get("vertex", 0.6))

        def rho_to_scale(rho):
            return peak - curvature * (rho - vertex) ** 2

        inside = evolution.RHO_MIN < vertex < 1.0
        # the signs, not the product, which underflows for tiny values
        stationary = (vertex,) if inside and np.sign(peak) == np.sign(curvature) != 0 else ()
    else:
        firm = config.firm
        area = 1.0 if firm.get("area") is None else firm["area"]

        def rho_to_scale(rho):
            region = effective_region(area, firm["alpha_own"], rho)
            return _initial_scale(action_terms(config, metric, region))

        stationary = ()
    return dataclasses.asdict(evolution.optimal_rho(rho_to_scale, stationary))


def json_text(payload, name):
    """``payload`` as indented, key-sorted JSON.  JSON has no NaN or
    infinity, so a payload holding one is a :class:`NumericalError`
    naming the output ``name``."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{name} would hold a non-finite number, which JSON lacks") from exc


def _write_json(path, payload):
    """Write ``payload`` as :func:`json_text`; returns ``(sha256,
    nbytes)`` of the file."""
    data = (json_text(payload, os.path.basename(path)) + "\n").encode()
    with open_output(path) as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest(), len(data)


def run_pipeline(config, out_dir, seed=0, threads=1, csv=False):
    """Run all stages; returns the manifest dictionary.

    Parameters
    ----------
    config : ScenarioConfig
    out_dir : str
        Created if missing; artifacts land here.
    seed : int
        Master seed; all stage randomness derives from it.
    threads : int
        Threads that simulate and write path chunks, the calling thread
        included; results are identical for any value.  The ``pipeline``
        command passes the count of CPUs the process may run on unless
        ``--threads`` is given, so its default changes no output byte.
    csv : bool
        Also export the path ensemble as CSV.
    """
    stage_seed(seed, "gff")  # rejects a negative seed before any file is written
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {out_dir}: {exc}") from exc
    results = {}
    manifest = {
        "version": __version__,
        "config_digest": None,
        "seed": int(seed),
        "artifacts": {},
        "results": results,
    }

    def artifact(name, write, *args):
        digest, _ = write(os.path.join(out_dir, name), *args)
        manifest["artifacts"][name] = digest

    stage = "geometry"
    try:
        # reads the metric file, if any, so a failure is the geometry stage's
        manifest["config_digest"] = _config_digest(config, seed)
        metric = config.build_metric()
        grid = metric.grid
        scalar = metric.curvature.scalar  # first: a failing connection writes nothing
        artifact("metric.bin", write_grid, metric.values, grid)
        artifact("christoffel.bin", write_grid, metric.connection, grid)
        artifact("ricci_scalar.bin", write_grid, scalar, grid)

        stage = "stubbornness"
        gamma = float(config.data["gff"]["gamma"])
        gff_grid, field2d, combined = stubbornness_field(config, metric, seed)
        artifact("gff.bin", write_grid, field2d, gff_grid)
        results["stubbornness_measure"] = stubbornness.stubbornness_measure(gamma)
        results["stubbornness_regime"] = stubbornness.regime_note(gamma)
        if combined is not None:
            artifact("combined_metric.bin", write_grid, combined.values, grid)

        stage = "sde"
        ensemble_path = os.path.join(out_dir, "paths.bin")
        ensemble, (digest, _) = simulate_paths(
            config, metric, seed, threads, ensemble_path, digest=True
        )
        manifest["artifacts"]["paths.bin"] = digest
        artifact("sde_summary.json", _write_json, ensemble.summary())
        if csv:
            artifact("paths.csv", export_ensemble_csv, ensemble_path)

        stage = "action"
        bracket = action_terms(config, metric)
        action_cfg = config.data["action"]
        payload = action(config, metric, bracket, action_cfg["ghost"], action_cfg["fp_det"])
        artifact("action.json", _write_json, payload)

        stage = "kernel"
        scale, spec, f0 = kernel(config, bracket)
        artifact("effective_scale.bin", write_grid, scale.values, grid)
        results["kernel_normalization_deviation"] = evolution.kernel_normalization_check(spec)
        results["kernel_variance"] = spec.variance
        results["effective_scale_initial"] = f0
        results["scale_not_strictly_increasing"] = bool(scale.not_strictly_increasing)

        stage = "evolve"
        slice_metric, psi0, psi = evolve(config, metric, spec)
        artifact("psi.bin", write_grid, psi.values, slice_metric.grid)
        weight = slice_metric.volume_density
        results["norm_drift"] = abs(psi.norm(weight) - psi0.norm(weight))

        stage = "cooperation"
        payload = cooperation(config, metric)
        artifact("rho.json", _write_json, payload)
        results["rho_star"] = payload["rho_star"]
        results["rho_boundary_flag"] = payload["boundary_flag"]

    except SemicoopError as exc:
        manifest["failed_stage"] = stage
        manifest["failure"] = str(exc)
        _write_json(os.path.join(out_dir, "manifest.json"), manifest)
        raise

    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def export_ensemble_csv(path, ensemble_path):
    """Long-format CSV, one row per (path, step), of the ensemble file at
    ``ensemble_path``, read through :func:`fieldio.read_ensemble`
    ``_CSV_PATHS`` paths at a time, each block gathered in one copy.
    Every number is formatted once, a path's states in one ``%`` call.
    Returns ``(sha256, nbytes)`` of the file."""
    times, values = read_ensemble(ensemble_path)
    steps = [f"{k},{t:.17g},%.17g,%.17g,%.17g\n" for k, t in enumerate(times.tolist())]

    def blocks():
        yield "path,step,time,x0,x1,x2\n"
        for lo in range(0, len(values), _CSV_PATHS):
            block = np.ascontiguousarray(values[lo : lo + _CSV_PATHS])
            for p, states in enumerate(block.reshape(len(block), -1).tolist(), lo):
                head = f"{p},"
                yield (head + head.join(steps)) % tuple(states)

    digest = hashlib.sha256()
    with open_output(path) as fh:
        for text in blocks():
            data = text.encode()
            fh.write(data)
            digest.update(data)
        nbytes = fh.tell()
    return digest.hexdigest(), nbytes
