"""End-to-end pipeline: geometry, stubbornness, dynamics, action, kernel,
evolution, cooperation search.

Each stage is a public function that takes the scenario plus the outputs
of earlier stages and returns its numbers without writing files; the
per-stage CLI subcommands call the same functions.  ``run_pipeline``
chains them, writes every stage's artifacts into the output directory
and closes the run with a manifest of content hashes.  The manifest is a
pure function of (scenario, seed, package version): randomness flows
from the master seed split per stage by fixed labels (:func:`stage_seed`),
worker threads only change scheduling, and no output embeds a
timestamp.  A stage failure produces a partial manifest naming the
failed stage.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np

from . import __version__, brane, evolution, geometry, market, stubbornness
from .errors import NumericalError, SemicoopError
from .fieldio import EnsembleWriter, write_grid
from .grids import GridSpec, require_same_grid

STAGE_LABELS = {"gff": 101, "sde": 202, "kernel": 303}


def stage_seed(master, stage):
    """Seed of one stage's random stream, split from the master seed by
    the stage's fixed label."""
    sequence = np.random.SeedSequence(int(master), spawn_key=(STAGE_LABELS[stage],))
    return int(sequence.generate_state(1)[0])


def _config_digest(config, seed):
    payload = json.dumps(
        {"scenario": config.to_dict(), "seed": int(seed), "version": __version__},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def world(config):
    """Geometry stage: ``(grid, metric, christoffel, curvature)``.

    A metric read from a file must live on the scenario's grid, which
    every later stage takes from the metric.
    """
    grid = config.build_grid()
    metric = config.build_metric(grid)
    require_same_grid(grid, metric)
    chris = geometry.christoffel(metric)
    curv = geometry.curvature(metric, chris)
    return grid, metric, chris, curv


def stubbornness_field(config, grid, curv, seed):
    """Stubbornness stage: one GFF draw on the strategy plane and, when
    it matches the grid's strategy axes, the combined metric it induces
    (None otherwise)."""
    gff_cfg = config.data["gff"]
    size = gff_cfg.get("grid_size") or grid.counts[1]
    field2d = stubbornness.GFFSampler(size, seed=stage_seed(seed, "gff")).sample()
    if field2d.shape != (grid.counts[1], grid.counts[2]):
        return field2d, None
    field3d = np.broadcast_to(field2d, grid.shape).copy()
    combined = geometry.combined_metric(
        curv, geometry.flat_metric(grid), field3d, float(gff_cfg["gamma"])
    )
    return field2d, combined


def simulate_paths(config, metric, chris, seed, threads, path):
    """SDE stage: the share ensemble of the scenario's first firm,
    simulated straight into the ensemble file at ``path``.

    Returns ``(ensemble, (sha256, nbytes))`` of that file; when the
    simulation fails no file is left at ``path``.
    """
    sde_cfg = config.data["sde"]
    horizon = float(sde_cfg["horizon"])
    steps = int(sde_cfg["steps"])
    paths = int(sde_cfg["paths"])
    sde_seed = stage_seed(seed, "sde")
    # simulate's time grid, which the file header holds ahead of the first row
    times = np.linspace(0.0, horizon, steps + 1)
    with EnsembleWriter(path, times, paths, market.STATE_DIM, seed=sde_seed) as writer:
        ensemble = market.simulate(
            market.derive_coefficients(metric, chris),
            config.build_firms()[0],
            horizon=horizon,
            steps=steps,
            paths=paths,
            seed=sde_seed,
            threads=threads,
            out=writer.values,
            on_rows=writer.rows,
        )
    return ensemble, (writer.sha256, writer.nbytes)


def action_terms(config, metric, curv):
    """Brane configuration of the world volume and its per-node action
    bracket ``(cfg_brane, terms)``; the embedding is the identity on the
    first three transverse slots."""
    grid = metric.grid
    kernel_cfg = config.data["kernel"]
    emb = np.zeros(grid.shape + (brane.TRANSVERSE_DIM,))
    emb[..., :3] = np.stack(grid.meshgrid(), axis=-1)
    cfg_brane = brane.BraneConfiguration(
        embedding=emb,
        world_metric=metric,
        background=np.eye(brane.BACKGROUND_DIM),
        freedom_exponent=float(kernel_cfg["freedom_exponent"]),
        mean_share=float(kernel_cfg["mean_share"]),
        stubbornness_measure=stubbornness.stubbornness_measure(config.data["gff"]["gamma"]),
        ricci_scalar=curv.scalar,
        multiplier=float(kernel_cfg["multiplier"]),
    )
    profit, _ = config.build_profit()
    return cfg_brane, brane.scalar_action_terms(cfg_brane, config.build_firms()[0], profit)


def action(config, chris, cfg_brane, terms, ghost, fp_det):
    """Action stage: the ``action.json`` payload, with the ghost action
    and the FP log-determinant when asked for (None otherwise)."""
    grid = cfg_brane.grid
    profit, _ = config.build_profit()
    # simulated paths satisfy the discrete dynamics identically, so the
    # multiplier term carries a zero residual
    payload = {
        "action": brane.evaluate_action(
            cfg_brane, config.build_firms()[0], profit, np.zeros(grid.shape), terms=terms
        ),
        "ghost": None,
        "logdet_fp": None,
    }
    if ghost:
        cfg_ghost = dataclasses.replace(
            cfg_brane,
            ghost_e=np.broadcast_to(np.eye(3), grid.shape + (3, 3)),
            ghost_c=cfg_brane.embedding[..., :3],
        )
        payload["ghost"] = brane.ghost_action(
            cfg_ghost, chris, float(config.data["kernel"]["step"])
        )
    if fp_det:
        fp = brane.fp_determinant(cfg_brane, chris)
        payload["logdet_fp"] = None if fp.singular else fp.log_abs_det
        payload["fp_singular"] = fp.singular
    return payload


def kernel(config, cfg_brane, terms):
    """Kernel stage: the effective scale field and the kernel spec, whose
    ``F0`` is ``|mean|`` of the scale on the initial time plane (one when
    zero); a non-finite mean is a :class:`NumericalError`."""
    scale = evolution.effective_scalar_F(terms - cfg_brane.potential())
    f0 = float(scale.values[0].mean())
    if not np.isfinite(f0):
        raise NumericalError(f"effective scale on the initial time plane is {f0}")
    kernel_cfg = config.data["kernel"]
    spec = evolution.KernelSpec(
        mass=float(kernel_cfg["mass"]),
        step=float(kernel_cfg["step"]),
        effective_scale=abs(f0) if f0 != 0 else 1.0,
        domain_halfwidth=float(kernel_cfg["domain_halfwidth"]),
    )
    return scale, spec


def kernel_checks(config, spec, seed):
    """Kernel mass deviation from one and the seeded two-point
    correlation estimate."""
    kernel_cfg = config.data["kernel"]
    deviation = evolution.kernel_normalization_check(
        spec, int(kernel_cfg["normalization_samples"])
    )
    correlation = evolution.two_point_correlation(
        spec, int(kernel_cfg["correlation_samples"]), seed=stage_seed(seed, "kernel")
    )
    return deviation, correlation


def evolve(config, metric, spec):
    """Evolution stage on the strategy plane, whose metric is the spatial
    block of the world metric at the initial time node.

    Returns ``(slice_metric, psi0, psi)``: the initial Gaussian packet,
    of unit norm in the ``sqrt|det h|``-weighted norm the evolution
    keeps, and the evolved field.
    """
    grid = metric.grid
    slice_grid = GridSpec(extents=grid.extents[1:], counts=grid.counts[1:])
    slice_metric = geometry.MetricField(
        metric.values[0][..., 1:, 1:], slice_grid, metric.signature
    )
    evolve_cfg = config.data["evolve"]
    width = evolve_cfg.get("packet_width")
    if width is None:
        width = 0.15 * min(hi - lo for lo, hi in slice_grid.extents)
    psi0 = evolution.gaussian_packet(slice_grid, float(width)).normalized(
        slice_metric.volume_density
    )
    psi = evolution.evolve(psi0, spec, slice_metric, int(evolve_cfg["steps"]))
    return slice_metric, psi0, psi


def cooperation(config):
    """Cooperation stage: the ``rho.json`` payload of the ρ search.

    The effective scale at cooperation degree ``rho`` comes from the
    profit preset's own map when it has one, and otherwise from the
    bracket ``3 + 3 (p*b)^W`` of the firm at ``u_own = alpha_own**rho``
    times its area, over the background dimension.  ρ* depends on that
    map alone, not on the metric, the evolved field or the mass.
    """
    profit, rho_to_scale = config.build_profit()
    if rho_to_scale is None:
        firm = config.build_firms()[0]
        area = firm.polygon_area if firm.polygon_area is not None else 1.0
        omega_exp = float(config.data["kernel"]["freedom_exponent"])

        def rho_to_scale(rho):
            u_own = firm.alpha_own**rho * area
            pw = profit(np.zeros(1), firm.share, u_own, 0.0)[0] * firm.stubbornness
            return (3.0 + 3.0 * pw**omega_exp) / brane.BACKGROUND_DIM

    search = evolution.optimal_rho(rho_to_scale, grid=int(config.data["rho_grid"]))
    return dataclasses.asdict(search)


def _write_json(path, payload):
    """Write ``payload`` as indented, key-sorted JSON; returns ``(sha256,
    nbytes)`` of the file."""
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    with open(path, "wb") as fh:
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
        Worker threads for path simulation; results are identical for
        any value.
    csv : bool
        Also export the path ensemble as CSV.
    """
    os.makedirs(out_dir, exist_ok=True)
    results = {}
    manifest = {
        "version": __version__,
        "config_digest": _config_digest(config, seed),
        "seed": int(seed),
        "artifacts": {},
        "results": results,
    }

    def artifact(name, write, *args, **kwargs):
        digest, _ = write(os.path.join(out_dir, name), *args, **kwargs)
        manifest["artifacts"][name] = digest

    stage = "geometry"
    try:
        grid, metric, chris, curv = world(config)
        artifact("metric.bin", write_grid, metric.values, grid)
        artifact("christoffel.bin", write_grid, chris.values, grid)
        artifact("ricci_scalar.bin", write_grid, curv.scalar, grid)

        stage = "stubbornness"
        gamma = float(config.data["gff"]["gamma"])
        field2d, combined = stubbornness_field(config, grid, curv, seed)
        artifact("gff.bin", write_grid, field2d, extra={"gamma": gamma})
        results["stubbornness_measure"] = stubbornness.stubbornness_measure(gamma)
        results["stubbornness_regime"] = stubbornness.regime_note(gamma)
        if combined is not None:
            artifact("combined_metric.bin", write_grid, combined.values, grid)

        stage = "sde"
        ensemble, (digest, _) = simulate_paths(
            config, metric, chris, seed, threads, os.path.join(out_dir, "paths.bin")
        )
        manifest["artifacts"]["paths.bin"] = digest
        artifact("sde_summary.json", _write_json, ensemble.summary())
        if csv:
            artifact("paths.csv", export_ensemble_csv, ensemble)

        stage = "action"
        cfg_brane, terms = action_terms(config, metric, curv)
        action_cfg = config.data["action"]
        payload = action(
            config, chris, cfg_brane, terms, action_cfg["ghost"], action_cfg["fp_det"]
        )
        artifact("action.json", _write_json, payload)

        stage = "kernel"
        scale, spec = kernel(config, cfg_brane, terms)
        artifact("effective_scale.bin", write_grid, scale.values, grid)
        deviation, correlation = kernel_checks(config, spec, seed)
        results["kernel_normalization_deviation"] = deviation
        results["kernel_correlation"] = [[float(v) for v in row] for row in correlation]
        results["effective_scale_initial"] = float(scale.values[0].mean())
        results["scale_not_strictly_increasing"] = bool(scale.not_strictly_increasing)

        stage = "evolve"
        slice_metric, psi0, psi = evolve(config, metric, spec)
        artifact("psi.bin", write_grid, psi.values, slice_metric.grid)
        weight = slice_metric.volume_density
        results["norm_drift"] = abs(psi.norm(weight) - psi0.norm(weight))

        stage = "cooperation"
        payload = cooperation(config)
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


def export_ensemble_csv(path, ensemble):
    """Long-format CSV: one row per (path, step).  Returns ``(sha256,
    nbytes)`` of the file."""

    def blocks():
        yield "path,step,time,x0,x1,x2\n"
        for p, rows in enumerate(ensemble.values):
            yield "".join(
                f"{p},{k},{s:.17g},{x[0]:.17g},{x[1]:.17g},{x[2]:.17g}\n"
                for k, (s, x) in enumerate(zip(ensemble.times, rows))
            )

    digest = hashlib.sha256()
    nbytes = 0
    with open(path, "wb") as fh:
        for text in blocks():
            data = text.encode()
            fh.write(data)
            digest.update(data)
            nbytes += len(data)
    return digest.hexdigest(), nbytes
