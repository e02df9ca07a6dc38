"""End-to-end pipeline: geometry, stubbornness, dynamics, action, evolution,
cooperation search.

Every stage writes its artifacts into the output directory and the run
closes with a manifest of content hashes.  The manifest is a pure
function of (scenario, seed, package version): randomness flows from the
master seed split per stage by fixed labels, worker threads only change
scheduling, and no output embeds a timestamp.  A stage failure produces
a partial manifest naming the failed stage.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from . import __version__, brane, evolution, geometry, market, stubbornness
from .errors import SemicoopError
from .fieldio import sha256_of, write_ensemble, write_grid
from .grids import GridSpec

STAGE_LABELS = {"gff": 101, "sde": 202, "kernel": 303}


def _stage_seed(master, stage):
    return np.random.SeedSequence(int(master), spawn_key=(STAGE_LABELS[stage],))


def _config_digest(config, seed):
    payload = json.dumps(
        {"scenario": config.to_dict(), "seed": int(seed), "version": __version__},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _strategy_slice_metric(metric, grid):
    """Two-axis metric on the strategy plane: the spatial block of the
    world metric at the initial time node."""
    slice_grid = GridSpec(extents=grid.extents[1:], counts=grid.counts[1:])
    values = metric.values[0][..., 1:, 1:]
    return geometry.MetricField(values, slice_grid, metric.signature)


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
    manifest = {
        "version": __version__,
        "config_digest": _config_digest(config, seed),
        "seed": int(seed),
        "artifacts": {},
        "results": {},
    }

    def artifact(name, path):
        manifest["artifacts"][name] = sha256_of(path)

    def write_json(name, payload):
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        artifact(name, path)
        return path

    stage = "geometry"
    try:
        grid = config.build_grid()
        metric = config.build_metric(grid)
        chris = geometry.christoffel(metric)
        curv = geometry.curvature(metric, chris)
        path = os.path.join(out_dir, "metric.bin")
        write_grid(path, metric.values, grid)
        artifact("metric.bin", path)
        path = os.path.join(out_dir, "christoffel.bin")
        write_grid(path, chris.values, grid)
        artifact("christoffel.bin", path)
        path = os.path.join(out_dir, "ricci_scalar.bin")
        write_grid(path, curv.scalar, grid)
        artifact("ricci_scalar.bin", path)

        stage = "stubbornness"
        gff_cfg = config.data["gff"]
        gamma = float(gff_cfg["gamma"])
        size = gff_cfg.get("grid_size") or grid.counts[1]
        sampler = stubbornness.GFFSampler(
            size, seed=_stage_seed(seed, "gff").generate_state(1)[0]
        )
        field2d = sampler.sample()
        path = os.path.join(out_dir, "gff.bin")
        write_grid(path, field2d, extra={"gamma": gamma})
        artifact("gff.bin", path)
        q_value = stubbornness.stubbornness_measure(gamma)
        manifest["results"]["stubbornness_measure"] = q_value
        manifest["results"]["stubbornness_regime"] = stubbornness.regime_note(gamma)
        combined = None
        if field2d.shape == (grid.counts[1], grid.counts[2]):
            field3d = np.broadcast_to(field2d, grid.shape).copy()
            eta = geometry.flat_metric(grid)
            combined = geometry.combined_metric(curv, eta, field3d, gamma)
            path = os.path.join(out_dir, "combined_metric.bin")
            write_grid(path, combined.values, grid)
            artifact("combined_metric.bin", path)

        stage = "sde"
        firms = config.build_firms()
        firm = firms[0]
        coeffs = market.derive_coefficients(metric, chris)
        sde_cfg = config.data["sde"]
        ensemble = market.simulate(
            coeffs,
            firm,
            horizon=float(sde_cfg["horizon"]),
            steps=int(sde_cfg["steps"]),
            paths=int(sde_cfg["paths"]),
            seed=int(_stage_seed(seed, "sde").generate_state(1)[0]),
            threads=threads,
        )
        path = os.path.join(out_dir, "paths.bin")
        write_ensemble(path, ensemble.times, ensemble.values, seed=ensemble.seed)
        artifact("paths.bin", path)
        write_json("sde_summary.json", ensemble.summary())
        if csv:
            path = os.path.join(out_dir, "paths.csv")
            export_ensemble_csv(path, ensemble)
            artifact("paths.csv", path)

        stage = "action"
        kernel_cfg = config.data["kernel"]
        omega_exp = float(kernel_cfg["freedom_exponent"])
        background = np.eye(brane.BACKGROUND_DIM)
        background_field = None
        if config.data["background"]["preset"] == "combined" and combined is not None:
            background_field = np.zeros(grid.shape + (brane.BACKGROUND_DIM,) * 2)
            background_field[...] = np.eye(brane.BACKGROUND_DIM)
            background_field[..., :3, :3] = combined.values
        mesh = grid.meshgrid()
        emb = np.zeros(grid.shape + (brane.TRANSVERSE_DIM,))
        for k in range(3):
            emb[..., k] = mesh[k]
        cfg_brane = brane.BraneConfiguration(
            embedding=emb,
            world_metric=metric,
            background=background_field if background_field is not None else background,
            freedom_exponent=omega_exp,
            mean_share=float(kernel_cfg["mean_share"]),
            stubbornness_measure=q_value,
            ricci_scalar=curv.scalar,
            multiplier=float(kernel_cfg["multiplier"]),
        )
        profit, rho_to_scale = config.build_profit()

        def node_profit(s, share, u_own, u_other):
            return profit(s, share, u_own, u_other)

        # simulated paths satisfy the discrete dynamics identically, so
        # the multiplier term carries a zero residual
        residual = np.zeros(grid.shape)
        terms = brane.scalar_action_terms(cfg_brane, firm, node_profit)
        action_value = brane.evaluate_action(
            cfg_brane, firm, node_profit, residual, terms=terms
        )
        action_payload = {"action": action_value, "ghost": None, "logdet_fp": None}
        if config.data["action"].get("ghost"):
            e = np.zeros(grid.shape + (3, 3))
            e[...] = np.eye(3)
            c = np.stack(mesh, axis=-1)
            cfg_ghost = brane.BraneConfiguration(
                embedding=emb,
                world_metric=metric,
                background=background,
                ghost_e=e,
                ghost_c=c,
                freedom_exponent=omega_exp,
            )
            action_payload["ghost"] = brane.ghost_action(
                cfg_ghost, chris, float(kernel_cfg["step"])
            )
        if config.data["action"].get("fp_det"):
            fp = brane.fp_determinant(cfg_brane, chris)
            action_payload["logdet_fp"] = None if fp.singular else fp.log_abs_det
            action_payload["fp_singular"] = fp.singular
        write_json("action.json", action_payload)

        stage = "kernel"
        potential = evolution.potential_V(
            np.zeros(grid.shape),
            metric,
            chris,
            q_value,
            curv.scalar,
            float(kernel_cfg["mean_share"]),
        )
        scale = evolution.effective_scalar_F(terms - potential)
        f0 = float(scale.values[0].mean())
        path = os.path.join(out_dir, "effective_scale.bin")
        write_grid(path, scale.values, grid)
        artifact("effective_scale.bin", path)
        spec = evolution.KernelSpec(
            mass=float(kernel_cfg["mass"]),
            step=float(kernel_cfg["step"]),
            effective_scale=abs(f0) if f0 != 0 else 1.0,
            domain_halfwidth=float(kernel_cfg["domain_halfwidth"]),
        )
        deviation = evolution.kernel_normalization_check(
            spec, int(kernel_cfg["normalization_samples"])
        )
        correlation = evolution.two_point_correlation(
            spec,
            int(kernel_cfg["correlation_samples"]),
            seed=int(_stage_seed(seed, "kernel").generate_state(1)[0]),
        )
        manifest["results"]["kernel_normalization_deviation"] = deviation
        manifest["results"]["kernel_correlation"] = [
            [float(v) for v in row] for row in correlation
        ]
        manifest["results"]["effective_scale_initial"] = f0
        manifest["results"]["scale_not_strictly_increasing"] = bool(
            scale.not_strictly_increasing
        )

        stage = "evolve"
        slice_metric = _strategy_slice_metric(metric, grid)
        slice_chris = geometry.christoffel(slice_metric)
        evolve_cfg = config.data["evolve"]
        width = evolve_cfg.get("packet_width")
        if width is None:
            width = 0.15 * min(
                grid.extents[1][1] - grid.extents[1][0],
                grid.extents[2][1] - grid.extents[2][0],
            )
        psi = evolution.gaussian_packet(slice_metric.grid, float(width))
        norm_before = psi.norm()
        psi_out = evolution.evolve(
            psi, spec, slice_metric, slice_chris, int(evolve_cfg["steps"])
        )
        path = os.path.join(out_dir, "psi.bin")
        write_grid(path, psi_out.values, slice_metric.grid)
        artifact("psi.bin", path)
        manifest["results"]["norm_drift"] = abs(psi_out.norm() - norm_before)

        stage = "cooperation"
        if rho_to_scale is not None:
            def spec_builder(rho):
                return evolution.KernelSpec(
                    mass=spec.mass,
                    step=spec.step,
                    effective_scale=rho_to_scale(rho),
                    domain_halfwidth=spec.domain_halfwidth,
                )
        else:
            area = firm.polygon_area if firm.polygon_area is not None else 1.0

            def spec_builder(rho):
                u_own = firm.alpha_own**rho * area
                pw = profit(np.zeros(1), firm.share, u_own, 0.0)[0] * firm.stubbornness
                kinetic = 3.0 + 3.0 * pw**omega_exp
                return evolution.KernelSpec(
                    mass=spec.mass,
                    step=spec.step,
                    effective_scale=kinetic / brane.BACKGROUND_DIM,
                    domain_halfwidth=spec.domain_halfwidth,
                )

        search = evolution.optimal_rho(
            spec_builder,
            psi_out,
            slice_metric,
            slice_chris,
            grid=int(config.data["rho_grid"]),
        )
        rho_payload = {
            "rho_star": search.rho_star,
            "stationary_points": list(search.stationary_points),
            "boundary_flag": search.boundary_flag,
            "degenerate_flag": search.degenerate_flag,
        }
        write_json("rho.json", rho_payload)
        manifest["results"]["rho_star"] = search.rho_star
        manifest["results"]["rho_boundary_flag"] = search.boundary_flag

    except SemicoopError as exc:
        manifest["failed_stage"] = stage
        manifest["failure"] = str(exc)
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        raise

    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def export_ensemble_csv(path, ensemble):
    """Long-format CSV: one row per (path, step)."""
    with open(path, "w") as fh:
        fh.write("path,step,time,x0,x1,x2\n")
        times = ensemble.times
        for p in range(ensemble.n_paths):
            for k, s in enumerate(times):
                x = ensemble.values[p, k]
                fh.write(f"{p},{k},{s:.17g},{x[0]:.17g},{x[1]:.17g},{x[2]:.17g}\n")
