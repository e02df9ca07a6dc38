"""Command-line front end.

Subcommands map one-to-one onto the library layers; every command reads
JSON scenarios, writes binary grids or ensembles plus JSON summaries,
and prints a JSON result to stdout.  The stage subcommands
(``simulate-sde``, ``action``, ``kernel-check``, ``evolve``,
``optimal-rho``) call the pipeline's stage functions on the scenario's
metric, which forms its connection and curvature only if a stage reads
them, so for the same scenario and ``--seed`` they give the numbers
``pipeline`` records; ``gff-sample`` draws from the same per-stage seed
as the pipeline's ``gff.bin``.  A subcommand accepts only the flags its
handler reads, except ``kernel-check --seed``: the kernel's mass leak
and variance are closed forms, and the flag stays so that benchmark
commands still parse.
``simulate-sde`` and ``pipeline`` step the share SDE on every CPU the
process may run on unless ``--threads`` says otherwise; the thread count
changes the speed only, never an output byte.  Exit codes: 0 on
success, 2 on validation failures, 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__, evolution, geometry, pipeline, stubbornness
from .errors import NumericalError, ValidationError
from .fieldio import read_grid, write_grid
from .geometry import _unbroadcast
from .grids import require_same_grid
from .scenario import parse_scenario
from .polygon import assemble_polygon

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _add_threads(p):
    """``--threads`` of the subcommands that simulate the share SDE; it
    defaults to the CPUs this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    p.add_argument(
        "--threads", type=int, default=cpus,
        help="threads that step the path chunks and write the ensemble, the main "
        "thread included (default: the CPUs this process may run on, %(default)s "
        "here); no output depends on it",
    )


@functools.cache
def build_parser():
    """The ``semicoop`` argument parser, built once per process: a process
    that calls :func:`main` several times, such as a benchmark sample,
    pays for it once.  Callers parse with it and must not change it."""
    parser = argparse.ArgumentParser(
        prog="semicoop",
        description="curved-strategy differential game toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geometry", help="metric-derived fields")
    p.add_argument("--metric", required=True, help="metric grid file")
    p.add_argument("--op", required=True, choices=("christoffel", "curvature", "laplacian"))
    p.add_argument("--out", required=True)
    p.add_argument("--field", help="scalar field file (laplacian only)")

    p = sub.add_parser("polygon-area", help="strategy polygon area")
    p.add_argument("--scenario", required=True)
    p.add_argument("--time", type=float, default=0.0)

    p = sub.add_parser("lie-bracket", help="field commutator at a point")
    p.add_argument("--scenario", required=True)
    p.add_argument("--point", required=True, help="comma-separated 3 coordinates")

    p = sub.add_parser("gff-sample", help="stubbornness field draw")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0, help="master seed")

    p = sub.add_parser("simulate-sde", help="share-dynamics ensemble")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    _add_threads(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("cascade", help="resale cascade values")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--theta", type=int, required=True)
    p.add_argument("--m", type=int, default=1)

    p = sub.add_parser("action", help="world-volume action")
    p.add_argument("--config", required=True)
    p.add_argument("--ghost", action="store_true", help="also set by action.ghost")
    p.add_argument("--fp-det", action="store_true", help="also set by action.fp_det")

    p = sub.add_parser("kernel-check", help="kernel diagnostics")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0, help="unused: the checks are closed forms")

    p = sub.add_parser("evolve", help="strategy-field evolution")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("optimal-rho", help="cooperation-degree search")
    p.add_argument("--config", required=True)

    p = sub.add_parser("pipeline", help="full run with manifest")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    _add_threads(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out-dir", default=".", help="artifact directory")

    return parser


def _emit(payload):
    print(pipeline.json_text(payload, "the printed result"))


def _cmd_geometry(args):
    metric = geometry.MetricField(*read_grid(args.metric))
    grid = metric.grid
    if args.op == "christoffel":
        write_grid(args.out, metric.connection, grid)
        # the profile's range is the field's, read without a pass over the grid
        profile = _unbroadcast(metric.connection, grid.n_axes)
        _emit({"out": args.out, "max_abs": float(np.abs(profile).max())})
        return
    if args.op == "curvature":
        bundle = metric.curvature
        write_grid(args.out, bundle.scalar, grid)
        scalar = _unbroadcast(bundle.scalar, grid.n_axes)
        _emit({"out": args.out, "scalar_range": [float(scalar.min()), float(scalar.max())]})
        return
    if not args.field:
        raise ValidationError("laplacian needs --field")
    field, fgrid = read_grid(args.field)
    require_same_grid(grid, fgrid)
    lap = geometry.covariant_laplacian(metric, field)
    write_grid(args.out, lap, grid)
    _emit({"out": args.out})


def _cmd_polygon(args):
    config = parse_scenario(args.scenario)
    areas, assembly = config.build_polygon(time=args.time)
    _emit({"area": assemble_polygon(assembly), "per_side": areas})


def _cmd_bracket(args):
    from .vectorfields import lie_bracket

    config = parse_scenario(args.scenario)
    field_v, field_u = config.build_fields()
    try:
        point = [float(v) for v in args.point.split(",")]
    except ValueError:
        point = []
    if len(point) != 3:
        raise ValidationError("--point needs 3 comma-separated coordinates")
    bracket = lie_bracket(field_v, field_u, point)
    _emit({"bracket": [float(v) for v in bracket], "norm": float(np.linalg.norm(bracket))})


def _cmd_gff(args):
    sampler = stubbornness.GFFSampler(args.size, pipeline.stage_seed(args.seed, "gff"))
    q = stubbornness.stubbornness_measure(args.gamma)
    write_grid(args.out, sampler.sample(), sampler.grid)
    _emit(
        {
            "out": args.out,
            "stubbornness_measure": q,
            "regime": stubbornness.regime_note(args.gamma),
        }
    )


def _cmd_sde(args):
    config = parse_scenario(args.scenario)
    ensemble, _ = pipeline.simulate_paths(
        config, config.build_metric(), args.seed, args.threads, args.out
    )
    if args.format == "csv":
        pipeline.export_ensemble_csv(args.out + ".csv", ensemble)
    _emit({"out": args.out, "summary": ensemble.summary()})


def _cmd_cascade(args):
    from .profitops import CascadeParams, cascade_derivative, cascade_limit, cascade_sum

    params = CascadeParams(consumers=args.m, sales=args.theta, kappa=args.kappa)
    derivative = cascade_derivative(args.kappa)
    _emit(
        {
            "sum": cascade_sum(params),
            "limit": cascade_limit(args.kappa),
            "derivative": derivative.value,
            "divergence_flag": derivative.divergent,
            "expansion_regime": derivative.expansion_regime,
        }
    )


def _cmd_action(args):
    config = parse_scenario(args.config)
    metric = config.build_metric()
    bracket = pipeline.action_terms(config, metric)
    action_cfg = config.data["action"]
    _emit(
        pipeline.action(
            config,
            metric,
            bracket,
            ghost=args.ghost or action_cfg["ghost"],
            fp_det=args.fp_det or action_cfg["fp_det"],
        )
    )


def _cmd_kernel_check(args):
    config = parse_scenario(args.config)
    _, spec, _ = pipeline.kernel(config, pipeline.action_terms(config, config.build_metric()))
    deviation = evolution.kernel_normalization_check(spec)
    _emit({"normalization_deviation": deviation, "variance": spec.variance})


def _cmd_evolve(args):
    config = parse_scenario(args.config)
    metric = config.build_metric()
    _, spec, _ = pipeline.kernel(config, pipeline.action_terms(config, metric))
    slice_metric, _, psi = pipeline.evolve(config, metric, spec)
    write_grid(args.out, psi.values, slice_metric.grid)
    norm = psi.norm(slice_metric.volume_density)
    _emit({"out": args.out, "norm": norm, "time": psi.time})


def _cmd_optimal_rho(args):
    config = parse_scenario(args.config)
    _emit(pipeline.cooperation(config, config.build_metric()))


def _cmd_pipeline(args):
    config = parse_scenario(args.scenario)
    manifest = pipeline.run_pipeline(
        config,
        out_dir=args.out_dir,
        seed=args.seed,
        threads=args.threads,
        csv=args.format == "csv",
    )
    _emit(manifest)


_COMMANDS = {
    "geometry": _cmd_geometry,
    "polygon-area": _cmd_polygon,
    "lie-bracket": _cmd_bracket,
    "gff-sample": _cmd_gff,
    "simulate-sde": _cmd_sde,
    "cascade": _cmd_cascade,
    "action": _cmd_action,
    "kernel-check": _cmd_kernel_check,
    "evolve": _cmd_evolve,
    "optimal-rho": _cmd_optimal_rho,
    "pipeline": _cmd_pipeline,
}


def _check_out(path):
    """Reject an ``--out`` that cannot be written before any work is done."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ValidationError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(parent):
        raise ValidationError(f"cannot write {path}: {parent} is not a directory")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "out"):
            _check_out(args.out)
        _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
