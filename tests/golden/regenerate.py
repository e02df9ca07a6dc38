"""Golden outputs of reduced copies of the four benchmark workloads, and
of one scenario on a general metric.

Each case is one workload of ``perfbench/design.json`` on a smaller grid,
with fewer share paths and steps, or the ``general_metric`` pipeline,
whose metric file varies along all three axes and couples the two
strategy axes, run through ``semicoop.cli.main`` in this process at a
given master seed and thread count.  Its record holds:

- ``manifest``: the text of the pipeline's ``manifest.json``, which
  carries the SHA-256 of every artifact and the scalar results;
- ``files``: for every artifact, and every file a ``stage_commands``
  subcommand writes, its SHA-256, its value count and up to
  ``SAMPLES`` of its values at evenly spaced flat positions, so that a
  digest that moves can be told apart by how far the values moved;
- ``stdout``: each subcommand's stdout, with the output directory
  replaced by ``{out}``.

The digests belong to one numpy build and its BLAS (``eigh`` and
``einsum`` sum in an order of their own), which ``environment.json``
records beside the cases.

Run from the repository root to rewrite every golden file:

    PYTHONPATH=src python tests/golden/regenerate.py

A golden file changes only together with a declared output change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (1, 4)
SAMPLES = 64
PLACEHOLDER = "{out}"

FIRM = {
    "share": [0.3, 1.0, 0.5],
    "strategy": 0.2,
    "alpha_own": 0.5,
    "alpha_other": 0.5,
    "coop_own": 0.5,
    "coop_other": 0.5,
}
COMMON = {
    "metric": {"preset": "sphere"},
    "background": {"preset": "combined"},
    "action": {"ghost": True, "fp_det": False},
    "profit": {"preset": "region_power"},
}
PIPELINE = [
    "pipeline", "--scenario", "{scenario}", "--out-dir", "{out}/pipeline",
    "--seed", "{seed}", "--threads", "{threads}",
]

# The workloads of perfbench/design.json, reduced.  path_ensemble keeps
# two path chunks, the second one path wide, and a prime step count, so
# the last step block is a short one.
WORKLOADS = {
    "world_grid": {
        "grid": {"time": [0, 1, 5], "sigma1": [0.5, 2.5, 17], "sigma2": [0, 1, 17]},
        "scenario": {"sde": {"steps": 16, "paths": 300, "horizon": 1.0}, "evolve": {"steps": 20}},
        "commands": [PIPELINE],
    },
    "path_ensemble": {
        "grid": {"time": [0, 1, 3], "sigma1": [0.5, 2.5, 9], "sigma2": [0, 1, 9]},
        "scenario": {"sde": {"steps": 37, "paths": 4097, "horizon": 1.0}, "evolve": {"steps": 10}},
        "commands": [PIPELINE],
    },
    "strategy_plane": {
        "grid": {"time": [0, 1, 3], "sigma1": [0.5, 2.5, 17], "sigma2": [0, 1, 17]},
        "scenario": {
            "sde": {"steps": 16, "paths": 200, "horizon": 1.0},
            "evolve": {"steps": 400},
            "kernel": {"normalization_samples": 16},
            "rho_grid": 64,
        },
        "commands": [PIPELINE],
    },
    "stage_commands": {
        "grid": {"time": [0, 1, 3], "sigma1": [0.5, 2.5, 9], "sigma2": [0, 1, 9]},
        "metric_file": {"preset": "sphere", "radius_range": [0.9, 1.1]},
        "scenario": {"sde": {"steps": 12, "paths": 300, "horizon": 1.0}, "evolve": {"steps": 50}},
        "commands": [
            ["geometry", "--metric", "{metric}", "--op", "curvature",
             "--out", "{out}/curvature.bin"],
            ["simulate-sde", "--scenario", "{scenario}", "--out", "{out}/sde_paths.bin",
             "--seed", "{seed}", "--threads", "{threads}"],
            ["action", "--config", "{scenario}", "--ghost", "--fp-det"],
            ["kernel-check", "--config", "{scenario}", "--seed", "{seed}"],
            ["evolve", "--config", "{scenario}", "--out", "{out}/psi.bin"],
            ["optimal-rho", "--config", "{scenario}"],
            PIPELINE,
        ],
    },
    # no workload runs a metric that varies along every axis: this case pins
    # geometry on full support, the SDE on such a metric and evolve's LU path
    "general_metric": {
        "grid": {"time": [0, 1, 5], "sigma1": [0.5, 2.5, 9], "sigma2": [0, 1, 9]},
        "metric_file": {"preset": "general"},
        "scenario": {
            "action": {"ghost": True, "fp_det": True},
            "sde": {"steps": 16, "paths": 300, "horizon": 1.0},
            "evolve": {"steps": 20},
        },
        "commands": [PIPELINE],
    },
}

# files the stage subcommands write, beside the pipeline's artifacts
COMMAND_FILES = {"geometry": "curvature.bin", "simulate-sde": "sde_paths.bin", "evolve": "psi.bin"}


def cases():
    """``(workload, seed)`` of every golden case."""
    return [(name, seed) for name in WORKLOADS for seed in SEEDS]


def golden_path(name, seed):
    return os.path.join(HERE, f"{name}-s{seed}.json")


def environment():
    """The numpy version and the BLAS it was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip()}


def _flat_values(path):
    """Every number a file holds, flattened in a fixed order."""
    from semicoop.fieldio import read_ensemble, read_grid

    if path.endswith(".json"):
        with open(path) as fh:
            return np.array(_numbers(json.load(fh)), dtype=float)
    if os.path.basename(path) in ("paths.bin", "sde_paths.bin"):
        return np.asarray(read_ensemble(path)[1], dtype=float).ravel()
    values = read_grid(path)[0]
    if np.iscomplexobj(values):
        values = np.stack([values.real, values.imag], axis=-1)
    return np.asarray(values, dtype=float).ravel()


def _numbers(payload):
    """Numeric leaves of a JSON value, keys in sorted order."""
    if isinstance(payload, bool) or payload is None or isinstance(payload, str):
        return []
    if isinstance(payload, (int, float)):
        return [float(payload)]
    if isinstance(payload, dict):
        return [v for key in sorted(payload) for v in _numbers(payload[key])]
    return [v for item in payload for v in _numbers(item)]


def fingerprint(path):
    """SHA-256, value count and sampled values of one output file."""
    from semicoop.fieldio import sha256_of

    values = _flat_values(path)
    # distinct positions: their spacing is at least 1
    positions = np.linspace(0, values.size - 1, min(values.size, SAMPLES)).astype(np.intp)
    return {
        "sha256": sha256_of(path),
        "size": int(values.size),
        "samples": [float(v) for v in values[positions]],
    }


def general_metric_values(grid):
    """A metric that varies along every axis, with ``r = 1 + 0.2 t``:
    ``h_00 = 1``, ``h_11 = r^2``, ``h_22 = r^2 sin^2(theta) (1 + 0.1 cos
    2 pi phi)`` and ``h_12 = 0.05 r^2 sin(theta) sin(2 pi phi)``, on
    ``(t, theta, phi)``."""
    t, theta, phi = grid.meshgrid()
    r2 = (1.0 + 0.2 * t) ** 2
    values = np.zeros(grid.shape + (3, 3))
    values[...] = np.eye(3)
    values[..., 1, 1] = r2
    values[..., 2, 2] = r2 * np.sin(theta) ** 2 * (1.0 + 0.1 * np.cos(2 * np.pi * phi))
    values[..., 1, 2] = values[..., 2, 1] = 0.05 * r2 * np.sin(theta) * np.sin(2 * np.pi * phi)
    return values


def _write_metric_file(spec, grid, seed, path):
    """A case's metric file: a sphere metric whose radius is drawn from
    the seed, as the benchmark draws it for stage_commands, or the
    general metric."""
    from semicoop import fieldio, geometry

    if spec["preset"] == "general":
        fieldio.write_grid(path, general_metric_values(grid), grid)
        return
    lo, hi = spec["radius_range"]
    radius = lo + (hi - lo) * float(np.random.default_rng(seed).random())
    fieldio.write_grid(path, geometry.sphere_metric(grid, radius=radius).values, grid)


def run_case(name, seed, threads, workdir):
    """Run one case in ``workdir``; returns its record."""
    from semicoop import cli
    from semicoop.grids import GridSpec

    spec = WORKLOADS[name]
    axes = spec["grid"]
    scenario = {"grid": axes, **COMMON, **spec["scenario"], "firms": [FIRM]}
    metric_path = os.path.join(workdir, "metric.bin")
    if "metric_file" in spec:
        grid = GridSpec.from_axes(tuple(axes["time"]), tuple(axes["sigma1"]), tuple(axes["sigma2"]))
        _write_metric_file(spec["metric_file"], grid, seed, metric_path)
        scenario["metric"] = {"file": metric_path}
    scenario_path = os.path.join(workdir, "scenario.json")
    with open(scenario_path, "w") as fh:
        json.dump(scenario, fh, indent=2, sort_keys=True)

    out = os.path.join(workdir, "out")
    os.makedirs(out)
    fields = {"scenario": scenario_path, "metric": metric_path, "out": out,
              "seed": str(seed), "threads": str(threads)}
    stdout, files = {}, {}
    for command in spec["commands"]:
        argv = [arg.format(**fields) for arg in command]
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"{name} seed {seed}: {argv[0]} exited with {code}")
        if len(spec["commands"]) > 1:
            stdout[argv[0]] = text.getvalue().replace(out, PLACEHOLDER)
        if argv[0] in COMMAND_FILES:
            filename = COMMAND_FILES[argv[0]]
            files[f"{argv[0]}/{filename}"] = fingerprint(os.path.join(out, filename))

    pipeline_dir = os.path.join(out, "pipeline")
    with open(os.path.join(pipeline_dir, "manifest.json")) as fh:
        manifest = fh.read()
    for artifact in sorted(json.loads(manifest)["artifacts"]):
        files[artifact] = fingerprint(os.path.join(pipeline_dir, artifact))
    return {"manifest": manifest, "files": dict(sorted(files.items())), "stdout": stdout}


def main():
    for name, seed in cases():
        with tempfile.TemporaryDirectory(prefix="golden-") as workdir:
            record = run_case(name, seed, 1, workdir)
        with open(golden_path(name, seed), "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {golden_path(name, seed)}")
    with open(os.path.join(HERE, "environment.json"), "w") as fh:
        json.dump(environment(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
