"""Benchmark of semicoop runs through the public CLI, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in perfbench/design.json, or ``all`` to run
each in turn.  Every sample is a fresh ``python3 perfbench/child.py``
process with ``PYTHONPATH=src`` that calls ``semicoop.cli.main``; this
script starts one at a time and waits for it (a closed loop with one
client).  The seed is the master seed of every CLI call.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the
median over untraced samples (at least three) of wall time, set-up
time, CPU time and peak RSS.  ``--trace 1`` alternates untraced and traced samples and
reports the per-layer metrics of the traced ones.  Every sample's
outputs are checked (exit codes, artifact hashes, finite results, the
path ensemble read back, byte-identical manifests); a sample that fails
a check counts as failed.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import struct
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

from tracer import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench_work"
MIN_ROUNDS = 3
RUN_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer metric -> spans whose self times it sums
SELF_TIME_SPANS = {
    "brane.pullbacks_s": ["brane.pullbacks"],
    "brane.scalar_action_terms_s": ["brane.scalar_action_terms"],
    "brane.evaluate_action_s": ["brane.evaluate_action"],
    "brane.ghost_action_s": ["brane.ghost_action", "brane.ghost_covariant_derivative"],
    "brane.fp_determinant_s": [
        "brane.fp_determinant",
        "brane.fp_operator_matrix",
        "brane.fp_log_determinant",
    ],
    "geometry.metric_field_s": ["geometry.MetricField", "geometry.lu_determinants"],
    "geometry.christoffel_s": ["geometry.christoffel"],
    "geometry.curvature_s": ["geometry.curvature"],
    "geometry.laplace_operator_matrix_s": ["geometry.laplace_operator_matrix"],
    "market.derive_coefficients_s": ["market.derive_coefficients"],
    "market.simulate_s": ["market.simulate"],
    "fieldio.write_s": ["fieldio.write_grid", "fieldio.write_ensemble"],
    "fieldio.sha256_s": ["fieldio.sha256_of"],
    "fieldio.read_s": ["fieldio.read_grid", "fieldio.read_ensemble"],
    "evolution.evolve_s": ["evolution.evolve"],
    "evolution.kernel_normalization_check_s": ["evolution.kernel_normalization_check"],
    "evolution.two_point_correlation_s": ["evolution.two_point_correlation"],
    "evolution.optimal_rho_s": ["evolution.optimal_rho"],
    "scenario.parse_s": ["scenario.parse_scenario"],
}
# per-layer metric -> layer whose spans' self times it sums
LAYER_SELF_TIME = {
    "stubbornness.gff_s": "stubbornness",
    "pipeline.self_s": "pipeline",
    "cli.self_s": "cli",
}
CLI_COMMANDS = (
    "geometry",
    "simulate-sde",
    "action",
    "kernel-check",
    "evolve",
    "optimal-rho",
    "pipeline",
)
COUNTS = (
    "brane.pullbacks_calls",
    "brane.fp_dof",
    "market.path_steps",
    "evolution.evolve_unknown_steps",
    "fieldio.bytes_written",
    "fieldio.bytes_read",
)


class SampleFailure(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # one BLAS thread: with `--threads nproc` the chunk pool alone fills the
    # machine, so samples never run more compute threads than nproc
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def source_digest(root):
    h = hashlib.sha256()
    package = os.path.join(root, "src", "semicoop")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def nonfinite(value, where):
    """Paths of numbers in a JSON value that are neither finite nor null."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in nonfinite(v, f"{where}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in nonfinite(v, f"{where}[{i}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [where]
    return []


def tail(values):
    """Highest percentile with at least ten samples beyond it; max below 20."""
    n = len(values)
    if n < 20:
        return "max", max(values)
    p = math.floor(100 * (1 - 10 / n))
    return f"p{p}", statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Workload:
    """A workload's generated inputs and the samples run on them."""

    def __init__(self, root, design, name, seed):
        self.root = root
        self.name = name
        self.seed = seed
        self.spec = design["workloads"][name]
        self.firm = design["firm"]
        self.dir = os.path.join(WORK, f"{name}-s{seed}")
        self.env = child_env(root)
        self.manifest_digests = set()
        self.samples = 0

    def prepare(self):
        from semicoop import fieldio, geometry, grids

        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        grid_axes = self.spec["grid"]
        self.grid = grids.GridSpec.from_axes(
            tuple(grid_axes["time"]), tuple(grid_axes["sigma1"]), tuple(grid_axes["sigma2"])
        )
        self.scenario_path = os.path.join(self.dir, "scenario.json")
        self.metric_path = os.path.join(self.dir, "metric.bin")
        scenario = {"grid": grid_axes, **self.spec["scenario"], "firms": [self.firm]}
        if "metric_file" in self.spec:
            lo, hi = self.spec["metric_file"]["radius_range"]
            radius = lo + (hi - lo) * float(np.random.default_rng(self.seed).random())
            metric = geometry.sphere_metric(self.grid, radius=radius)
            fieldio.write_grid(self.metric_path, metric.values, self.grid)
            scenario["metric"] = {"file": self.metric_path}
        with open(self.scenario_path, "w") as fh:
            json.dump(scenario, fh, indent=2, sort_keys=True)
        self.sde = scenario["sde"]

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def run(self, deadline, trace=False):
        """Start one sample process; return its measurements.

        Output checks that fail are listed under "problems"; a process
        that fails or times out raises SampleFailure.
        """
        self.samples += 1
        out = os.path.join(self.dir, f"sample{self.samples}")
        os.makedirs(out)
        fields = {"scenario": self.scenario_path, "metric": self.metric_path,
                  "out": out, "seed": str(self.seed)}
        commands = [[arg.format(**fields) for arg in cmd] for cmd in self.spec["commands"]]
        request = {
            "scenario": self.scenario_path,
            "commands": commands,
            "stdout": [os.path.join(out, f"stdout{i}.json") for i in range(len(commands))],
            "result": os.path.join(out, "result.json"),
            "trace": trace,
        }
        request_path = os.path.join(out, "request.json")
        with open(request_path, "w") as fh:
            json.dump(request, fh)
        try:
            sample = self._spawn(request_path, out, deadline)
            with open(request["result"]) as fh:
                sample.update(json.load(fh))
            sample["problems"] = self._check(sample, commands, request["stdout"], out, trace)
            return sample
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _spawn(self, request_path, out, deadline):
        read_fd, write_fd = os.pipe()
        stderr_path = os.path.join(out, "stderr.txt")
        with open(stderr_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), request_path, str(write_fd)],
                pass_fds=(write_fd,),
                cwd=self.root,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=err,
                stderr=err,
            )
        os.close(write_fd)
        try:
            ready, _, _ = select.select([read_fd], [], [], max(deadline - start, 0.0))
            signal = os.read(read_fd, 16) if ready else b""
            setup = time.perf_counter() - start
            code = proc.wait(timeout=max(deadline - time.perf_counter(), 0.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            os.close(read_fd)
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or signal != b"ready\n":
            with open(stderr_path) as fh:
                detail = fh.read().strip().splitlines()[-3:]
            reason = "timed out" if code is None else f"exit code {code}"
            raise SampleFailure(f"sample process {reason}: {' | '.join(detail)}")
        return {"setup_s": setup}

    def _check(self, sample, commands, stdout_paths, out, trace):
        from semicoop.errors import SemicoopError

        codes = sample["exit_codes"]
        if len(codes) != len(commands) or any(codes):
            return [f"CLI exit codes {codes} for {len(commands)} commands"]
        try:
            return self._check_outputs(sample, commands, stdout_paths, out, trace)
        except (OSError, ValueError, KeyError, struct.error, SemicoopError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _check_outputs(self, sample, commands, stdout_paths, out, trace):
        from semicoop.fieldio import read_ensemble, sha256_of

        problems = []
        for cmd, path in zip(commands, stdout_paths):
            with open(path) as fh:
                payload = json.load(fh)
            problems += [f"{cmd[0]} output {p} not finite" for p in nonfinite(payload, "")]

        pipeline_dir = os.path.join(out, "pipeline")
        with open(os.path.join(pipeline_dir, "manifest.json"), "rb") as fh:
            raw = fh.read()
        manifest = json.loads(raw)
        if "failed_stage" in manifest:
            problems.append(f"pipeline failed at stage {manifest['failed_stage']}")
        for name, digest in manifest["artifacts"].items():
            if sha256_of(os.path.join(pipeline_dir, name)) != digest:
                problems.append(f"artifact {name} does not match its manifest hash")
        problems += [f"manifest result {p} not finite" for p in nonfinite(manifest["results"], "")]
        self.manifest_digests.add(hashlib.sha256(raw).hexdigest())
        if len(self.manifest_digests) > 1:
            problems.append("manifest differs from an earlier sample of this workload and seed")

        ensembles = [os.path.join(pipeline_dir, "paths.bin")]
        if "simulate-sde" in [c[0] for c in commands]:
            ensembles.append(os.path.join(out, "sde_paths.bin"))
        expected = (self.sde["paths"], self.sde["steps"] + 1, 3)
        for path in ensembles:
            _, values = read_ensemble(path)
            if values.shape != expected:
                problems.append(f"{path} has shape {values.shape}, expected {expected}")
            elif trace and path == ensembles[0]:
                sample["off_grid_frac"] = self._off_grid_frac(values)
            del values
        if trace:
            sample["norm_drift"] = manifest["results"]["norm_drift"]
        return problems

    def _off_grid_frac(self, values):
        outside = np.zeros(values.shape[:2], dtype=bool)
        for k, (lo, hi) in enumerate(self.grid.extents):
            outside |= (values[..., k] < lo) | (values[..., k] > hi)
        return float(outside.mean())


def layer_metrics(sample):
    spans = sample["spans"]
    own = self_times(spans)
    self_by_name = defaultdict(float)
    inclusive_by_name = defaultdict(float)
    by_layer = defaultdict(float)
    for (name, start, end, _), t in zip(spans, own):
        self_by_name[name] += t
        inclusive_by_name[name] += end - start
        by_layer[name.split(".")[0]] += t
    metrics = {m: sum(self_by_name[n] for n in names) for m, names in SELF_TIME_SPANS.items()}
    metrics.update({m: by_layer[layer] for m, layer in LAYER_SELF_TIME.items()})
    metrics.update({f"cli.{c}_s": inclusive_by_name[f"cli.{c}"] for c in CLI_COMMANDS})
    metrics.update({c: sample["counts"].get(c, 0) for c in COUNTS})
    metrics["trace.wall_s"] = sample["wall_s"]
    metrics["brane.pullbacks_share"] = metrics["brane.pullbacks_s"] / sample["wall_s"]
    metrics["market.off_grid_frac"] = sample["off_grid_frac"]
    metrics["evolution.norm_drift"] = sample["norm_drift"]
    return metrics, self_by_name


def record_manifest(root, workload, digest):
    """Compare with, or store, the manifest digest of earlier runs in this checkout."""
    path = os.path.join(WORK, "manifests.json")
    records = {}
    if os.path.exists(path):
        with open(path) as fh:
            records = json.load(fh)
    key = f"{workload.name} seed={workload.seed} src={source_digest(root)}"
    if records.setdefault(key, digest) != digest:
        return False
    with open(path + ".tmp", "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return True


def run_workload(root, design, benchmark, name, seed, seconds, trace, hard_deadline):
    workload = Workload(root, design, name, seed)
    workload.prepare()
    attempted = failed = 0
    problems = []
    untraced, traced = [], []

    def sample(**kwargs):
        """One sample's measurements, or None if its process failed."""
        nonlocal attempted, failed
        attempted += 1
        try:
            s = workload.run(hard_deadline, **kwargs)
        except SampleFailure as exc:
            failed += 1
            problems.append(str(exc))
            return None
        if s["problems"]:
            failed += 1
            problems.extend(s["problems"])
        return s

    try:
        deadline = time.perf_counter() + seconds
        # rounds of one untraced (and one traced) sample; stop before a
        # round that would end past the deadline, once the minimum is met;
        # with three or more untraced samples one slow sample cannot set
        # the median
        rounds = []
        while True:
            begin = time.perf_counter()
            s = sample()
            if s:
                untraced.append(s)
            if trace:
                s = sample(trace=True)
                if s and not s["problems"]:
                    traced.append(s)
            rounds.append(time.perf_counter() - begin)
            next_end = time.perf_counter() + statistics.median(rounds)
            if next_end > hard_deadline or (
                len(rounds) >= (1 if trace else MIN_ROUNDS) and next_end > deadline
            ):
                break
        if len(workload.manifest_digests) == 1:
            if not record_manifest(root, workload, next(iter(workload.manifest_digests))):
                failed += 1
                problems.append("manifest differs from an earlier run at this seed")
    finally:
        workload.cleanup()

    if not untraced or (trace and not traced):
        for p in problems:
            print(f"check failed: {p}")
        raise SystemExit(f"{name}: no sample completed")

    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    rows = []
    if not trace:
        series = {
            "wall_s": [s["wall_s"] for s in untraced],
            "setup_s": [s["setup_s"] for s in untraced],
            "cpu_s": [s["cpu_s"] for s in untraced],
            "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
        }
        specs = benchmark["end_to_end"]
        metrics = {m: statistics.median(v) for m, v in series.items()}
        for m in specs:
            kind, value = tail(series[m["name"]])
            rows.append((m["name"], metrics[m["name"]], m["unit"],
                         f"median of n={len(series[m['name']])}, {kind} {value:.4g}"))
        rows.append(("error_rate", failed / attempted, "ratio", f"{failed} failed of {attempted}"))
    else:
        per_sample = [layer_metrics(s) for s in traced]
        metrics = {m: statistics.median(p[0][m] for p in per_sample) for m in per_sample[0][0]}
        for count in COUNTS:
            values = {p[0][count] for p in per_sample}
            if len(values) > 1:
                failed += 1
                problems.append(f"{count} differs between traced samples: {sorted(values)}")
            metrics[count] = per_sample[0][0][count]
        wall = statistics.median(s["wall_s"] for s in untraced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
        specs = benchmark["per_layer"]
        for m in specs:
            rows.append((m["name"], metrics[m["name"]], m["unit"], metric_kind(m["name"])))
        print(f"top spans by self time, first traced sample ({len(traced[0]['spans'])} spans):")
        for span, t in sorted(per_sample[0][1].items(), key=lambda kv: -kv[1])[:20]:
            print(f"  {span:<48} {t:10.4f} s")
    names = [m["name"] for m in specs]
    if sorted(metrics) != sorted(names):
        raise SystemExit(f"metric names {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    for row in rows:
        print(f"  {row[0]:<40} {row[1]:>14.6g} {row[2]:<6} {row[3]}")
    for p in problems:
        print(f"check failed: {p}")
    print(f"checks: {'ok' if not failed else 'FAILED'} ({failed} of {attempted} samples failed)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in specs},
    }


def metric_kind(name):
    if name in COUNTS:
        return "count, computed"
    if name == "market.off_grid_frac":
        return "ratio, computed from paths.bin"
    if name == "evolution.norm_drift":
        return "read from the manifest"
    if name.startswith("cli.") and name != "cli.self_s":
        return "inclusive time of the subcommand"
    if name == "trace.overhead_s":
        return "traced minus untraced wall_s"
    if name == "trace.wall_s":
        return "wall_s of the traced samples"
    if name.endswith("_share"):
        return "self time over traced wall_s"
    return "self time"


def environment():
    import scipy

    return (f"nproc {nproc()}  python {platform.python_version()}  numpy {np.__version__}"
            f"  scipy {scipy.__version__}  BLAS threads 1 ({', '.join(BLAS_THREAD_VARS)})")


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "semicoop", "cli.py")):
        print("error: src/semicoop not found; run from the repository root", file=sys.stderr)
        return 2
    hard_deadline = time.perf_counter() + RUN_LIMIT_S
    with open(os.path.join(HERE, "design.json")) as fh:
        design = json.load(fh)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    names = list(design["workloads"]) if args.workload == "all" else [args.workload]
    if any(n not in design["workloads"] for n in names):
        print(f"error: unknown workload {args.workload}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))  # semicoop, imported where used
    print(environment())
    results = {}
    for name in names:
        if len(names) > 1:
            hard_deadline = time.perf_counter() + RUN_LIMIT_S
        results[name] = run_workload(root, design, benchmark, name, args.seed, args.seconds,
                                     bool(args.trace), hard_deadline)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
