"""Alternating before/after pairs of ``perfbench/run.py``, for speed claims.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent REF --change TEXT --out BENCH_<n>.json \\
        [--claim WORKLOAD:SEED:METRIC:PAIRS] [--check WORKLOAD:SEED:PAIRS ...] \\
        [--traced WORKLOAD:SEED ...] [--seconds S] [--work DIR]

The parent side is ``git archive REF``; the change side is a copy of the
working tree's ``src/``, ``perfbench/`` and ``BENCHMARK.json``.  Both
live under ``--work`` (a new temporary directory by default, removed at
the end), as ``parent`` and ``change``.  Each run, paired or traced,
first renames its side to ``run`` in the same directory and renames it
back afterwards, so that both sides run from one path: the path's
length moves ``peak_rss_mb``.  Each pair runs the unchanged
``perfbench/run.py --trace 0`` once on each side, the parent first in
odd pairs and the change first in even ones, so that a drift of the
machine's speed falls on both sides alike.

The claim's pairs decide the verdict of :func:`verdict`: the change
wins at least 9 of every 10 pairs and its median beats the parent's by
more than the parent's interquartile range.  Every end-to-end metric of
``BENCHMARK.json`` is taken from the same pairs, and each ``--check``
adds pairs on another workload or seed, reported against the metric's
bound.  A change that claims no gain omits ``--claim``: only its
``--check`` pairs run, at least one is required, and the output's
``claim`` is null.  ``--traced`` adds one ``--trace 1`` run per side
whose ``trace.overhead_s`` is reported only.  The output uses the keys
of ``BENCH_21.json``.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
RULE = (
    "the change wins at least 9 of 10 alternating pairs and the median gap "
    "exceeds the parent's interquartile range"
)


def quartiles(values):
    """``(q1, median, q3)``, linearly interpolated (numpy's default)."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(before, after):
    """The rule's verdict on paired samples of a metric where lower is
    better: ``before[i]`` (parent) and ``after[i]`` (change) come from
    pair ``i``.  The change must win at least 9 of every 10 pairs, and
    the gap between the medians must exceed the parent's interquartile
    range."""
    if len(before) != len(after) or len(before) < 2:
        raise ValueError("verdict needs two equal lists of at least two samples")
    wins = sum(a < b for b, a in zip(before, after))
    b1, b_median, b3 = quartiles(before)
    a1, a_median, a3 = quartiles(after)
    gap = b_median - a_median
    return {
        "wins": f"{wins} of {len(before)}",
        "before": {"median": round(b_median, 4), "q1": round(b1, 4), "q3": round(b3, 4)},
        "after": {"median": round(a_median, 4), "q1": round(a1, 4), "q3": round(a3, 4)},
        "parent_iqr": round(b3 - b1, 4),
        "median_gap": round(gap, 4),
        "ratio_after_over_before": round(a_median / b_median, 4),
        "met": 10 * wins >= 9 * len(before) and gap > b3 - b1,
    }


def prepare(work, parent):
    """Make ``work/parent`` from ``git archive parent`` and ``work/change``
    from the working tree; returns the two directories."""
    dirs = {side: os.path.join(work, side) for side in SIDES}
    archive = subprocess.run(
        ["git", "archive", "--format=tar", parent], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dirs["parent"], filter="data")
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    for name in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dirs["change"], name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dirs["change"])
    return dirs


def command(workload, seed, seconds, trace):
    return [
        "python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]


def run_once(directory, workload, seed, seconds, trace=0):
    """One ``perfbench/run.py`` run in ``directory``: its last stdout line
    as ``{"correct", "attempted", "failed", metric: value, ...}``."""
    proc = subprocess.run(
        command(workload, seed, seconds, trace), cwd=directory, capture_output=True, text=True
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {directory}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    row = {k: result[k] for k in ("correct", "attempted", "failed")}
    row.update({k: round(v["value"], 4) for k, v in result["metrics"].items()})
    return row


def run_side(directory, workload, seed, seconds, trace=0):
    """:func:`run_once` on the side copy ``directory``, renamed for the
    run to ``run`` beside it, so that every side runs from one path."""
    run = os.path.join(os.path.dirname(directory), "run")
    os.rename(directory, run)
    try:
        return run_once(run, workload, seed, seconds, trace)
    finally:
        os.rename(run, directory)


def run_pairs(dirs, workload, seed, pairs, seconds, runs):
    """Alternating pairs; appends one row per run to ``runs`` and returns
    the rows of this workload and seed, by side, in pair order."""
    sides = {side: [] for side in SIDES}
    for pair in range(1, pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            row = run_side(dirs[side], workload, seed, seconds)
            sides[side].append(row)
            runs.append(dict(workload=workload, seed=seed, pair=pair, first=order[0],
                             side=side, **row))
            print(f"{workload} seed {seed} pair {pair} {side}: "
                  + ", ".join(f"{k} {v}" for k, v in row.items()), file=sys.stderr, flush=True)
    return sides


def sample_counts(sides):
    return {
        "failed_samples": [sum(r["failed"] for r in sides[s]) for s in SIDES],
        "attempted_samples": [sum(r["attempted"] for r in sides[s]) for s in SIDES],
    }


def regression_check(workload, seed, sides, end_to_end):
    """Every end-to-end metric's medians against its bound."""
    check = dict(workload=workload, seed=seed, pairs=len(sides["parent"]), **sample_counts(sides))
    for spec in end_to_end:
        name = spec["name"]
        before = [r[name] for r in sides["parent"]]
        after = [r[name] for r in sides["change"]]
        b, a = statistics.median(before), statistics.median(after)
        check[name] = {
            "before_runs": before,
            "after_runs": after,
            "before_median": round(b, 4),
            "after_median": round(a, 4),
            "change_over_parent": round(a / b, 4),
            "bound": spec["bound"],
            "within_bound": a <= b * (1 + spec["bound"]),
        }
    return check


def claim_record(workload, seed, metric, sides, seconds):
    before = [r[metric] for r in sides["parent"]]
    after = [r[metric] for r in sides["change"]]
    record = {
        "workload": workload,
        "seed": seed,
        "metric": metric,
        "command": " ".join(command(workload, seed, seconds, 0)),
        "pairs": [
            {"pair": i + 1, "first": SIDES[i % 2], "before": b, "after": a}
            for i, (b, a) in enumerate(zip(before, after))
        ],
    }
    result = verdict(before, after)
    record["wins"] = result.pop("wins")
    record.update(sample_counts(sides))
    record.update(result)
    return record


def machine(directory):
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        cwd=directory, capture_output=True, text=True,
    ).stdout.strip()
    # compiling the source in each fresh process moves setup_s
    bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE") or "unset"
    # the CPUs this process may run on, which the CLI's --threads defaults to
    return (
        f"nproc {len(os.sched_getaffinity(0))}, Python {platform.python_version()}, "
        f"numpy {numpy}, BLAS threads 1, PYTHONDONTWRITEBYTECODE {bytecode}; "
        "parent and change run alternately in one session"
    )


def split(spec, kinds):
    parts = spec.split(":")
    if len(parts) != len(kinds):
        raise SystemExit(f"{spec!r} is not of the form {':'.join(k.__name__ for k in kinds)}")
    return [kind(p) for kind, p in zip(kinds, parts)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--change", required=True, help="one-paragraph summary of the change")
    parser.add_argument("--out", required=True)
    parser.add_argument("--claim", help="WORKLOAD:SEED:METRIC:PAIRS; omit it to claim no gain")
    parser.add_argument("--check", action="append", default=[], help="WORKLOAD:SEED:PAIRS")
    parser.add_argument("--traced", action="append", default=[], help="WORKLOAD:SEED")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--work", help="directory for the two copies (default: a temporary one)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    claim = args.claim and split(args.claim, (str, int, str, int))
    checks = [split(c, (str, int, int)) for c in args.check]
    traced = [split(t, (str, int)) for t in args.traced]
    if not claim and not checks:
        raise SystemExit("with no --claim, give at least one --check")

    work = args.work or tempfile.mkdtemp(prefix="bench_pairs-")
    try:
        dirs = prepare(work, args.parent)
        commit = subprocess.run(
            ["git", "rev-parse", "--short", args.parent], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
        runs = []
        out = {
            "change": args.change,
            "before": f"{commit} (parent commit, a git archive)",
            "after": "this change (a copy of the working tree's src/, perfbench/ and BENCHMARK.json)",
            "machine": machine(dirs["change"]),
        }
        checked = []
        if claim:
            workload, seed, metric, pairs = claim
            sides = run_pairs(dirs, workload, seed, pairs, args.seconds, runs)
            out["rule"] = RULE
            out["claim"] = claim_record(workload, seed, metric, sides, args.seconds)
            for spec in end_to_end:
                if spec["name"] != metric:
                    out[f"same_pairs_{spec['name']}"] = claim_record(
                        workload, seed, spec["name"], sides, args.seconds
                    )
            checked.append(regression_check(workload, seed, sides, end_to_end))
        else:
            out["claim"] = None
        for w, s, n in checks:
            checked.append(
                regression_check(w, s, run_pairs(dirs, w, s, n, args.seconds, runs), end_to_end)
            )
        out["no_regression_checks"] = checked
        out["traced_runs"] = [
            {"workload": w, "seed": s, "side": side, "command": " ".join(command(w, s, args.seconds, 1)),
             **{k: v for k, v in run_side(dirs[side], w, s, args.seconds, trace=1).items()
                if k in ("correct", "attempted", "failed", "trace.overhead_s", "trace.wall_s")}}
            for w, s in traced
            for side in SIDES
        ]
        out["runs"] = runs
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    if claim:
        print(json.dumps({k: out["claim"][k] for k in ("wins", "before", "after", "met")}))
    for check in out["no_regression_checks"]:
        within = {spec["name"]: check[spec["name"]]["within_bound"] for spec in end_to_end}
        print(json.dumps({"workload": check["workload"], "seed": check["seed"],
                          "within_bound": within}))


if __name__ == "__main__":
    main()
