"""SHA-256 of every output of the benchmark's workloads, for comparing two trees.

Usage (from the repository root):

    python3 tools/output_digests.py SRC SEED

``SRC`` is the directory that holds a tree's ``semicoop`` package (a
checkout's ``src``).  For each workload of ``perfbench/design.json``,
read and never written, the tool builds the workload's inputs as
``perfbench/run.py`` does, at the full size the design gives, with that
tree's ``semicoop``, and runs every command of the workload through its
``semicoop.cli.main`` in one new temporary directory, removed at the end.
It prints one line ``workload path sha256`` for each file the commands
write and for each command's stdout (``stdout0``, ``stdout1``, ...), in
which the temporary directory is masked as ``{tmp}``.  Two trees whose
outputs agree byte for byte print identical lines for the same seed.
Standard library only, plus that tree's ``semicoop`` and numpy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESIGN = os.path.join(ROOT, "perfbench", "design.json")
MASK = "{tmp}"


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def prepare(spec, firm, seed, directory):
    """Write a workload's scenario, and its metric file if it has one, into
    ``directory``, as ``perfbench/run.py`` prepares them; returns the
    command fields."""
    import numpy as np
    from semicoop import fieldio, geometry, grids

    axes = spec["grid"]
    scenario = {"grid": axes, **spec["scenario"], "firms": [firm]}
    fields = {
        "scenario": os.path.join(directory, "scenario.json"),
        "metric": os.path.join(directory, "metric.bin"),
        "out": os.path.join(directory, "out"),
        "seed": str(seed),
    }
    if "metric_file" in spec:
        grid = grids.GridSpec.from_axes(*(tuple(axes[k]) for k in ("time", "sigma1", "sigma2")))
        lo, hi = spec["metric_file"]["radius_range"]
        radius = lo + (hi - lo) * float(np.random.default_rng(seed).random())
        metric = geometry.sphere_metric(grid, radius=radius)
        fieldio.write_grid(fields["metric"], metric.values, grid)
        scenario["metric"] = {"file": fields["metric"]}
    with open(fields["scenario"], "w") as fh:
        json.dump(scenario, fh, indent=2, sort_keys=True)
    os.makedirs(fields["out"])
    return fields


def digest_lines(design, seed):
    """The ``workload path sha256`` lines of every workload of ``design``
    at ``seed``, run with the ``semicoop`` that is imported.  A command
    that exits non-zero is a :class:`SystemExit` naming it."""
    from semicoop import cli

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in design["workloads"].items():
            directory = os.path.join(tmp, name)
            os.makedirs(directory)
            fields = prepare(spec, design["firm"], seed, directory)
            for index, command in enumerate(spec["commands"]):
                argv = [arg.format(**fields) for arg in command]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                if code != 0:
                    raise SystemExit(f"{name}: {' '.join(argv)} exited {code}")
                masked = out.getvalue().replace(tmp, MASK).encode()
                lines.append(f"{name} stdout{index} {hashlib.sha256(masked).hexdigest()}")
            for root, dirs, files in os.walk(fields["out"]):
                dirs.sort()
                for file in sorted(files):
                    path = os.path.join(root, file)
                    relative = os.path.relpath(path, fields["out"])
                    lines.append(f"{name} {relative} {sha256_file(path)}")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    src, seed = argv
    sys.path.insert(0, os.path.abspath(src))
    with open(DESIGN) as fh:
        design = json.load(fh)
    for line in digest_lines(design, int(seed)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
