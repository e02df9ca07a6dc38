"""One benchmark sample, run in a fresh interpreter.

Usage: python3 perfbench/child.py REQUEST_JSON READY_FD

Imports ``semicoop.cli``, optionally installs the tracer, parses the
workload's scenario and writes one line to READY_FD: the parent reads
set-up time from that signal.  Then it calls ``semicoop.cli.main`` once
per command, each command's stdout going to its own file, and writes a
JSON result (exit codes, wall time, CPU time, peak RSS, spans) to the
path named in the request.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time


def peak_rss_mb():
    """Peak resident memory of this process since exec (VmHWM), in MiB.

    ``ru_maxrss`` would do on a fork-free start, but after a vfork-based
    spawn Linux carries the parent's peak into the child's value.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(request_path, ready_fd):
    with open(request_path) as fh:
        request = json.load(fh)
    import semicoop.cli as cli

    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cli.parse_scenario(request["scenario"])
    os.write(ready_fd, b"ready\n")
    os.close(ready_fd)

    exit_codes = []
    start = time.perf_counter()
    for argv, stdout_path in zip(request["commands"], request["stdout"]):
        with open(stdout_path, "w") as out, contextlib.redirect_stdout(out):
            code = cli.main(argv)
        exit_codes.append(code)
        if code != 0:
            break
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "exit_codes": exit_codes,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    with open(request["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
