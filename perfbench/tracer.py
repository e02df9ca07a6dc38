"""In-memory span tracer for the semicoop layers.

``Tracer.install`` wraps every public function of each layer module, the
constructor and public methods of each public class defined there, and
every CLI subcommand.  It then rebinds every name in the ``semicoop``
modules that still points at an original, including copies made by
``from ... import``, and fails if any is left.  A span is
``[name, start, end, parent_index]``; ``self_times`` subtracts the time
covered by direct children.  Counts are computed from the arguments and
results at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time

LAYERS = (
    "scenario",
    "geometry",
    "stubbornness",
    "market",
    "brane",
    "evolution",
    "fieldio",
    "pipeline",
    "cli",
)


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _evolve_unknown_steps(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    n1, n2 = bound["psi"].grid.shape
    return {"evolution.evolve_unknown_steps": (n1 - 2) * (n2 - 2) * int(bound["steps"])}


def _path_steps(fn, args, kwargs, result):
    paths, points, _ = result.values.shape
    return {"market.path_steps": paths * (points - 1)}


def _written(fn, args, kwargs, result):
    path = str(args[0])
    return {"fieldio.bytes_written": _file_bytes(path, path + ".json")}


def _read_grid(fn, args, kwargs, result):
    path = str(args[0])
    return {"fieldio.bytes_read": _file_bytes(path, path + ".json")}


def _read_ensemble(fn, args, kwargs, result):
    return {"fieldio.bytes_read": _file_bytes(str(args[0]))}


# span name -> hook(fn, args, kwargs, result) returning counts to add
COUNT_HOOKS = {
    "brane.pullbacks": lambda fn, a, k, r: {"brane.pullbacks_calls": 1},
    "brane.fp_operator_matrix": lambda fn, a, k, r: {"brane.fp_dof": int(r.shape[0])},
    "market.simulate": _path_steps,
    "evolution.evolve": _evolve_unknown_steps,
    "fieldio.write_grid": _written,
    "fieldio.write_ensemble": _written,
    "fieldio.read_grid": _read_grid,
    "fieldio.read_ensemble": _read_ensemble,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name, fn):
        hook = COUNT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            record = [name, 0.0, 0.0, stack[-1] if stack else None]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                with tracer._lock:
                    for key, value in hook(fn, args, kwargs, result).items():
                        tracer.counts[key] = tracer.counts.get(key, 0) + value
            return result

        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self):
        """Wrap the layers of the imported ``semicoop`` package."""
        wrappers = {}  # id(original) -> wrapper
        originals = []  # keeps the originals alive while ids are compared
        for layer in LAYERS:
            module = sys.modules[f"semicoop.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                    originals.append(obj)
                elif inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{attr}", obj)
        cli = sys.modules["semicoop.cli"]
        for command, fn in list(cli._COMMANDS.items()):
            cli._COMMANDS[command] = self.wrap(f"cli.{command}", fn)

        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "semicoop"]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])
        missed = [
            f"{module.__name__}.{attr}"
            for module in modules
            for attr, obj in vars(module).items()
            if any(obj is o for o in originals)
        ]
        if missed:
            raise RuntimeError(f"unwrapped bindings left: {missed}")

    def _wrap_class(self, name, cls):
        if "__init__" in vars(cls):
            cls.__init__ = self.wrap(name, cls.__init__)
        for attr, obj in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(f"{name}.{attr}", obj))


def self_times(spans):
    """Per-span self time: duration minus the time of direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
