"""Every artifact, manifest and stage stdout of reduced copies of the four
benchmark workloads, at seeds 1 and 4 and at one, two and four worker
threads (four is more than the two path chunks of ``path_ensemble``),
against the golden records in ``tests/golden/`` (rewritten by
``tests/golden/regenerate.py``).  A mismatch names each file, manifest
entry or stdout that moved, with the largest absolute and relative
change of its values."""

import importlib.util
import json
import os

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden_regenerate", os.path.join(os.path.dirname(__file__), "golden", "regenerate.py")
)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


def change(old, new, counted):
    """The largest absolute and relative change of two value lists, over
    the values ``counted`` names."""
    old, new = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    if old.shape != new.shape:
        return f"{old.size} values became {new.size}"
    diff = np.abs(new - old)
    if not diff.any():
        return f"the {counted} are unchanged"
    scale = np.maximum(np.abs(old), np.finfo(float).tiny)
    return (
        f"largest change over {counted}: absolute {diff.max():.3e}, "
        f"relative {(diff / scale).max():.3e}"
    )


def json_change(old, new):
    try:
        old, new = golden._numbers(json.loads(old)), golden._numbers(json.loads(new))
    except ValueError:
        return "not JSON"
    if old == new:
        return f"its {len(old)} numbers are unchanged, a string moved"
    return change(old, new, f"{len(old)} values")


def mismatches(expected, actual):
    """One line per file, manifest entry and stdout that differs."""
    problems = []
    for name in sorted(set(expected["files"]) | set(actual["files"])):
        old, new = expected["files"].get(name), actual["files"].get(name)
        if old is None or new is None:
            problems.append(f"{name}: {'new' if old is None else 'missing'} file")
        elif old["sha256"] != new["sha256"]:
            counted = f"{len(old['samples'])} sampled of {old['size']} values"
            if old["size"] != new["size"]:
                detail = f"{old['size']} values became {new['size']}"
            else:
                detail = change(old["samples"], new["samples"], counted)
            problems.append(f"{name}: SHA-256 differs; {detail}")
    if expected["manifest"] != actual["manifest"]:
        # the artifact digests are those of the files compared above
        old, new = json.loads(expected["manifest"]), json.loads(actual["manifest"])
        for key in sorted(set(old) | set(new)):
            if key == "artifacts" or old.get(key) == new.get(key):
                continue
            if isinstance(old.get(key), dict) and isinstance(new.get(key), dict):
                entries = sorted(k for k in set(old[key]) | set(new[key])
                                 if old[key].get(k) != new[key].get(k))
                for k in entries:
                    problems.append(
                        f"manifest {key}.{k}: {old[key].get(k)!r} -> {new[key].get(k)!r}"
                    )
            else:
                problems.append(f"manifest {key}: {old.get(key)!r} -> {new.get(key)!r}")
    for command in sorted(set(expected["stdout"]) | set(actual["stdout"])):
        old, new = expected["stdout"].get(command), actual["stdout"].get(command)
        if old != new:
            detail = json_change(old, new) if old and new else "missing output"
            problems.append(f"{command} stdout differs; {detail}")
    return problems


@pytest.fixture(scope="module")
def recorded_environment():
    with open(os.path.join(golden.HERE, "environment.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("name, seed", golden.cases())
def test_outputs_equal_the_golden_record(name, seed, threads, tmp_path, recorded_environment):
    with open(golden.golden_path(name, seed)) as fh:
        expected = json.load(fh)
    actual = golden.run_case(name, seed, threads, str(tmp_path))
    problems = mismatches(expected, actual)
    if problems:
        here = golden.environment()
        if here != recorded_environment:
            problems.append(
                f"the golden records were made with {recorded_environment}, "
                f"this run uses {here}: the digests belong to one numpy and BLAS"
            )
        pytest.fail(f"{name} seed {seed}, {threads} threads:\n" + "\n".join(problems))


def test_mismatch_names_the_file_and_its_change():
    expected = {
        "manifest": json.dumps({"artifacts": {"a.bin": "x"}, "results": {"r": 1.0}}),
        "files": {"a.bin": {"sha256": "x", "size": 10, "samples": [1.0, 2.0, 4.0]}},
        "stdout": {"evolve": '{"norm": 2.0}'},
    }
    actual = {
        "manifest": json.dumps({"artifacts": {"a.bin": "y"}, "results": {"r": 1.5}}),
        "files": {"a.bin": {"sha256": "y", "size": 10, "samples": [1.0, 2.5, 4.0]}},
        "stdout": {"evolve": '{"norm": 2.5}'},
    }
    problems = mismatches(expected, actual)
    assert problems == [
        "a.bin: SHA-256 differs; largest change over 3 sampled of 10 values: "
        "absolute 5.000e-01, relative 2.500e-01",
        "manifest results.r: 1.0 -> 1.5",
        "evolve stdout differs; largest change over 1 values: absolute 5.000e-01, "
        "relative 2.500e-01",
    ]
    assert mismatches(expected, expected) == []
