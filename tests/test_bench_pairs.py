"""The verdict of ``tools/bench_pairs.py`` on fixed pairs."""

import importlib.util
import json
import os
import types

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs",
    os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py"),
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

BEFORE = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.2]


def test_nine_wins_and_a_wide_gap_meet_the_rule():
    after = [b - 1.0 for b in BEFORE]
    after[3] = 10.5  # one pair lost
    result = verdict(BEFORE, after)
    assert result["wins"] == "9 of 10"
    assert result["before"] == {"median": 10.05, "q1": 10.0, "q3": 10.175}
    assert result["parent_iqr"] == 0.175
    assert result["median_gap"] == 1.0
    assert result["ratio_after_over_before"] == pytest.approx(9.05 / 10.05, abs=1e-4)
    assert result["met"]


def test_eight_wins_fail_the_rule():
    after = [b - 1.0 for b in BEFORE]
    after[3] = after[4] = 10.5
    result = verdict(BEFORE, after)
    assert result["wins"] == "8 of 10"
    assert not result["met"]


def test_a_gap_inside_the_parent_spread_fails_the_rule():
    # the change wins every pair, by less than the parent's quartiles span
    result = verdict(BEFORE, [b - 0.1 for b in BEFORE])
    assert result["wins"] == "10 of 10"
    assert result["median_gap"] == pytest.approx(0.1)
    assert result["parent_iqr"] == 0.175
    assert not result["met"]


def test_ties_are_not_wins():
    result = verdict(BEFORE, list(BEFORE))
    assert result["wins"] == "0 of 10"
    assert not result["met"]


def test_unequal_pairs_rejected():
    with pytest.raises(ValueError):
        verdict(BEFORE, BEFORE[:-1])


def fake_tool(monkeypatch, tmp_path):
    """``bench_pairs`` with ``prepare``, ``run_once`` and its two probes
    (``git rev-parse`` and the child's numpy version) stubbed, and three
    CPUs in the process's affinity mask.  Each
    side's copy is a directory that holds the side's name in a file
    ``side``.  Returns the list of ``(side, workload, seed)`` runs it makes
    and the list of the directories they ran in."""
    calls = []
    directories = []

    def run_once(directory, workload, seed, seconds, trace=0):
        with open(os.path.join(directory, "side")) as fh:
            side = fh.read()
        calls.append((side, workload, seed))
        directories.append(directory)
        value = 1.0 if side == "parent" else 0.9
        row = {"correct": True, "attempted": 5, "failed": 0}
        return dict(row, wall_s=value, setup_s=value, cpu_s=value, peak_rss_mb=40.0)

    def run(argv, **kwargs):
        return types.SimpleNamespace(stdout="abc1234\n" if argv[0] == "git" else "2.0.0\n")

    dirs = {side: str(tmp_path / side) for side in bench_pairs.SIDES}
    for side, directory in dirs.items():
        os.makedirs(directory)
        with open(os.path.join(directory, "side"), "w") as fh:
            fh.write(side)
    monkeypatch.setattr(bench_pairs, "prepare", lambda work, parent: dirs)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench_pairs.os, "sched_getaffinity", lambda pid: {0, 2, 5})
    return calls, directories


def test_without_a_claim_only_the_checks_run(monkeypatch, tmp_path):
    calls, _ = fake_tool(monkeypatch, tmp_path)
    out = tmp_path / "bench.json"
    bench_pairs.main(["--parent", "HEAD", "--change", "c", "--out", str(out),
                      "--check", "world_grid:1:3", "--work", str(tmp_path)])
    record = json.loads(out.read_text())
    assert record["claim"] is None and "rule" not in record
    assert not any(key.startswith("same_pairs_") for key in record)
    assert "PYTHONDONTWRITEBYTECODE 1" in record["machine"]
    # the CPUs the runs may use, not every CPU of the machine
    assert record["machine"].startswith("nproc 3, ")
    (check,) = record["no_regression_checks"]
    assert (check["workload"], check["seed"], check["pairs"]) == ("world_grid", 1, 3)
    assert check["wall_s"]["within_bound"] and check["wall_s"]["change_over_parent"] == 0.9
    # alternating pairs: the parent runs first in odd pairs, the change in even ones
    assert [side for side, _, _ in calls] == ["parent", "change", "change", "parent",
                                              "parent", "change"]
    assert [(r["pair"], r["first"]) for r in record["runs"][::2]] == [
        (1, "parent"), (2, "change"), (3, "parent")
    ]


def test_without_a_claim_a_check_is_required(monkeypatch, tmp_path):
    calls, _ = fake_tool(monkeypatch, tmp_path)
    with pytest.raises(SystemExit, match="at least one --check"):
        bench_pairs.main(["--parent", "HEAD", "--change", "c", "--out",
                          str(tmp_path / "bench.json"), "--work", str(tmp_path)])
    assert calls == [] and not (tmp_path / "bench.json").exists()


def test_both_sides_run_from_one_directory(monkeypatch, tmp_path):
    # peak_rss_mb depends on the length of the path a side runs from
    calls, directories = fake_tool(monkeypatch, tmp_path)
    bench_pairs.main(["--parent", "HEAD", "--change", "c", "--out", str(tmp_path / "bench.json"),
                      "--check", "world_grid:1:2", "--traced", "world_grid:1",
                      "--work", str(tmp_path)])
    # two pairs and one traced run a side, each side's copy in turn at one path
    assert sorted(side for side, _, _ in calls) == ["change"] * 3 + ["parent"] * 3
    assert directories == [str(tmp_path / "run")] * 6
    # each copy is back under its own name, and nothing is left at the run path
    for side in bench_pairs.SIDES:
        assert (tmp_path / side / "side").read_text() == side
    assert not (tmp_path / "run").exists()


def test_a_failed_run_puts_its_side_back(monkeypatch, tmp_path):
    fake_tool(monkeypatch, tmp_path)

    def failing(directory, workload, seed, seconds, trace=0):
        raise SystemExit(f"perfbench failed in {directory}")

    monkeypatch.setattr(bench_pairs, "run_once", failing)
    with pytest.raises(SystemExit, match="failed in .*run$"):
        bench_pairs.run_side(str(tmp_path / "change"), "world_grid", 1, 25.0)
    assert (tmp_path / "change" / "side").read_text() == "change"
    assert not (tmp_path / "run").exists()


def test_thread_overlap_and_load_balancing_are_reported(monkeypatch, tmp_path):
    fake_tool(monkeypatch, tmp_path)
    # (cpu_s - setup_s) / wall_s: 1.0, 0.5 and 0.9 for the parent's runs,
    # 2.0, 1.5 and 1.8 for the change's
    rows = {"parent": [(0.2, 0.3), (0.4, 0.3), (0.2, 0.28)],
            "change": [(0.1, 0.3), (0.2, 0.4), (0.1, 0.28)]}

    def run_once(directory, workload, seed, seconds, trace=0):
        with open(os.path.join(directory, "side")) as fh:
            side = fh.read()
        wall, cpu = rows[side].pop(0)
        return dict(correct=True, attempted=5, failed=0, wall_s=wall, setup_s=0.1, cpu_s=cpu,
                    peak_rss_mb=40.0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    (tmp_path / "cpuset").write_text("/batch\n")
    (tmp_path / "hierarchy" / "batch").mkdir(parents=True)
    (tmp_path / "hierarchy" / "batch" / "cpuset.sched_load_balance").write_text("0\n")
    monkeypatch.setattr(bench_pairs, "CPUSET", str(tmp_path / "cpuset"))
    monkeypatch.setattr(bench_pairs, "CPUSET_ROOT", str(tmp_path / "hierarchy"))
    out = tmp_path / "bench.json"
    bench_pairs.main(["--parent", "HEAD", "--change", "c", "--out", str(out),
                      "--claim", "world_grid:1:wall_s:3", "--work", str(tmp_path)])
    record = json.loads(out.read_text())
    assert "cpuset sched_load_balance 0; " in record["machine"]
    (check,) = record["no_regression_checks"]
    for entry in (record["claim"], check):
        assert entry["thread_overlap"] == {"parent": 0.9, "change": 1.8}
    # the root cpuset's file sits at the top of the hierarchy; no file, no value
    (tmp_path / "cpuset").write_text("/\n")
    (tmp_path / "hierarchy" / "cpuset.sched_load_balance").write_text("1\n")
    assert bench_pairs.sched_load_balance() == "1"
    monkeypatch.setattr(bench_pairs, "CPUSET_ROOT", str(tmp_path / "absent"))
    assert bench_pairs.sched_load_balance() == "unknown"
