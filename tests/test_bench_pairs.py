"""The verdict of ``tools/bench_pairs.py`` on fixed pairs."""

import importlib.util
import os

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
