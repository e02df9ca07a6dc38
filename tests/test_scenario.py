"""Scenario parsing: any malformed document ends in ValidationError."""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semicoop import ValidationError, cli, pipeline
from semicoop.scenario import parse_scenario

SCENARIO = {
    "grid": {"time": [0, 1, 3], "sigma1": [0.5, 2.5, 9], "sigma2": [0, 1, 9]},
    "metric": {"preset": "constant", "matrix": [[1, 0, 0], [0, 2, 0], [0, 0, 1]]},
    "background": {"preset": "combined"},
    "gff": {"gamma": 1.0, "grid_size": 9},
    "sde": {"steps": 4, "paths": 64, "horizon": 1.0},
    "kernel": {"mass": 100.0, "normalization_samples": 12},
    "profit": {"preset": "rho_quadratic", "peak": 1.0, "curvature": 2.0, "vertex": 0.5},
    "evolve": {"packet_width": 0.2, "steps": 5},
    "action": {"ghost": True, "fp_det": False},
    "rho_grid": 32,
    "firms": [
        {
            "share": [0.3, 1.0, 0.5],
            "strategy": 0.2,
            "alpha_own": 0.5,
            "alpha_other": 0.5,
            "coop_own": 0.5,
            "coop_other": 0.5,
            "stubbornness": 1.5,
            "area": 2.0,
        }
    ],
    "polygon": {
        "indicator": 1,
        "positive_count": 1,
        "sides": [
            {"area": 1.5},
            {
                "radius": {"base": 1.0, "rate": 0.1},
                "curvature": {"kind": "sphere"},
                "theta": [0.1, 0.5],
                "rho": [0.0, {"base": 1.0}],
                "tau": [0.0, 0.3],
            },
            {
                "radius": 1.0,
                "curvature": {"value": 0.9},
                "theta": [0.1, 0.4],
                "rho": [0.0, 1.0],
                "tau": [0.0, 0.2],
            },
        ],
    },
    "fields": {
        "v": {"drift": [[[1.0, [0, 1, 0]]], [], []], "noise": {"fourier_seed": 3, "modes": 4}},
        "u": {"drift": [[], [[1.0, [1, 0, 0]]], []], "noise": [[[0.5, [2, 0, 0]]], [], []]},
        "spacing": 1e-4,
    },
}


def test_base_scenario_is_valid():
    config = parse_scenario(SCENARIO)
    config.build_polygon()
    config.build_fields()
    assert config.profit(0.2) == 1.0
    _, metric, _, curv = pipeline.world(config)
    rho = pipeline.cooperation(config, metric, curv)
    assert (rho["rho_star"], rho["reason"]) == (0.5, "vertex")


def replaced(path, value, doc=SCENARIO):
    doc = copy.deepcopy(doc)
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("sde", "steps"), "16", "sde.steps"),
        (("sde", "paths"), 2.5, "sde.paths"),
        (("firms",), [3], "firms[0]"),
        (("firms", 0, "strategy"), "0.2", "firms[0].strategy"),
        (("firms", 0, "share", 1), math.nan, "firms[0].share[1]"),
        (("kernel", "mass"), None, "kernel.mass"),
        (("evolve", "steps"), None, "evolve.steps"),
        (("grid", "time", 2), math.inf, "grid.time.count"),
        (("gff", "grid_size"), "9", "gff.grid_size"),
        (("metric", "matrix", 1), [0, 2], "metric.matrix[1]"),
        (("action", "ghost"), 1, "action.ghost"),
        (("polygon", "sides", 1, "theta"), 0.1, "polygon.sides[1].theta"),
        (("fields", "v", "drift", 0, 0), [1.0, "x"], "fields.v.drift[0][0]"),
    ],
)
def test_wrong_types_are_validation_errors(path, value, field):
    with pytest.raises(ValidationError) as exc:
        parse_scenario(replaced(path, value))
    assert any(field in problem for problem in exc.value.problems), exc.value.problems


def test_single_path_ensemble_rejected(tmp_path):
    """One path has no sample variance (ddof=1), so sde_summary.json
    would hold NaN; the scenario floor is two paths."""
    document = replaced(("sde", "paths"), 1)
    with pytest.raises(ValidationError) as exc:
        parse_scenario(document)
    assert any("sde.paths" in problem for problem in exc.value.problems), exc.value.problems
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document))
    for argv in (
        ["pipeline", "--scenario", str(path), "--out-dir", str(tmp_path / "out")],
        ["simulate-sde", "--scenario", str(path), "--out", str(tmp_path / "p.bin")],
    ):
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == cli.EXIT_VALIDATION
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


@pytest.mark.parametrize("document", [[SCENARIO], "scenario", 3, None])
def test_non_object_document_is_a_validation_error(document, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ValidationError, match="JSON object"):
        parse_scenario(str(path))
    if not isinstance(document, str):  # a string argument is a file path
        with pytest.raises(ValidationError, match="JSON object"):
            parse_scenario(document)


def test_unreadable_file_is_a_validation_error(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        parse_scenario(str(tmp_path))
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe{")
    with pytest.raises(ValidationError, match="well-formed"):
        parse_scenario(str(tmp_path / "bad.json"))


def paths(value, prefix=()):
    """Every key path into a JSON document, the document itself first."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from paths(child, prefix + (index,))


PATHS = list(paths(SCENARIO))

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)

mutations = st.tuples(
    st.sampled_from(PATHS),
    st.sampled_from(["replace", "delete", "add key"]),
    json_values,
    st.text(max_size=6),
)


def mutate(doc, mutation):
    path, action, value, key = mutation
    if not path:
        # a string would be read as a file path
        return value if action == "replace" and not isinstance(value, str) else doc
    target = doc
    for step in path[:-1]:
        if not isinstance(target, (dict, list)):
            return doc
        try:
            target = target[step]
        except (KeyError, IndexError, TypeError):
            return doc  # an earlier mutation removed the path
    last = path[-1]
    if isinstance(target, dict) and action == "add key":
        target[key] = value
    elif isinstance(target, dict) or (isinstance(target, list) and isinstance(last, int)):
        if last not in (target if isinstance(target, dict) else range(len(target))):
            return doc
        if action == "replace":
            target[last] = value
        else:
            del target[last]
    return doc


@given(st.lists(mutations, min_size=1, max_size=3))
@settings(max_examples=400, deadline=None)
@example([(("firms", 0, "strategy"), "replace", -(2**63) - 1, "")])  # beyond int64
def test_mutated_scenarios_raise_only_validation_errors(mutation_list):
    doc = copy.deepcopy(SCENARIO)
    for mutation in mutation_list:
        doc = mutate(doc, mutation)
    try:
        parse_scenario(doc)
    except ValidationError:
        pass


@pytest.mark.parametrize(
    "radius, time",
    [(0.0, 0.0), ({"base": 1.0, "rate": -0.5}, 2.0)],
    ids=["zero", "timed-to-zero"],
)
def test_sphere_side_of_zero_radius_is_a_validation_error(tmp_path, radius, time):
    # the radius is known only at the requested time, so parsing accepts it
    doc = replaced(("polygon", "sides", 1, "radius"), radius)
    config = parse_scenario(doc)
    with pytest.raises(ValidationError, match=r"polygon\.sides\[1\]\.radius"):
        config.build_polygon(time=time)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    argv = ["polygon-area", "--scenario", str(path), "--time", str(time)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_VALIDATION


@pytest.mark.parametrize("side", [1, 2], ids=["sphere-curvature", "given-curvature"])
def test_side_radius_whose_square_overflows_is_a_validation_error(tmp_path, side):
    # a float's ** raises OverflowError above about 1.3e154
    doc = replaced(("polygon", "sides", side, "radius"), 1e200)
    config = parse_scenario(doc)
    with pytest.raises(ValidationError, match=rf"polygon\.sides\[{side}\]\.radius .* overflows"):
        config.build_polygon()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(["polygon-area", "--scenario", str(path)]) == cli.EXIT_VALIDATION
    assert f"polygon.sides[{side}].radius" in err.getvalue()


def test_large_time_axis_is_accepted():
    # only the strategy axes' spacings are squared; a long time axis runs
    doc = replaced(("grid", "time"), [0, 1e300, 3])
    assert parse_scenario(doc).build_grid().extents[0] == (0, 1e300)
