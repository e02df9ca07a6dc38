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
    "gff": {"gamma": 1.0},
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
        # two ends that are one float
        (("grid", "time"), [2**53, 2**53 + 1, 3], "grid.time: start must be below stop"),
        (("metric", "matrix", 1), [0, 2], "metric.matrix[1]"),
        (("action", "ghost"), 1, "action.ghost"),
        (("polygon", "sides", 1, "theta"), 0.1, "polygon.sides[1].theta"),
        (("fields", "v", "drift", 0, 0), [1.0, "x"], "fields.v.drift[0][0]"),
        (("firms",), SCENARIO["firms"][0], "firms: expected a list of one firm"),
    ],
)
def test_wrong_types_are_validation_errors(path, value, field):
    with pytest.raises(ValidationError) as exc:
        parse_scenario(replaced(path, value))
    assert any(field in problem for problem in exc.value.problems), exc.value.problems


# with area 1.0 this firm's committed region is [0, 0.8**0.6] = [0, 0.87469]
FIRM = {
    "share": [0.4, 0.1, 0.2],
    "strategy": 0.2,
    "alpha_own": 0.8,
    "alpha_other": 0.5,
    "coop_own": 0.6,
    "coop_other": 0.5,
}


@pytest.mark.parametrize(
    "changes",
    [{}, {"area": 1.0, "strategy": 0.8}, {"area": None, "strategy": 5.0}],
    ids=["no-area", "inside-region", "null-area"],
)
def test_valid_firm_is_read_as_given(changes):
    """Only a given ``area`` bounds the strategy, and the firm's section
    comes back as written: no default is filled in."""
    firm = dict(FIRM, **changes)
    config = parse_scenario(replaced(("firms",), [firm]))
    assert config.firm == firm
    assert config.to_dict()["firms"] == [firm]


OUTSIDE = "firms[0].strategy {} lies outside the committed region [0, 0.87469]"


@pytest.mark.parametrize(
    "changes, problem",
    [
        ({"alpha_own": 1.2}, "firms[0].alpha_own must lie in [0,1]"),
        ({"coop_other": 0.0}, "firms[0].coop_other must lie in (0,1]"),
        ({"strategy": -(2**63) - 1}, OUTSIDE.format(-(2**63) - 1)),
        ({"strategy": 2**63}, OUTSIDE.format(2**63)),
        ({"strategy": 10**400}, "firms[0].strategy: expected a finite number"),
        ({"strategy": math.inf}, "firms[0].strategy: expected a finite number"),
        ({"strategy": 0.9}, OUTSIDE.format(0.9)),
    ],
    ids=["alpha-own", "coop-other", "below-int64", "above-int64", "beyond-float", "inf",
         "outside-region"],
)
def test_invalid_firm_is_a_validation_error(changes, problem):
    firm = dict(FIRM, area=1.0, **changes)
    with pytest.raises(ValidationError) as exc:
        parse_scenario(replaced(("firms",), [firm]))
    assert exc.value.problems == [problem]


CURVATURE = "polygon.sides[1].curvature"
CURVATURE_SHAPES = (
    'expected a number or one of {"kind": "sphere"}, {"value": v}, {"base": b, "rate": r}'
)


@pytest.mark.parametrize(
    "path, value, problem, command",
    [
        (("fields", "spacing"), 1e-4, "fields: unknown keys ['spacing']", "lie-bracket"),
        (("gff", "grid_size"), 9, "gff: unknown keys ['grid_size']", "pipeline"),
        (
            ("polygon", "sides", 1, "curvature"),
            {"kind": "sphere", "junk": 5},
            f'{CURVATURE}: {CURVATURE_SHAPES}; got {{"junk": 5, "kind": "sphere"}}',
            "polygon-area",
        ),
        (
            ("polygon", "sides", 1, "curvature"),
            {"value": 0.5, "junk": 1},
            f'{CURVATURE}: {CURVATURE_SHAPES}; got {{"junk": 1, "value": 0.5}}',
            "polygon-area",
        ),
        (
            ("polygon", "sides", 1, "curvature"),
            {"value": 0.5, "kind": "sphere"},
            f'{CURVATURE}: {CURVATURE_SHAPES}; got {{"kind": "sphere", "value": 0.5}}',
            "polygon-area",
        ),
        (
            ("polygon", "sides", 1, "curvature"),
            {"kind": "ellipsoid"},
            f'{CURVATURE}: {CURVATURE_SHAPES}; got {{"kind": "ellipsoid"}}',
            "polygon-area",
        ),
        (
            ("polygon", "sides", 1),
            {"area": 1.5, "radius": "x", "curvature": {"junk": 1}},
            "polygon.sides[1]: a precomputed area excludes ['radius', 'curvature']",
            "polygon-area",
        ),
    ],
    ids=["fields-spacing", "gff-grid-size", "sphere-junk", "value-junk", "value-and-sphere",
         "ellipsoid", "area-and-geometry"],
)
def test_invalid_section_is_one_problem(tmp_path, path, value, problem, command):
    """A key no reader takes, a curvature object of no known shape, or a
    side's geometry beside its precomputed area, is exactly one problem, and its subcommand exits 2
    with no traceback and writes nothing."""
    doc = replaced(path, value)
    with pytest.raises(ValidationError) as exc:
        parse_scenario(doc)
    assert exc.value.problems == [problem]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    argv = [command, "--scenario", str(scenario)]
    if command == "lie-bracket":
        argv += ["--point", "0.1,0.2,0.3"]
    if command == "pipeline":
        argv += ["--out-dir", str(tmp_path / "out")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(argv) == cli.EXIT_VALIDATION
    assert err.getvalue() == f"validation error: invalid scenario\n  - {problem}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]  # no manifest


@pytest.mark.parametrize(
    "curvature",
    [{"kind": "sphere"}, {"value": 0.9}, {"value": {"base": 0.9, "rate": 0.1}},
     {"base": 0.9, "rate": 0.1}, 0.9],
    ids=["sphere", "value", "timed-value", "timed", "number"],
)
def test_curvature_shapes_are_accepted(curvature):
    parse_scenario(replaced(("polygon", "sides", 1, "curvature"), curvature)).build_polygon()


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
