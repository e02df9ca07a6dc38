"""The stage subcommands and ``semicoop pipeline`` share one implementation
per stage, so for one scenario and seed they must give the same numbers."""

import argparse
import ast
import contextlib
import inspect
import io
import json
import os
import struct
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicoop import ValidationError, cli, evolution, geometry, market, pipeline, stubbornness
from semicoop.fieldio import read_ensemble, read_grid, sha256_of, write_grid
from semicoop.grids import GridSpec
from semicoop.scenario import parse_scenario

SEED = 7

SCENARIO = {
    "grid": {"time": [0, 1, 3], "sigma1": [0.5, 2.5, 9], "sigma2": [0, 1, 9]},
    "metric": {"preset": "sphere"},
    "background": {"preset": "combined"},
    "action": {"ghost": True, "fp_det": True},
    "sde": {"steps": 4, "paths": 64, "horizon": 1.0},
    "evolve": {"steps": 5},
    "kernel": {"normalization_samples": 12},
    "firms": [
        {
            "share": [0.3, 1.0, 0.5],
            "strategy": 0.2,
            "alpha_own": 0.5,
            "alpha_other": 0.5,
            "coop_own": 0.5,
            "coop_other": 0.5,
        }
    ],
    "profit": {"preset": "region_power"},
}


def run_cli(*argv):
    """Exit code and parsed stdout of one ``semicoop`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def child_env():
    """The environment of a child Python process that imports this
    checkout's ``semicoop``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def write_scenario(path, scenario):
    path.write_text(json.dumps(scenario))
    return path


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("stages")
    scenario = write_scenario(root / "scenario.json", SCENARIO)
    pipeline_dir = root / "pipeline"
    code, manifest = run_cli(
        "pipeline", "--scenario", scenario, "--out-dir", pipeline_dir, "--seed", SEED
    )
    assert code == cli.EXIT_OK
    assert "failed_stage" not in manifest
    return root, scenario, pipeline_dir, manifest


def test_simulate_sde_writes_the_pipeline_ensemble(run):
    root, scenario, pipeline_dir, _ = run
    out = root / "sde.bin"
    code, _ = run_cli("simulate-sde", "--scenario", scenario, "--out", out, "--seed", SEED)
    assert code == cli.EXIT_OK
    assert out.read_bytes() == (pipeline_dir / "paths.bin").read_bytes()
    # the ensemble file is the only one either writes for it
    assert not list(root.glob("sde.bin?*")) and not list(pipeline_dir.glob("paths.bin?*"))


def test_action_honours_scenario_section(run):
    _, scenario, pipeline_dir, _ = run
    code, payload = run_cli("action", "--config", scenario)
    assert code == cli.EXIT_OK
    assert payload == json.loads((pipeline_dir / "action.json").read_text())
    assert payload["ghost"] is not None
    assert payload["fp_singular"] is False
    assert np.isfinite(payload["logdet_fp"])
    assert payload["fp_singular_node"] is None


@pytest.mark.parametrize("radius", [0.9, 1.1])
def test_fp_det_is_regular_on_the_stage_commands_grid(tmp_path, radius):
    # the benchmark's stage_commands grid and sphere metric file, at the ends
    # of its radius range; central differences made this operator singular
    axes = {"time": [0, 1, 5], "sigma1": [0.5, 2.5, 25], "sigma2": [0, 1, 25]}
    grid = GridSpec.from_axes(*(tuple(axes[k]) for k in ("time", "sigma1", "sigma2")))
    metric_path = tmp_path / "metric.bin"
    write_grid(metric_path, geometry.sphere_metric(grid, radius=radius).values, grid)
    scenario = dict(
        SCENARIO, grid=axes, metric={"file": str(metric_path)}, action={"ghost": True}
    )
    code, payload = run_cli(
        "action", "--config", write_scenario(tmp_path / "scenario.json", scenario), "--fp-det"
    )
    assert code == cli.EXIT_OK
    assert payload["fp_singular"] is False
    assert np.isfinite(payload["logdet_fp"])
    assert payload["fp_singular_node"] is None


def test_kernel_check_matches_manifest(run):
    _, scenario, _, manifest = run
    code, payload = run_cli("kernel-check", "--config", scenario, "--seed", SEED)
    assert code == cli.EXIT_OK
    expected = manifest["results"]["kernel_normalization_deviation"]
    assert payload["normalization_deviation"] == expected
    assert payload["variance"] == manifest["results"]["kernel_variance"]


def test_kernel_check_does_not_depend_on_the_seed(run):
    # the checks are closed forms of the kernel spec; --seed is accepted only
    _, scenario, _, _ = run
    outputs = []
    for seed in (1, 2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["kernel-check", "--config", str(scenario), "--seed", str(seed)]) == 0
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]


def test_manifest_reports_the_kernel_variance_not_a_sample_estimate(run):
    results = run[3]["results"]
    assert "kernel_correlation" not in results
    assert results["kernel_variance"] > 0.0


def test_evolve_matches_psi_bin(run):
    root, scenario, pipeline_dir, _ = run
    out = root / "psi.bin"
    code, _ = run_cli("evolve", "--config", scenario, "--out", out)
    assert code == cli.EXIT_OK
    values, grid = read_grid(out)
    expected, expected_grid = read_grid(pipeline_dir / "psi.bin")
    assert grid == expected_grid
    np.testing.assert_array_equal(values, expected)


def test_norms_are_the_weighted_norm_evolve_keeps(run):
    # the plain L2 drift of this run is about 4e-12; the sqrt|det h|
    # weighted one, which Crank-Nicolson keeps, is rounding
    root, scenario, pipeline_dir, manifest = run
    code, payload = run_cli("evolve", "--config", scenario, "--out", root / "psi_norm.bin")
    assert code == cli.EXIT_OK
    values, grid = read_grid(pipeline_dir / "psi.bin")
    weight = geometry.sphere_metric(grid).volume_density
    assert payload["norm"] == evolution.WaveFunction(values, grid).norm(weight)
    assert abs(payload["norm"] - 1.0) <= 1e-13
    assert manifest["results"]["norm_drift"] <= 1e-13


@pytest.mark.parametrize("radius", [0.93, 1.0, 1.1])
def test_initial_packet_has_unit_weighted_norm(radius):
    # sqrt|det h| = r^2 sin(theta) on the sphere slice, far from 1
    config = parse_scenario(dict(SCENARIO, metric={"preset": "sphere", "radius": radius}))
    spec = evolution.KernelSpec(mass=100.0, step=1e-3, effective_scale=1.0)
    slice_metric, psi0, psi = pipeline.evolve(config, config.build_metric(), spec)
    weight = slice_metric.volume_density
    assert abs(psi0.norm() - 1.0) > 1e-3
    assert abs(psi0.norm(weight) - 1.0) <= 1e-14
    assert abs(psi.norm(weight) - 1.0) <= 1e-13


def test_optimal_rho_matches_rho_json(run):
    _, scenario, pipeline_dir, _ = run
    code, payload = run_cli("optimal-rho", "--config", scenario)
    assert code == cli.EXIT_OK
    assert payload == json.loads((pipeline_dir / "rho.json").read_text())


def test_optimal_rho_reads_only_the_scenario(run, monkeypatch):
    # rho* is a property of F0(rho) alone: the search builds the world
    # volume and the bracket that F0 reads, and the kernel stage, the
    # evolution and the Laplacian stay out of it
    def refuse(*args, **kwargs):
        raise AssertionError("the rho search built a stage it does not need")

    for owner, name in [
        (pipeline, "kernel"),
        (pipeline, "evolve"),
        (geometry, "laplace_operator_matrix"),
        (evolution, "laplace_operator_matrix"),
    ]:
        monkeypatch.setattr(owner, name, refuse)
    _, scenario, pipeline_dir, _ = run
    code, payload = run_cli("optimal-rho", "--config", scenario)
    assert code == cli.EXIT_OK
    assert payload == json.loads((pipeline_dir / "rho.json").read_text())


def _exit_and_stderr(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _ = run_cli(*argv)
    return code, err.getvalue()


def test_non_finite_scale_in_the_rho_scan_is_a_numerical_error(tmp_path):
    # base + 0.5**rho < 0 near rho = 1, where the weight p*b = -0.1 has no
    # fractional power; the search evaluates RHO_MIN, then 1
    firm = dict(SCENARIO["firms"][0], strategy=0.9)
    scenario = dict(
        SCENARIO, firms=[firm], profit={"preset": "region_power", "base": -0.6, "exponent": 1}
    )
    path = write_scenario(tmp_path / "scenario.json", scenario)
    code, err = _exit_and_stderr("optimal-rho", "--config", path)
    assert code == cli.EXIT_NUMERICAL
    message = "profit weight must be positive for fractional exponents; value -0.1 at rho = 1.0"
    assert message + "\n" in err

    out = tmp_path / "out"
    code, _ = _exit_and_stderr("pipeline", "--scenario", path, "--out-dir", out)
    assert code == cli.EXIT_NUMERICAL
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed_stage"] == "cooperation"
    assert manifest["failure"] == message
    assert "rho.json" not in manifest["artifacts"]


@pytest.mark.parametrize(
    "firm, exponent, command, stage, message",
    [
        # a fractional power of a negative region is complex
        ({"strategy": -0.5}, 0.5, "action", "action", "profit at u_own = -0.5 is "),
        ({"strategy": 0.0}, -1, "action", "action", "profit at u_own = 0 fails: "),
        ({"strategy": 1e200}, 2, "action", "action", "profit at u_own = 1e+200 fails: "),
        # alpha_own 0 commits no region at any cooperation degree
        ({"alpha_own": 0.0}, -1, "optimal-rho", "cooperation", "profit at u_own = 0 fails: "),
    ],
    ids=["complex", "zero-division", "overflow", "no-region"],
)
def test_failed_profit_arithmetic_is_a_numerical_error(tmp_path, firm, exponent, command, stage,
                                                       message):
    scenario = dict(
        SCENARIO,
        firms=[dict(SCENARIO["firms"][0], **firm)],
        profit={"preset": "region_power", "exponent": exponent},
    )
    path = write_scenario(tmp_path / "scenario.json", scenario)
    code, err = _exit_and_stderr(command, "--config", path)
    assert code == cli.EXIT_NUMERICAL
    assert message in err

    out = tmp_path / "out"
    code, _ = _exit_and_stderr("pipeline", "--scenario", path, "--out-dir", out)
    assert code == cli.EXIT_NUMERICAL
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed_stage"] == stage
    assert message in manifest["failure"]


@pytest.mark.parametrize(
    "changes, message, stage",
    [
        # F0 = inf: the constant profit times a stubbornness of 10 overflows;
        # the pipeline's action of that bracket is inf as well, which
        # action.json cannot hold, so its action stage fails first
        (
            {
                "firms": [dict(SCENARIO["firms"][0], stubbornness=10)],
                "profit": {"preset": "constant", "value": 1e308},
            },
            "effective scale on the initial time plane is inf",
            "action",
        ),
        # F0 is finite, the covariance (step / mass) F0 hinv is not
        ({"kernel": dict(SCENARIO["kernel"], mass=1e-300, step=1e300)}, "overflows", "kernel"),
    ],
    ids=["scale", "covariance"],
)
def test_non_finite_kernel_is_a_numerical_error(tmp_path, changes, message, stage):
    path = write_scenario(tmp_path / "scenario.json", dict(SCENARIO, **changes))
    code, err = _exit_and_stderr("kernel-check", "--config", path, "--seed", SEED)
    assert code == cli.EXIT_NUMERICAL
    assert message in err

    out = tmp_path / "out"
    code, _ = _exit_and_stderr("pipeline", "--scenario", path, "--out-dir", out)
    assert code == cli.EXIT_NUMERICAL
    assert json.loads((out / "manifest.json").read_text())["failed_stage"] == stage


def test_gff_sample_draws_the_pipeline_field(run):
    root, _, pipeline_dir, _ = run
    out = root / "gff.bin"
    code, _ = run_cli("gff-sample", "--size", 9, "--gamma", 1, "--out", out, "--seed", SEED)
    assert code == cli.EXIT_OK
    values, grid = read_grid(out)
    expected, expected_grid = read_grid(pipeline_dir / "gff.bin")
    assert np.array_equal(values, expected)
    # the sampler's own unit square, not the scenario's strategy plane
    assert grid == expected_grid == GridSpec.from_axes((0.0, 1.0, 9), (0.0, 1.0, 9))


def test_manifest_independent_of_threads(tmp_path):
    # two path chunks, so that the default (every usable CPU) may run both
    scenario = dict(SCENARIO, sde={"steps": 3, "paths": market._CHUNK_SIZE + 500, "horizon": 1.0})
    path = write_scenario(tmp_path / "scenario.json", scenario)
    manifests = []
    for i, threads in enumerate(([], ["--threads", 1], ["--threads", 2])):
        out = tmp_path / f"run{i}"
        code, _ = run_cli(
            "pipeline", "--scenario", path, "--out-dir", out, "--seed", SEED, *threads
        )
        assert code == cli.EXIT_OK
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[1] == manifests[0] == manifests[2]


def test_simulate_sde_default_threads_match_one_thread(tmp_path):
    scenario = dict(SCENARIO, sde={"steps": 3, "paths": market._CHUNK_SIZE + 500, "horizon": 1.0})
    path = write_scenario(tmp_path / "scenario.json", scenario)
    out = tmp_path / "sde_paths.bin"
    results = []
    for threads in ([], ["--threads", 1]):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(
                [str(a) for a in ("simulate-sde", "--scenario", path, "--out", out,
                                  "--seed", SEED, *threads)]
            )
        assert code == cli.EXIT_OK
        results.append((sha256_of(out), stdout.getvalue()))
    assert results[0] == results[1]


def test_manifest_digests_are_the_files_digests(tmp_path):
    path = write_scenario(tmp_path / "scenario.json", SCENARIO)
    out = tmp_path / "out"
    code, manifest = run_cli(
        "pipeline", "--scenario", path, "--out-dir", out, "--seed", SEED, "--format", "csv"
    )
    assert code == cli.EXIT_OK
    assert {"paths.bin", "paths.csv", "sde_summary.json", "rho.json"} <= set(manifest["artifacts"])
    for name, digest in manifest["artifacts"].items():
        assert sha256_of(out / name) == digest, name
    # the CSV holds every (path, step) of the ensemble, exactly
    times, values = read_ensemble(out / "paths.bin")
    rows = np.loadtxt(out / "paths.csv", delimiter=",", skiprows=1)
    paths, points, _ = values.shape
    assert np.array_equal(rows[:, 0], np.repeat(np.arange(paths), points))
    assert np.array_equal(rows[:, 1], np.tile(np.arange(points), paths))
    assert np.array_equal(rows[:, 2], np.tile(times, paths))
    assert np.array_equal(rows[:, 3:], values.reshape(-1, 3))


@pytest.fixture
def poisoned_drift(monkeypatch):
    """Drift tables that are NaN at every node but the one nearest the
    firm's start, so the simulation fails its table check before step 0,
    after the ensemble file was created."""
    derive = market.derive_coefficients

    def poisoned(metric):
        coeffs = derive(metric)
        grid = coeffs.grid
        share = SCENARIO["firms"][0]["share"]
        start = tuple(
            int(round((x - lo) / grid.spacing(k)))
            for k, (x, (lo, _)) in enumerate(zip(share, grid.extents))
        )
        kept = coeffs.drift_table[start].copy()
        coeffs.drift_table = np.full_like(coeffs.drift_table, np.nan)
        coeffs.drift_table[start] = kept
        return coeffs

    monkeypatch.setattr(market, "derive_coefficients", poisoned)


@pytest.fixture
def geometry_calls(monkeypatch):
    """The metrics that ``geometry.christoffel`` and ``geometry.curvature``
    are called on, by function name."""
    calls = {"christoffel": [], "curvature": []}
    for name, metrics in calls.items():

        def counted(metric, original=getattr(geometry, name), metrics=metrics):
            metrics.append(metric)
            return original(metric)

        monkeypatch.setattr(geometry, name, counted)
    return calls


@pytest.mark.parametrize(
    "command, counts",
    [(["pipeline", "--out-dir", "out"], (1, 1)), (["simulate-sde", "--out", "paths.bin"], (1, 0))],
    ids=["pipeline", "simulate-sde"],
)
def test_a_command_forms_the_connection_and_curvature_at_most_once(
    tmp_path, geometry_calls, command, counts
):
    # each only on the world metric: neither the evolution slice nor the
    # combined metric forms a connection, and the share SDE reads no curvature
    name, flag, out = command
    path = write_scenario(tmp_path / "scenario.json", SCENARIO)
    code, _ = run_cli(name, "--scenario", path, flag, tmp_path / out, "--seed", SEED)
    assert code == cli.EXIT_OK
    assert tuple(len(metrics) for metrics in geometry_calls.values()) == counts
    world = parse_scenario(SCENARIO).build_metric()
    for metric in geometry_calls["christoffel"] + geometry_calls["curvature"]:
        assert metric is geometry_calls["christoffel"][0]
        assert metric.grid == world.grid and np.array_equal(metric.values, world.values)


def test_a_sigma1_count_too_small_for_the_stubbornness_field_names_its_key(tmp_path):
    grid = dict(SCENARIO["grid"], sigma1=[0.5, 2.5, 3])
    path = write_scenario(tmp_path / "scenario.json", dict(SCENARIO, grid=grid))
    out = tmp_path / "out"
    code, err = _exit_and_stderr("pipeline", "--scenario", path, "--out-dir", out)
    assert code == cli.EXIT_VALIDATION
    assert "grid.sigma1 has 3 nodes" in err
    assert json.loads((out / "manifest.json").read_text())["failed_stage"] == "stubbornness"


def test_failed_simulation_leaves_no_ensemble(tmp_path, poisoned_drift):
    scenario = dict(SCENARIO, sde={"steps": 3, "paths": market._CHUNK_SIZE + 500, "horizon": 1.0})
    path = write_scenario(tmp_path / "scenario.json", scenario)
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli(
            "pipeline", "--scenario", path, "--out-dir", out, "--seed", SEED, "--threads", 2
        )
    assert code == cli.EXIT_NUMERICAL
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed_stage"] == "sde"
    assert manifest["failure"] == "non-finite coefficients at node (0, 0, 0)"
    assert "paths.bin" not in manifest["artifacts"]
    assert not [p.name for p in out.iterdir() if p.name.startswith("paths")]

    sde_out = tmp_path / "sde" / "p.bin"
    sde_out.parent.mkdir()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli("simulate-sde", "--scenario", path, "--out", sde_out, "--seed", SEED)
    assert code == cli.EXIT_NUMERICAL
    assert list(sde_out.parent.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["pipeline", "--scenario", "{scenario}", "--out-dir", "{dir}"],
        ["simulate-sde", "--scenario", "{scenario}", "--out", "{dir}/p.bin"],
        ["action", "--config", "{scenario}"],
        ["evolve", "--config", "{scenario}", "--out", "{dir}/psi.bin"],
        ["optimal-rho", "--config", "{scenario}"],
    ],
    ids=lambda argv: argv[0],
)
def test_malformed_scenario_exits_with_validation_code(tmp_path, argv):
    bad = dict(SCENARIO, grid={"time": [0, 1, 2], "sigma1": [0.5, 2.5, 9], "sigma2": [0, 1, 9]})
    path = write_scenario(tmp_path / "bad.json", bad)
    argv = [a.format(scenario=path, dir=tmp_path) for a in argv]
    with contextlib.redirect_stderr(io.StringIO()):
        code, _ = run_cli(*argv)
    assert code == cli.EXIT_VALIDATION


@pytest.mark.parametrize(
    "firms, problem",
    [
        ([SCENARIO["firms"][0]] * 2, "only one firm is modelled"),
        ([], "only one firm is modelled"),
        (
            [dict(SCENARIO["firms"][0], area=1.0, strategy=0.9)],
            "firms[0].strategy 0.9 lies outside the committed region [0, 0.707107]",
        ),
    ],
    ids=["two-firms", "no-firm", "outside-region"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["pipeline", "--scenario", "{scenario}", "--out-dir", "{dir}/run"],
        ["optimal-rho", "--config", "{scenario}"],
    ],
    ids=lambda argv: argv[0],
)
def test_firm_the_model_cannot_take_exits_with_validation_code(tmp_path, firms, problem, argv):
    """The package models one firm, whose strategy lies in its committed
    region ``alpha_own**coop_own * area``; anything else exits 2 before a
    stage runs, so the pipeline writes no manifest."""
    path = write_scenario(tmp_path / "scenario.json", dict(SCENARIO, firms=firms))
    code, err = _exit_and_stderr(*[a.format(scenario=path, dir=tmp_path) for a in argv])
    assert code == cli.EXIT_VALIDATION
    assert problem in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-sde", "--scenario", "{scenario}", "--out", "{dir}/p.bin", "--threads", "0"],
        ["pipeline", "--scenario", "{scenario}", "--out-dir", "{dir}/run", "--threads", "-1"],
    ],
    ids=lambda argv: argv[0],
)
def test_thread_count_below_one_exits_with_validation_code(tmp_path, argv):
    path = write_scenario(tmp_path / "scenario.json", SCENARIO)
    argv = [a.format(scenario=path, dir=tmp_path) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli(*argv)
    assert code == cli.EXIT_VALIDATION
    assert "thread count must be at least 1" in err.getvalue()
    assert not list(tmp_path.glob("**/p*.bin"))


def test_metric_file_off_the_scenario_grid_is_rejected(tmp_path):
    grid = GridSpec.from_axes((0, 1, 3), (0.5, 3.0, 9), (0, 1, 9))
    metric_path = tmp_path / "metric.bin"
    write_grid(metric_path, geometry.sphere_metric(grid).values, grid)
    path = write_scenario(
        tmp_path / "scenario.json", dict(SCENARIO, metric={"file": str(metric_path)})
    )
    with contextlib.redirect_stderr(io.StringIO()):
        code, _ = run_cli("action", "--config", path)
    assert code == cli.EXIT_VALIDATION


def test_metric_file_that_is_a_directory_fails_the_geometry_stage(tmp_path):
    metric_dir = tmp_path / "metric.bin"
    metric_dir.mkdir()
    path = write_scenario(
        tmp_path / "scenario.json", dict(SCENARIO, metric={"file": str(metric_dir)})
    )
    out_dir = tmp_path / "out"
    code, err = _exit_and_stderr("pipeline", "--scenario", path, "--out-dir", out_dir)
    assert code == cli.EXIT_VALIDATION
    assert "cannot read metric file" in err
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["failed_stage"] == "geometry"
    assert manifest["config_digest"] is None and manifest["artifacts"] == {}
    code, err = _exit_and_stderr("action", "--config", path)
    assert code == cli.EXIT_VALIDATION
    assert "cannot read grid file" in err


def test_config_digest_follows_the_metric_file_contents(tmp_path):
    grid = GridSpec.from_axes(*(tuple(SCENARIO["grid"][k]) for k in ("time", "sigma1", "sigma2")))

    def digest(path):
        config = parse_scenario(dict(SCENARIO, metric={"file": str(path)}))
        return pipeline._config_digest(config, SEED)

    paths = [tmp_path / "a" / "metric.bin", tmp_path / "b" / "metric.bin"]
    for path in paths:
        path.parent.mkdir()
        write_grid(path, geometry.sphere_metric(grid).values, grid)
    reference = digest(paths[0])
    assert digest(paths[1]) == reference
    write_grid(paths[1], geometry.sphere_metric(grid, radius=1.1).values, grid)
    assert digest(paths[1]) != reference
    # the grid in the header counts too: the same values on other extents
    other = GridSpec(((0.0, 2.0),) + grid.extents[1:], grid.counts)
    write_grid(paths[1], geometry.sphere_metric(grid).values, other)
    assert digest(paths[1]) != reference
    write_grid(paths[1], geometry.sphere_metric(grid).values, grid)
    assert digest(paths[1]) == reference


LIE_FIELDS = {
    "v": {"drift": [[[1.0, [0, 1, 0]]], [], []]},
    "u": {"drift": [[], [[1.0, [1, 0, 0]]], []]},
}


@pytest.mark.parametrize(
    "flags",
    [
        ["--point", "a,b,c"],
        ["--point", "0.1,0.2"],
        ["--point", "nan,0.2,0.3"],
    ],
    ids=["not-numbers", "two-coordinates", "nan-point"],
)
def test_malformed_lie_bracket_input_exits_with_validation_code(tmp_path, flags):
    path = write_scenario(tmp_path / "scenario.json", dict(SCENARIO, fields=LIE_FIELDS))
    code, err = _exit_and_stderr("lie-bracket", "--scenario", path, *flags)
    assert code == cli.EXIT_VALIDATION, err
    code, payload = run_cli("lie-bracket", "--scenario", path, "--point", "0.1,0.2,0.3")
    assert code == cli.EXIT_OK
    # [V, U] = J_U v - J_V u = (0, y1, 0) - (y0, 0, 0) for V = (y1, 0, 0), U = (0, y0, 0);
    # the Jacobians are exact, so the bracket is too
    assert payload["bracket"] == [-0.1, 0.2, 0.0]


@pytest.mark.parametrize(
    "fields, message",
    [
        # J_U v and J_V u are both 1e200 * 1e200: inf - inf in drift-drift
        (
            {
                "v": {"drift": [[[1e200, [0, 1, 0]]], [], []]},
                "u": {"drift": [[], [[1e200, [1, 0, 0]]], []]},
            },
            "non-finite commutator term 'drift-drift'",
        ),
        # drift-drift and noise-drift are each 1e308 in y0, their sum is not
        (
            {
                "v": {"drift": [[[1e154, [0, 0, 0]]], [], []],
                      "noise": [[[1e154, [0, 0, 0]]], [], []]},
                "u": {"drift": [[[1e154, [1, 0, 0]]], [], []]},
            },
            "the printed result would hold a non-finite number",
        ),
    ],
    ids=["term", "sum"],
)
def test_overflowing_lie_bracket_exits_with_numerical_code(tmp_path, fields, message):
    path = write_scenario(tmp_path / "scenario.json", dict(SCENARIO, fields=fields))
    code, err = _exit_and_stderr("lie-bracket", "--scenario", path, "--point", "1,1,1")
    assert code == cli.EXIT_NUMERICAL, err
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-sde", "--scenario", "s.json", "--out", "p.bin", "--paths", "5"],
        ["simulate-sde", "--scenario", "s.json", "--out", "p.bin", "--steps", "3"],
        ["simulate-sde", "--scenario", "s.json", "--out", "p.bin", "--csv"],
        ["evolve", "--config", "s.json", "--out", "psi.bin", "--steps", "3"],
        ["optimal-rho", "--config", "s.json", "--grid", "32"],
        ["--seed", "5", "pipeline", "--scenario", "s.json"],
        ["cascade", "--kappa", "1", "--theta", "2", "--threads", "2"],
        ["evolve", "--config", "s.json", "--out", "psi.bin", "--seed", "5"],
        ["action", "--config", "s.json", "--out-dir", "out"],
        ["kernel-check", "--config", "s.json", "--format", "csv"],
        ["lie-bracket", "--scenario", "s.json", "--point", "0.1,0.2,0.3", "--spacing", "1e-4"],
    ],
    ids=[
        "sde-paths", "sde-steps", "sde-csv", "evolve-steps", "rho-grid",
        "top-level-seed", "cascade-threads", "evolve-seed", "action-out-dir",
        "kernel-format", "lie-bracket-spacing",
    ],
)
def test_removed_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, flag, value, expected",
    [
        ("gff-sample", "--seed", "5", 5),
        ("simulate-sde", "--seed", "5", 5),
        ("simulate-sde", "--threads", "3", 3),
        ("simulate-sde", "--format", "csv", "csv"),
        ("kernel-check", "--seed", "5", 5),
        ("pipeline", "--seed", "5", 5),
        ("pipeline", "--threads", "3", 3),
        ("pipeline", "--format", "csv", "csv"),
        ("pipeline", "--out-dir", "out", "out"),
    ],
)
def test_shared_flags_reach_their_subcommand(command, flag, value, expected):
    """Each of the settable shared flags is declared on the subcommand
    whose handler reads it, after the subcommand name."""
    required = {
        "gff-sample": ["--size", "16", "--gamma", "1", "--out", "f.bin"],
        "simulate-sde": ["--scenario", "s.json", "--out", "p.bin"],
        "kernel-check": ["--config", "s.json"],
        "pipeline": ["--scenario", "s.json"],
    }[command]
    args = cli.build_parser().parse_args([command, *required, flag, value])
    assert getattr(args, flag[2:].replace("-", "_")) == expected


# flags that no handler reads, each with the reason it stays
UNREAD_FLAGS = {
    ("kernel-check", "seed"): "the benchmark's kernel-check commands pass it; the "
    "kernel's checks are closed forms and draw nothing",
}


def args_read(function):
    """The names ``<name>`` that ``function`` reads as ``args.<name>``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }


def test_every_flag_is_read_by_its_handler():
    """Each flag of each subcommand is read as ``args.<dest>`` by the
    subcommand's handler or by ``main``, so no flag is accepted and then
    ignored; ``UNREAD_FLAGS`` holds the only exceptions."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(cli._COMMANDS)
    in_main = args_read(cli.main)
    unread = set()
    for command, sub in commands.choices.items():
        read = in_main | args_read(cli._COMMANDS[command])
        unread |= {
            (command, action.dest)
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction) and action.dest not in read
        }
    assert unread == set(UNREAD_FLAGS)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-sde", "--scenario", "s.json", "--out", "p.bin"],
        ["pipeline", "--scenario", "s.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_threads_default_to_the_usable_cpus(argv):
    """With no ``--threads``, the subcommands that simulate the share SDE
    run it on every CPU this process may run on."""
    assert cli.build_parser().parse_args(argv).threads == len(os.sched_getaffinity(0))


@pytest.mark.parametrize(
    "key, value",
    [
        ("normalization_samples", 0),
        ("normalization_samples", -1),
        ("normalization_samples", "x"),
        ("normalization_samples", None),
        ("normalization_samples", 2.5),
        ("normalization_samples", True),
        ("correlation_samples", 1),
        ("correlation_samples", 0),
        ("correlation_samples", "x"),
        ("correlation_samples", None),
        ("correlation_samples", 2.5),
        ("correlation_samples", 200000),
        ("multiplier", 0.0),
    ],
)
def test_kernel_sample_counts_are_validated(tmp_path, key, value):
    """``normalization_samples`` is range-checked.  ``correlation_samples``
    and ``multiplier`` are read by nothing and are not keys, so any value
    of theirs, their old defaults too, is an unknown key.  Either way the
    problem names the key and ``kernel-check`` exits 2."""
    bad = dict(SCENARIO, kernel=dict(SCENARIO["kernel"], **{key: value}))
    with pytest.raises(ValidationError) as exc:
        parse_scenario(bad)
    assert any(key in problem for problem in exc.value.problems)
    if key != "normalization_samples":
        assert exc.value.problems == [f"kernel: unknown keys ['{key}']"]
    path = write_scenario(tmp_path / "bad.json", bad)
    code, err = _exit_and_stderr("kernel-check", "--config", path)
    assert code == cli.EXIT_VALIDATION
    assert key in err


def test_benchmark_commands_parse():
    """Every command of the benchmark design parses, with its shared flags
    reaching the subcommand, so a flag change cannot fail samples."""
    with open(Path(__file__).resolve().parents[1] / "perfbench" / "design.json") as fh:
        design = json.load(fh)
    fields = {"scenario": "s.json", "metric": "m.bin", "out": "out", "seed": "5"}
    parser = cli.build_parser()
    commands = [cmd for w in design["workloads"].values() for cmd in w["commands"]]
    assert commands
    for cmd in commands:
        argv = [arg.format(**fields) for arg in cmd]
        args = parser.parse_args(argv)
        assert args.command in cli._COMMANDS
        if "--seed" in argv:
            assert args.seed == 5
        if "--threads" in argv:
            assert args.threads == int(argv[argv.index("--threads") + 1])


def test_main_calls_in_one_process_match_fresh_processes(tmp_path):
    """The parser is built once per process, and a second ``main`` call
    in the process prints and exits as a fresh process does."""
    assert cli.build_parser() is cli.build_parser()
    scenario = write_scenario(tmp_path / "scenario.json", SCENARIO)
    bad = write_scenario(tmp_path / "bad.json", dict(SCENARIO, rho_grid=1))
    argvs = [
        ["optimal-rho", "--config", str(scenario)],
        ["cascade", "--kappa", "0.5", "--theta", "3"],
        ["optimal-rho", "--config", str(bad)],
        ["kernel-check", "--config", str(scenario)],
        ["optimal-rho", "--config", str(scenario)],
    ]
    in_process = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        in_process.append((code, out.getvalue()))
    env = child_env()
    fresh = []
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "semicoop.cli", *argv],
            capture_output=True, text=True, env=env, timeout=300,
        )
        fresh.append((proc.returncode, proc.stdout))
    assert in_process == fresh
    assert [code for code, _ in fresh] == [0, 0, cli.EXIT_VALIDATION, 0, 0]


# runs one CLI command given as arguments, then prints its exit code and
# the process's peak resident memory in KiB
_PEAK_PROBE = """
import contextlib, io, sys
import semicoop.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = next(line for line in fh if line.startswith("VmHWM:"))
print(code, peak.split()[1])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_simulate_sde_peak_memory_does_not_grow_with_paths(tmp_path):
    """The ensemble is streamed into its file, not mapped, so eight times
    the paths (a 90 MiB larger file) leave the peak resident memory of a
    ``simulate-sde`` process within 16 MiB."""
    env = child_env()
    peaks = []
    for paths in (8192, 65536):
        sde = {"steps": 64, "paths": paths, "horizon": 1.0}
        scenario = write_scenario(tmp_path / "scenario.json", dict(SCENARIO, sde=sde))
        out = tmp_path / "p.bin"
        argv = ["simulate-sde", "--scenario", scenario, "--out", out, "--seed", SEED]
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_PROBE, *map(str, argv)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        code, kib = proc.stdout.split()
        assert code == "0" and out.stat().st_size > 8 * paths * 65 * 3
        peaks.append(int(kib) / 1024)
        out.unlink()
    assert peaks[1] - peaks[0] < 16, peaks


# imports the CLI, runs the commands given as JSON, then prints every loaded
# module and the ones first loaded by the commands
_IMPORT_PROBE = """
import contextlib, io, json, sys
import semicoop.cli as cli
before = set(sys.modules)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited with {code}")
print(json.dumps({"loaded": sorted(sys.modules), "new": sorted(set(sys.modules) - before)}))
"""


def test_benchmark_stage_commands_load_no_scipy(tmp_path):
    """Every command of the ``stage_commands`` benchmark runs on numpy alone
    (scipy pulls in ``numpy.f2py`` and ``numpy.testing``) and without
    ``numpy.polynomial``, which the closed-form patch area does not need.
    The numpy submodules numpy loads on first attribute access that the
    package uses (``random``, ``fft``) are imported with the package, not
    first inside a command, where their import time would count as run
    time."""
    with open(Path(__file__).resolve().parents[1] / "perfbench" / "design.json") as fh:
        commands = json.load(fh)["workloads"]["stage_commands"]["commands"]
    grid = GridSpec.from_axes(*(tuple(SCENARIO["grid"][k]) for k in ("time", "sigma1", "sigma2")))
    metric = tmp_path / "metric.bin"
    write_grid(metric, geometry.sphere_metric(grid).values, grid)
    scenario = dict(SCENARIO, metric={"file": str(metric)})
    scenario = write_scenario(tmp_path / "scenario.json", scenario)
    fields = {"scenario": scenario, "metric": metric, "out": tmp_path, "seed": SEED}
    argvs = [[arg.format(**fields) for arg in cmd] for cmd in commands]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, env=child_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    heavy = ("scipy", "numpy.f2py", "numpy.testing", "numpy.polynomial")
    assert [m for m in modules["loaded"] if m.startswith(heavy)] == []
    assert [m for m in modules["new"] if m.split(".")[0] == "numpy"] == []


def test_cli_import_leaves_thread_pool_and_cascade_unloaded(tmp_path):
    """No command needs ``concurrent.futures`` (which loads ``logging``
    and ``queue``), not even a threaded ``simulate-sde``; only
    ``cascade`` needs ``profitops`` and only ``lie-bracket`` needs
    ``vectorfields``; none loads with the CLI."""
    scenario = dict(SCENARIO, sde=dict(SCENARIO["sde"], paths=4097))
    scenario = write_scenario(tmp_path / "scenario.json", scenario)
    simulate = ["simulate-sde", "--scenario", str(scenario), "--out", str(tmp_path / "p.bin"),
                "--threads", "2"]
    for argvs in ([], [simulate]):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
            capture_output=True, text=True, env=child_env(), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)["loaded"]
        assert "concurrent.futures" not in loaded
    assert "semicoop.profitops" not in loaded
    assert "semicoop.vectorfields" not in loaded


@pytest.mark.parametrize("kappa", ["1e-160", "1e-200", "1e-310"])
def test_cascade_overflow_at_tiny_kappa_is_a_numerical_error(kappa):
    code, err = _exit_and_stderr("cascade", "--kappa", kappa, "--theta", "3")
    assert code == cli.EXIT_NUMERICAL
    assert f"kappa = {kappa}" in err


@pytest.mark.parametrize("kappa", ["inf", "-inf", "nan"])
def test_non_finite_kappa_exits_with_validation_code(kappa):
    # inf once reached the cascade sum as inf * 0 and exited 3
    code, err = _exit_and_stderr("cascade", f"--kappa={kappa}", "--theta", "3")
    assert code == cli.EXIT_VALIDATION
    assert "kappa must be finite" in err and "positive" not in err


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-323.0, 308.0),
    st.integers(1, 10**400),
    st.integers(1, 10**6),
)
def test_cascade_output_is_finite_or_a_numerical_error(log_kappa, theta, m):
    kappa = 10.0**log_kappa
    if not kappa > 0.0:
        return
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["cascade", "--kappa", repr(kappa), "--theta", str(theta), "--m", str(m)])
    assert code in (cli.EXIT_OK, cli.EXIT_NUMERICAL)
    if code == cli.EXIT_OK:
        payload = json.loads(out.getvalue())
        assert all(np.isfinite(payload[k]) for k in ("sum", "limit", "derivative"))


def _corrupt(data, mutation):
    kind, where, payload = mutation
    where %= len(data)
    if kind == "truncate":
        return data[:where]
    if kind == "extend":
        return data + payload
    flipped = bytearray(data)
    flipped[where] ^= payload[0] or 0xFF
    return bytes(flipped)


# header bytes (magic, flags, support, counts, shape, extents) are 0:112 of
# a 3-axis rank-2 file
_positions = st.one_of(st.integers(0, 111), st.integers(0, 2**20))
_mutations = st.tuples(
    st.sampled_from(["truncate", "extend", "flip", "flip"]),
    _positions,
    st.binary(min_size=1, max_size=16),
)


@pytest.fixture(scope="module")
def metric_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    grid = GridSpec.from_axes(*(tuple(SCENARIO["grid"][k]) for k in ("time", "sigma1", "sigma2")))
    path = root / "metric.bin"
    write_grid(path, geometry.sphere_metric(grid).values, grid)
    scenario = write_scenario(root / "scenario.json", dict(SCENARIO, metric={"file": str(path)}))
    return root, path, scenario


@settings(max_examples=150, deadline=None)
@given(st.lists(_mutations, min_size=1, max_size=3))
def test_corrupted_metric_file_ends_in_an_exit_code(metric_file, mutations):
    """``geometry`` and ``action`` on a truncated, extended or byte-flipped
    metric file end in exit 0, 2 or 3, never in a traceback."""
    root, path, scenario = metric_file
    pristine = path.read_bytes()
    data = pristine
    for mutation in mutations:
        data = _corrupt(data, mutation) or data[:1]
    path.write_bytes(data)
    commands = [
        ["geometry", "--metric", path, "--op", "curvature", "--out", root / "curvature.bin"],
        ["action", "--config", scenario],
    ]
    try:
        for argv in commands:
            with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("ignore", RuntimeWarning)
                code, _ = run_cli(*argv)
            assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NUMERICAL)
    finally:
        path.write_bytes(pristine)


def write_sphere_metric(path):
    """A sphere metric file on the scenario's grid."""
    grid = GridSpec.from_axes(*(tuple(SCENARIO["grid"][k]) for k in ("time", "sigma1", "sigma2")))
    write_grid(path, geometry.sphere_metric(grid).values, grid)
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["gff-sample", "--size", "9", "--gamma", "1", "--out", "{dir}"],
        ["evolve", "--config", "{scenario}", "--out", "{dir}"],
        ["geometry", "--metric", "{metric}", "--op", "curvature", "--out", "{dir}"],
        ["simulate-sde", "--scenario", "{scenario}", "--out", "{dir}"],
        ["simulate-sde", "--scenario", "{scenario}", "--out", "{root}/missing/p.bin"],
        ["evolve", "--config", "{scenario}", "--out", "{file}/psi.bin"],
        ["pipeline", "--scenario", "{scenario}", "--out-dir", "{file}"],
    ],
    ids=["gff-sample", "evolve", "geometry", "simulate-sde", "simulate-sde-missing",
         "evolve-file-parent", "pipeline"],
)
def test_unwritable_output_path_exits_with_validation_code(tmp_path, monkeypatch, argv):
    # an unusable --out is rejected before the command does any work
    def work(*args, **kwargs):
        raise AssertionError("the command computed before checking its output path")

    for module, name in [(market, "simulate"), (evolution, "evolve"),
                         (stubbornness, "GFFSampler"), (geometry, "christoffel")]:
        monkeypatch.setattr(module, name, work)
    metric = write_sphere_metric(tmp_path / "metric.bin")
    scenario = write_scenario(tmp_path / "scenario.json", SCENARIO)
    (tmp_path / "out").mkdir()
    fields = {"dir": tmp_path / "out", "file": scenario, "metric": metric, "root": tmp_path}
    before = sorted(p.name for p in tmp_path.iterdir())
    code, err = _exit_and_stderr(*[a.format(scenario=scenario, **fields) for a in argv])
    assert code == cli.EXIT_VALIDATION
    assert "cannot " in err and str(tmp_path) in err
    # no partial ensemble or other file is left next to the outputs
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert list((tmp_path / "out").iterdir()) == []


# a sphere metric file on the scenario's grid, support {1}: counts at
# 24:64, extents at 64:112, payload from 112; (corrupt(data), message)
BAD_METRIC_FILES = {
    "old-layout": (lambda d: b"SCGRID01" + d[8:], "old full-grid layout (SCGRID01)"),
    "mask-bit": (lambda d: d[:20] + (0b1010).to_bytes(4, "little") + d[24:], "beyond its 3"),
    "nan-extent": (lambda d: d[:64] + struct.pack("<d", np.nan) + d[72:], "must be finite"),
    "reversed-extent": (
        lambda d: d[:80] + struct.pack("<dd", 2.5, 0.5) + d[96:], "start < stop"
    ),
    "too-many-nodes": (
        lambda d: d[:24] + struct.pack("<Q", 2**63) + d[32:], "at most 2**40 nodes"
    ),
    "truncated-extents": (lambda d: d[:90], "truncated"),
    "trailing-bytes": (lambda d: d + bytes(8), "8 bytes follow the payload"),
}


@pytest.mark.parametrize("case", sorted(BAD_METRIC_FILES))
def test_malformed_grid_header_exits_with_validation_code(tmp_path, case):
    corrupt, message = BAD_METRIC_FILES[case]
    metric = write_sphere_metric(tmp_path / "metric.bin")
    metric.write_bytes(corrupt(metric.read_bytes()))
    code, err = _exit_and_stderr(
        "geometry", "--metric", metric, "--op", "curvature", "--out", tmp_path / "c.bin"
    )
    assert code == cli.EXIT_VALIDATION
    assert message in err and str(metric) in err
    scenario = write_scenario(
        tmp_path / "scenario.json", dict(SCENARIO, metric={"file": str(metric)})
    )
    out = tmp_path / "out"
    code, err = _exit_and_stderr("pipeline", "--scenario", scenario, "--out-dir", out)
    assert code == cli.EXIT_VALIDATION
    assert json.loads((out / "manifest.json").read_text())["failed_stage"] == "geometry"


@pytest.mark.parametrize("axis", [0, 2])
def test_metric_file_declaring_a_huge_constant_axis_runs_on_its_profile(tmp_path, axis):
    # the payload holds the profile only, so a short file can declare 2**32
    # nodes on an axis outside the support {1}; geometry then reads, compares
    # and writes no node beyond the profile
    metric = write_sphere_metric(tmp_path / "metric.bin")
    data = metric.read_bytes()
    offset = 24 + 8 * axis
    metric.write_bytes(data[:offset] + struct.pack("<Q", 2**32) + data[offset + 8 :])
    out = tmp_path / "c.bin"
    code, payload = run_cli("geometry", "--metric", metric, "--op", "curvature", "--out", out)
    assert code == cli.EXIT_OK
    scalar, grid = read_grid(out)
    assert grid.counts[axis] == 2**32 and out.stat().st_size < 1000
    profile = scalar[0, :, 0]
    assert payload["scalar_range"] == [float(profile.min()), float(profile.max())]
    # the scenario's grid has 3 time nodes
    scenario = write_scenario(
        tmp_path / "scenario.json", dict(SCENARIO, metric={"file": str(metric)})
    )
    code, err = _exit_and_stderr("action", "--config", scenario)
    assert code == cli.EXIT_VALIDATION and "different grids" in err


def test_geometry_ops_on_files_declaring_a_huge_time_axis_run_in_3_gib(tmp_path):
    """A sphere metric file and a field file that each declare 2**32 time
    nodes on a 9 x 9 strategy grid run every geometry op in a process
    limited to 3 GiB of address space: each op works on the joint support
    and writes its profile, and the Laplacian's equals the one on 3 time
    nodes."""
    resource = pytest.importorskip("resource")
    grids = [GridSpec.from_axes((0.0, 1.0, n), (0.5, 2.5, 9), (0.0, 1.0, 9)) for n in (2**32, 3)]
    theta, phi = grids[0].coordinates(1)[:, None], grids[0].coordinates(2)[None, :]
    plane = np.cos(theta) * np.sin(3 * phi)
    metric, field = tmp_path / "metric.bin", tmp_path / "field.bin"
    write_grid(metric, geometry.sphere_metric(grids[0]).values, grids[0])
    write_grid(field, np.broadcast_to(plane, grids[0].shape), grids[0])
    assert (metric.stat().st_size, field.stat().st_size) == (760, 744)
    limit = 3 * 2**30
    for op in ("christoffel", "curvature", "laplacian"):
        out = tmp_path / f"{op}.bin"
        proc = subprocess.run(
            [sys.executable, "-m", "semicoop.cli", "geometry", "--metric", str(metric),
             "--field", str(field), "--op", op, "--out", str(out)],
            capture_output=True, text=True, env=dict(child_env(), OPENBLAS_NUM_THREADS="1"),
            timeout=300, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert read_grid(out)[1] == grids[0] and out.stat().st_size < 4096
    small = geometry.sphere_metric(grids[1])
    expected = geometry.covariant_laplacian(small, np.broadcast_to(plane, grids[1].shape))
    assert np.array_equal(read_grid(tmp_path / "laplacian.bin")[0][0], expected[0])


def test_kernel_and_evolve_on_a_huge_time_axis_run_in_3_gib(tmp_path):
    """On a sphere scenario whose grid declares 2**32 time nodes on a 9 x 9
    strategy grid, ``kernel-check`` and ``evolve`` run in a process
    limited to 3 GiB of address space: the effective scale is formed on
    the bracket's profile, and both print what they print on 3 time
    nodes."""
    resource = pytest.importorskip("resource")
    huge = write_scenario(
        tmp_path / "huge.json", dict(SCENARIO, grid=dict(SCENARIO["grid"], time=[0, 1, 2**32]))
    )
    small = write_scenario(tmp_path / "small.json", SCENARIO)
    limit = 3 * 2**30

    def run_capped(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "semicoop.cli", *map(str, argv)],
            capture_output=True, text=True, env=dict(child_env(), OPENBLAS_NUM_THREADS="1"),
            timeout=300, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        return json.loads(proc.stdout)

    got = run_capped("kernel-check", "--config", huge)
    assert got == run_cli("kernel-check", "--config", small)[1]
    got = run_capped("evolve", "--config", huge, "--out", tmp_path / "huge.bin")
    expected = run_cli("evolve", "--config", small, "--out", tmp_path / "small.bin")[1]
    assert (got["norm"], got["time"]) == (expected["norm"], expected["time"])
    assert np.array_equal(read_grid(tmp_path / "huge.bin")[0], read_grid(tmp_path / "small.bin")[0])


def test_laplacian_field_off_the_metric_grid_is_rejected(tmp_path):
    metric = write_sphere_metric(tmp_path / "metric.bin")
    grid = read_grid(metric)[1]
    argv = ["geometry", "--metric", metric, "--op", "laplacian", "--out", tmp_path / "lap.bin"]
    field = tmp_path / "field.bin"
    write_grid(field, np.ones(grid.shape), grid)
    code, _ = _exit_and_stderr(*argv, "--field", field)
    assert code == cli.EXIT_OK
    # the same counts on a time axis [0, 9] instead of [0, 1]
    off_grid = GridSpec(((0.0, 9.0),) + grid.extents[1:], grid.counts)
    write_grid(field, np.ones(grid.shape), off_grid)
    code, err = _exit_and_stderr(*argv, "--field", field)
    assert code == cli.EXIT_VALIDATION
    assert "different grids" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["pipeline", "--scenario", "{scenario}", "--out-dir", "{dir}/run"],
        ["simulate-sde", "--scenario", "{scenario}", "--out", "{dir}/p.bin"],
        ["gff-sample", "--size", "9", "--gamma", "1", "--out", "{dir}/g.bin"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_exits_with_validation_code(tmp_path, argv):
    # numpy's SeedSequence raises a bare ValueError on a negative seed
    path = write_scenario(tmp_path / "scenario.json", SCENARIO)
    argv = [a.format(scenario=path, dir=tmp_path) for a in argv]
    code, err = _exit_and_stderr(*argv, "--seed", "-1")
    assert code == cli.EXIT_VALIDATION
    assert "seed -1 is negative" in err
    # the pipeline rejects it before it writes its first artifact
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


@pytest.mark.parametrize(
    "changes, key",
    [
        ({"metric": {"preset": "sphere", "radius": 1e200}}, "metric.radius"),
        ({"evolve": {"steps": 5, "packet_width": 1e300}}, "evolve.packet_width"),
        ({"grid": dict(SCENARIO["grid"], sigma1=[0.5, 1e200, 9])}, "grid.sigma1"),
        ({"grid": dict(SCENARIO["grid"], sigma2=[0, 1e200, 9])}, "grid.sigma2"),
    ],
    ids=["radius", "packet-width", "sigma1", "sigma2"],
)
def test_value_whose_square_overflows_exits_with_validation_code(tmp_path, changes, key):
    # each of these squared a Python float and raised OverflowError
    path = write_scenario(tmp_path / "scenario.json", dict(SCENARIO, **changes))
    for argv in (
        ["pipeline", "--scenario", path, "--out-dir", tmp_path / "run"],
        ["evolve", "--config", path, "--out", tmp_path / "psi.bin"],
    ):
        code, err = _exit_and_stderr(*argv)
        assert code == cli.EXIT_VALIDATION
        assert f"{key}: " in err and "square" in err and "overflows" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


@pytest.mark.parametrize(
    "radius, what",
    [(1.3e154, "symmetrized entries are"), (1e100, "determinant is")],
    ids=["entries", "determinant"],
)
def test_metric_that_leaves_the_float_range_fails_in_geometry(tmp_path, radius, what):
    # r^2 is finite for both radii; at 1.3e154 h + h^T overflows, which
    # the LU reported as a nan pivot, and at 1e100 the determinant, which
    # was accepted as infinite until action.json could not hold the action
    changes = {"metric": {"preset": "sphere", "radius": radius}}
    path = write_scenario(tmp_path / "scenario.json", dict(SCENARIO, **changes))
    run_dir = tmp_path / "run"
    code, err = _exit_and_stderr("pipeline", "--scenario", path, "--out-dir", run_dir)
    assert code == cli.EXIT_NUMERICAL
    assert "metric at grid node (0, 0, 0) leaves the floating-point range" in err
    assert f"its {what} not finite" in err
    manifest = strict_json((run_dir / "manifest.json").read_text())
    assert manifest["failed_stage"] == "geometry"
    assert manifest["artifacts"] == {}


def strict_json(text):
    """Parse ``text`` as JSON proper, which has no NaN or infinity."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "changes, command, stage, artifact",
    [
        # the ensemble's final variance overflows
        ({"sde": dict(SCENARIO["sde"], horizon=1e300)}, "simulate-sde", "sde", "sde_summary.json"),
        # sqrt(det h) = 1e150 on a time axis 1e200 long, and the bracket
        # is about 3: the action overflows
        (
            {
                "metric": {"preset": "constant", "matrix": np.diag([1e100] * 3).tolist()},
                "action": {"ghost": False, "fp_det": False},
                "grid": dict(SCENARIO["grid"], time=[0, 1e200, 3]),
            },
            "action",
            "action",
            "action.json",
        ),
    ],
    ids=["sde-horizon", "action"],
)
def test_non_finite_json_output_is_a_numerical_error(tmp_path, changes, command, stage, artifact):
    path = write_scenario(tmp_path / "scenario.json", dict(SCENARIO, **changes))
    flag = "--scenario" if command == "simulate-sde" else "--config"
    argv = [command, flag, path] + (["--out", tmp_path / "p.bin"] if stage == "sde" else [])
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, printed = run_cli(*argv)
    assert code == cli.EXIT_NUMERICAL
    assert "the printed result would hold a non-finite number" in err.getvalue()
    assert printed is None

    run_dir = tmp_path / "run"
    code, err = _exit_and_stderr("pipeline", "--scenario", path, "--out-dir", run_dir)
    assert code == cli.EXIT_NUMERICAL
    assert f"{artifact} would hold a non-finite number" in err
    manifest = strict_json((run_dir / "manifest.json").read_text())
    assert manifest["failed_stage"] == stage
    assert artifact in manifest["failure"]
    assert artifact not in manifest["artifacts"] and not (run_dir / artifact).exists()
    for written in run_dir.glob("*.json"):
        strict_json(written.read_text())
