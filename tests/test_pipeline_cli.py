"""The stage subcommands and ``semicoop pipeline`` share one implementation
per stage, so for one scenario and seed they must give the same numbers."""

import contextlib
import io
import json

import numpy as np
import pytest

from semicoop import cli, geometry, market
from semicoop.fieldio import read_grid, write_grid
from semicoop.grids import GridSpec

SEED = 7

SCENARIO = {
    "grid": {"time": [0, 1, 3], "sigma1": [0.5, 2.5, 9], "sigma2": [0, 1, 9]},
    "metric": {"preset": "sphere"},
    "background": {"preset": "combined"},
    "action": {"ghost": True, "fp_det": True},
    "sde": {"steps": 4, "paths": 64, "horizon": 1.0},
    "evolve": {"steps": 5},
    "kernel": {"normalization_samples": 12, "correlation_samples": 2000},
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
    assert (root / "sde.bin.json").read_bytes() == (pipeline_dir / "paths.bin.json").read_bytes()


def test_action_honours_scenario_section(run):
    _, scenario, pipeline_dir, _ = run
    code, payload = run_cli("action", "--config", scenario)
    assert code == cli.EXIT_OK
    assert payload == json.loads((pipeline_dir / "action.json").read_text())
    assert payload["ghost"] is not None
    assert "fp_singular" in payload


def test_kernel_check_matches_manifest(run):
    _, scenario, _, manifest = run
    code, payload = run_cli("kernel-check", "--config", scenario, "--seed", SEED)
    assert code == cli.EXIT_OK
    expected = manifest["results"]["kernel_normalization_deviation"]
    assert payload["normalization_deviation"] == expected


def test_evolve_matches_psi_bin(run):
    root, scenario, pipeline_dir, _ = run
    out = root / "psi.bin"
    code, _ = run_cli("evolve", "--config", scenario, "--out", out)
    assert code == cli.EXIT_OK
    values, grid, _ = read_grid(out)
    expected, expected_grid, _ = read_grid(pipeline_dir / "psi.bin")
    assert grid == expected_grid
    np.testing.assert_array_equal(values, expected)


def test_optimal_rho_matches_rho_json(run):
    _, scenario, pipeline_dir, _ = run
    code, payload = run_cli("optimal-rho", "--config", scenario)
    assert code == cli.EXIT_OK
    assert payload == json.loads((pipeline_dir / "rho.json").read_text())


def test_manifest_independent_of_threads(tmp_path):
    scenario = dict(SCENARIO, sde={"steps": 3, "paths": market._CHUNK_SIZE + 500, "horizon": 1.0})
    path = write_scenario(tmp_path / "scenario.json", scenario)
    manifests = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        code, _ = run_cli(
            "pipeline", "--scenario", path, "--out-dir", out, "--seed", SEED,
            "--threads", threads,
        )
        assert code == cli.EXIT_OK
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["pipeline", "--scenario", "{scenario}", "--out-dir", "{dir}"],
        ["simulate-sde", "--scenario", "{scenario}", "--out", "{dir}/p.bin"],
        ["action", "--config", "{scenario}"],
        ["evolve", "--config", "{scenario}", "--out", "{dir}/psi.bin"],
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


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-sde", "--scenario", "s.json", "--out", "p.bin", "--paths", "5"],
        ["simulate-sde", "--scenario", "s.json", "--out", "p.bin", "--steps", "3"],
        ["simulate-sde", "--scenario", "s.json", "--out", "p.bin", "--csv"],
        ["evolve", "--config", "s.json", "--out", "psi.bin", "--steps", "3"],
        ["optimal-rho", "--config", "s.json", "--grid", "32"],
    ],
    ids=["sde-paths", "sde-steps", "sde-csv", "evolve-steps", "rho-grid"],
)
def test_removed_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    assert exc.value.code == 2
