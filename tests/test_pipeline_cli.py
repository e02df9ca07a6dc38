"""The stage subcommands and ``semicoop pipeline`` share one implementation
per stage, so for one scenario and seed they must give the same numbers."""

import contextlib
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicoop import ValidationError, cli, evolution, geometry, market, pipeline
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


def test_norms_are_the_weighted_norm_evolve_keeps(run):
    # the plain L2 drift of this run is about 4e-12; the sqrt|det h|
    # weighted one, which Crank-Nicolson keeps, is rounding
    root, scenario, pipeline_dir, manifest = run
    code, payload = run_cli("evolve", "--config", scenario, "--out", root / "psi_norm.bin")
    assert code == cli.EXIT_OK
    values, grid, _ = read_grid(pipeline_dir / "psi.bin")
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
    # rho* is a property of F0(rho) alone: the world volume, the kernel,
    # the evolution and the Laplacian must stay out of the search
    def refuse(*args, **kwargs):
        raise AssertionError("the rho search built a stage it does not need")

    for owner, name in [
        (pipeline, "world"),
        (pipeline, "action_terms"),
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
        warnings.simplefilter("ignore", RuntimeWarning)
        code, _ = run_cli(*argv)
    return code, err.getvalue()


def test_non_finite_scale_in_the_rho_scan_is_a_numerical_error(tmp_path):
    # base + 0.5**rho < 0 near rho = 1, where (p*b)^W is NaN
    firm = dict(SCENARIO["firms"][0], strategy=0.9)
    scenario = dict(
        SCENARIO, firms=[firm], profit={"preset": "region_power", "base": -0.6, "exponent": 1}
    )
    path = write_scenario(tmp_path / "scenario.json", scenario)
    code, err = _exit_and_stderr("optimal-rho", "--config", path)
    assert code == cli.EXIT_NUMERICAL
    assert "effective scale is nan at rho = " in err

    out = tmp_path / "out"
    code, _ = _exit_and_stderr("pipeline", "--scenario", path, "--out-dir", out)
    assert code == cli.EXIT_NUMERICAL
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed_stage"] == "cooperation"
    assert manifest["failure"].startswith("effective scale is nan at rho = ")
    assert "rho.json" not in manifest["artifacts"]


@pytest.mark.parametrize(
    "changes, message",
    [
        # F0 = inf: the constant profit times a stubbornness of 10 overflows
        (
            {
                "firms": [dict(SCENARIO["firms"][0], stubbornness=10)],
                "profit": {"preset": "constant", "value": 1e308},
            },
            "effective scale on the initial time plane is inf",
        ),
        # F0 is finite, the covariance (step / mass) F0 hinv is not
        ({"kernel": dict(SCENARIO["kernel"], mass=1e-300, step=1e300)}, "overflows"),
    ],
    ids=["scale", "covariance"],
)
def test_non_finite_kernel_is_a_numerical_error(tmp_path, changes, message):
    path = write_scenario(tmp_path / "scenario.json", dict(SCENARIO, **changes))
    code, err = _exit_and_stderr("kernel-check", "--config", path, "--seed", SEED)
    assert code == cli.EXIT_NUMERICAL
    assert message in err

    out = tmp_path / "out"
    code, _ = _exit_and_stderr("pipeline", "--scenario", path, "--out-dir", out)
    assert code == cli.EXIT_NUMERICAL
    assert json.loads((out / "manifest.json").read_text())["failed_stage"] == "kernel"


def test_gff_sample_draws_the_pipeline_field(run):
    root, _, pipeline_dir, _ = run
    out = root / "gff.bin"
    code, _ = run_cli("gff-sample", "--size", 9, "--gamma", 1, "--out", out, "--seed", SEED)
    assert code == cli.EXIT_OK
    values, _, descriptor = read_grid(out)
    expected, _, _ = read_grid(pipeline_dir / "gff.bin")
    assert np.array_equal(values, expected)
    assert descriptor["seed"] == pipeline.stage_seed(SEED, "gff")


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
    firm's start, so every path fails at step 1, after the ensemble file
    was created."""
    derive = market.derive_coefficients

    def poisoned(metric, chris):
        coeffs = derive(metric, chris)
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
    assert "non-finite coefficients at step 1" in manifest["failure"]
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
        ["--seed", "5", "pipeline", "--scenario", "s.json"],
        ["cascade", "--kappa", "1", "--theta", "2", "--threads", "2"],
        ["evolve", "--config", "s.json", "--out", "psi.bin", "--seed", "5"],
        ["action", "--config", "s.json", "--out-dir", "out"],
        ["kernel-check", "--config", "s.json", "--format", "csv"],
    ],
    ids=[
        "sde-paths", "sde-steps", "sde-csv", "evolve-steps", "rho-grid",
        "top-level-seed", "cascade-threads", "evolve-seed", "action-out-dir",
        "kernel-format",
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
    ],
)
def test_kernel_sample_counts_are_validated(tmp_path, key, value):
    bad = dict(SCENARIO, kernel=dict(SCENARIO["kernel"], **{key: value}))
    with pytest.raises(ValidationError) as exc:
        parse_scenario(bad)
    assert any(key in problem for problem in exc.value.problems)
    path = write_scenario(tmp_path / "bad.json", bad)
    with contextlib.redirect_stderr(io.StringIO()):
        code, _ = run_cli("kernel-check", "--config", path)
    assert code == cli.EXIT_VALIDATION


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


# header bytes (magic, flags, counts, shape) are 0:64 of a 3-axis rank-2 file
_positions = st.one_of(st.integers(0, 63), st.integers(0, 2**20))
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
