"""``tools/output_digests.py`` on a reduced copy of the benchmark design."""

import importlib.util
import json
import os
import tempfile

_SPEC = importlib.util.spec_from_file_location(
    "output_digests",
    os.path.join(os.path.dirname(__file__), os.pardir, "tools", "output_digests.py"),
)
output_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digests)


def reduced_design():
    """The design's ``world_grid`` (a metric preset) and ``stage_commands``
    (every subcommand, on a metric file) on a 3 x 9 x 9 grid with few
    paths and steps."""
    with open(output_digests.DESIGN) as fh:
        design = json.load(fh)
    design["workloads"] = {
        name: design["workloads"][name] for name in ("world_grid", "stage_commands")
    }
    for spec in design["workloads"].values():
        spec["grid"] = {"time": [0, 1, 3], "sigma1": [0.5, 2.5, 9], "sigma2": [0, 1, 9]}
        spec["scenario"].update(sde={"steps": 4, "paths": 64, "horizon": 1.0}, evolve={"steps": 5})
    return design


def test_lines_are_reproducible_and_masked_and_follow_the_seed(monkeypatch):
    made = []

    class Recorded(tempfile.TemporaryDirectory):
        def __enter__(self):
            made.append(self.name)
            return super().__enter__()

    monkeypatch.setattr(tempfile, "TemporaryDirectory", Recorded)
    design = reduced_design()
    first = output_digests.digest_lines(design, 1)
    # a second directory; stdouts that name output paths digest alike only
    # when the directory is masked
    assert output_digests.digest_lines(design, 1) == first
    assert len(set(made)) == 2 and not any(d in line for d in made for line in first)
    names = [line.rsplit(" ", 1)[0] for line in first]
    assert names[:1] == ["world_grid stdout0"] and len(names) == len(set(names))
    assert {f"stage_commands stdout{i}" for i in range(7)} <= set(names)
    assert {"stage_commands sde_paths.bin", "stage_commands pipeline/manifest.json"} <= set(names)

    other = dict(line.rsplit(" ", 1) for line in output_digests.digest_lines(design, 2))
    first = dict(line.rsplit(" ", 1) for line in first)
    assert other.keys() == first.keys()
    for name in ("world_grid pipeline/paths.bin", "stage_commands sde_paths.bin"):
        assert other[name] != first[name]
