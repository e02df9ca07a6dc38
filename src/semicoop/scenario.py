"""Scenario configuration: strict schema, validation, and builders.

A scenario is a JSON document driving the command-line tools and the
end-to-end pipeline.  Parsing is strict: unknown keys are rejected and
every range violation found is reported, not just the first.  A parsed
configuration normalizes to a plain dictionary that round-trips through
``to_dict`` unchanged.

``background.preset`` (``identity`` or ``combined``) is still accepted
and validated, but no computed artifact depends on it: the action
contracts only the transverse block of the background, which is the
identity either way, and the pipeline writes ``combined_metric.bin``
whenever the stubbornness draw fits the strategy plane, whatever the
preset.  It enters only the manifest's config digest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ValidationError
from .fieldio import read_grid
from .grids import GridSpec
from .market import FirmState
from .polygon import EllipsoidPatch, PolygonAssembly
from .vectorfields import VectorField

_TOP_KEYS = {
    "grid",
    "metric",
    "background",
    "gff",
    "firms",
    "polygon",
    "fields",
    "sde",
    "kernel",
    "profit",
    "evolve",
    "rho_grid",
    "action",
}

_DEFAULTS = {
    "background": {"preset": "identity"},
    "gff": {"gamma": 1.0, "grid_size": None},
    "sde": {"steps": 16, "paths": 256, "horizon": 1.0},
    "kernel": {
        "mass": 10000.0,
        "step": 0.005,
        "freedom_exponent": 0.5,
        "mean_share": 0.5,
        "multiplier": 0.0,
        "domain_halfwidth": 1.0,
        "normalization_samples": 48,
        "correlation_samples": 200000,
    },
    "profit": {"preset": "constant", "value": 1.0},
    "evolve": {"packet_width": None, "steps": 50},
    "action": {"ghost": False, "fp_det": False},
    "rho_grid": 64,
}

_SECTION_KEYS = {
    "grid": {"time", "sigma1", "sigma2"},
    "metric": {"preset", "file", "matrix", "radius"},
    "background": {"preset"},
    "gff": {"gamma", "grid_size"},
    "sde": {"steps", "paths", "horizon"},
    "kernel": set(_DEFAULTS["kernel"]),
    "profit": {"preset", "value", "base", "exponent", "peak", "curvature", "vertex"},
    "evolve": {"packet_width", "steps"},
    "action": {"ghost", "fp_det"},
    "firm": {
        "share",
        "strategy",
        "alpha_own",
        "alpha_other",
        "coop_own",
        "coop_other",
        "stubbornness",
        "area",
    },
    "polygon": {"indicator", "positive_count", "sides"},
    "side": {"area", "radius", "curvature", "theta", "rho", "tau"},
    "fields": {"v", "u", "spacing"},
    "field": {"drift", "noise"},
}

METRIC_PRESETS = ("flat", "sphere", "constant")
BACKGROUND_PRESETS = ("identity", "combined")
PROFIT_PRESETS = ("constant", "region_power", "rho_quadratic")


def _check_keys(section, data, name, problems):
    unknown = set(data) - _SECTION_KEYS[section]
    if unknown:
        problems.append(f"{name}: unknown keys {sorted(unknown)}")


@dataclass
class ScenarioConfig:
    """Validated scenario; ``data`` is the normalized document."""

    data: dict

    def to_dict(self):
        return json.loads(json.dumps(self.data, sort_keys=True))

    # -- builders ---------------------------------------------------------

    def build_grid(self):
        g = self.data["grid"]
        return GridSpec.from_axes(tuple(g["time"]), tuple(g["sigma1"]), tuple(g["sigma2"]))

    def build_metric(self, grid=None):
        grid = grid or self.build_grid()
        m = self.data["metric"]
        if "file" in m:
            values, file_grid, _ = read_grid(m["file"])
            return geometry.MetricField(values, file_grid or grid)
        preset = m["preset"]
        if preset == "flat":
            return geometry.flat_metric(grid)
        if preset == "sphere":
            return geometry.sphere_metric(grid, radius=m.get("radius", 1.0))
        return geometry.constant_metric(grid, np.asarray(m["matrix"], dtype=float))

    def build_firms(self):
        firms = []
        for f in self.data["firms"]:
            firms.append(
                FirmState(
                    share=np.asarray(f["share"], dtype=float),
                    strategy=f["strategy"],
                    alpha_own=f["alpha_own"],
                    alpha_other=f["alpha_other"],
                    coop_own=f["coop_own"],
                    coop_other=f["coop_other"],
                    stubbornness=f.get("stubbornness", 1.0),
                    polygon_area=f.get("area"),
                )
            )
        return firms

    def build_profit(self):
        """Profit callable ``(s, share, u_own, u_other) -> value``.

        Returns ``(callable, rho_to_scale)`` where the second entry maps
        a cooperation degree directly to an effective scale for the
        synthetic quadratic preset and is None otherwise.
        """
        p = self.data["profit"]
        preset = p["preset"]
        if preset == "constant":
            value = float(p.get("value", 1.0))

            def profit(s, share, u_own, u_other, value=value):
                return value * np.ones_like(np.asarray(s, dtype=float))

            return profit, None
        if preset == "region_power":
            base = float(p.get("base", 1.0))
            exponent = float(p.get("exponent", 1.0))

            def profit(s, share, u_own, u_other, base=base, exponent=exponent):
                return (base + float(u_own) ** exponent) * np.ones_like(
                    np.asarray(s, dtype=float)
                )

            return profit, None
        peak = float(p.get("peak", 1.0))
        curvature = float(p.get("curvature", 1.0))
        vertex = float(p.get("vertex", 0.6))

        def profit(s, share, u_own, u_other, peak=peak):
            return peak * np.ones_like(np.asarray(s, dtype=float))

        def rho_to_scale(rho):
            return peak - curvature * (rho - vertex) ** 2

        return profit, rho_to_scale

    def build_polygon(self, time=0.0, quadrature_nodes=32):
        """Per-side areas and the assembly for the polygon section."""
        from .polygon import patch_area

        section = self.data.get("polygon")
        if section is None:
            raise ValidationError("scenario has no polygon section")
        areas = []
        for side in section["sides"]:
            if "area" in side:
                areas.append(float(side["area"]))
                continue
            patch = _build_patch(side, time)
            areas.append(patch_area(patch, quadrature_nodes))
        assembly = PolygonAssembly(
            tuple(areas),
            indicator=section.get("indicator", 0),
            positive_count=section.get("positive_count"),
        )
        return areas, assembly

    def build_fields(self):
        section = self.data.get("fields")
        if section is None:
            raise ValidationError("scenario has no fields section")
        return (
            _build_field(section["v"]),
            _build_field(section["u"]),
            section.get("spacing"),
        )


def _timed(value, s):
    if isinstance(value, dict):
        return float(value["base"]) + float(value.get("rate", 0.0)) * s
    return float(value)


def _build_patch(side, s):
    curv = side["curvature"]
    if isinstance(curv, dict):
        if curv.get("kind") == "sphere":
            r = _timed(side["radius"], s)
            curvature = 1.0 / r**2
        else:
            curvature = _timed(curv.get("value", curv), s)
    else:
        curvature = float(curv)
    return EllipsoidPatch(
        radius=_timed(side["radius"], s),
        curvature=curvature,
        theta=tuple(_timed(v, s) for v in side["theta"]),
        rho=tuple(_timed(v, s) for v in side["rho"]),
        tau=tuple(_timed(v, s) for v in side["tau"]),
    )


def _build_field(spec):
    noise = spec.get("noise")
    if isinstance(noise, dict):
        return VectorField.from_fourier_noise(
            spec["drift"],
            seed=int(noise["fourier_seed"]),
            modes=int(noise.get("modes", 6)),
        )
    return VectorField.from_polynomials(spec["drift"], noise)


# ---------------------------------------------------------------------------
# validation


def _validate_axis(axis, name, problems):
    if (
        not isinstance(axis, (list, tuple))
        or len(axis) != 3
        or not all(isinstance(v, (int, float)) for v in axis)
    ):
        problems.append(f"{name}: expected [start, stop, count]")
        return
    start, stop, count = axis
    if stop <= start:
        problems.append(f"{name}: start must be below stop")
    if int(count) != count or count < 3:
        problems.append(f"{name}: node count must be an integer >= 3")


def _validate_range(value, lo, hi, name, problems, lo_open=False, hi_open=False):
    if not isinstance(value, (int, float)):
        problems.append(f"{name}: expected a number")
        return
    above = value > lo if lo_open else value >= lo
    below = value < hi if hi_open else value <= hi
    if not (above and below):
        lo_b = "(" if lo_open else "["
        hi_b = ")" if hi_open else "]"
        problems.append(f"{name} must lie in {lo_b}{lo},{hi}{hi_b}")


def parse_scenario(path_or_dict):
    """Parse and fully validate a scenario document.

    Every violated precondition is collected; the raised
    :class:`ValidationError` lists all of them.
    """
    if isinstance(path_or_dict, dict):
        raw = path_or_dict
    else:
        try:
            with open(path_or_dict) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ValidationError(f"scenario file not found: {path_or_dict}")
        except json.JSONDecodeError as exc:
            raise ValidationError(f"scenario is not well-formed JSON: {exc}")

    problems = []
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        problems.append(f"unknown top-level keys {sorted(unknown)}")
    for key in ("grid", "metric", "firms"):
        if key not in raw:
            problems.append(f"missing required section '{key}'")
    data = {}
    for key, default in _DEFAULTS.items():
        value = raw.get(key, default)
        if isinstance(default, dict) and isinstance(value, dict):
            value = {**default, **value}
        data[key] = json.loads(json.dumps(value)) if isinstance(value, dict) else value
    for key in ("grid", "metric", "firms", "polygon", "fields"):
        if key in raw:
            data[key] = json.loads(json.dumps(raw[key]))

    if problems:
        raise ValidationError("invalid scenario", problems)

    grid = data["grid"]
    _check_keys("grid", grid, "grid", problems)
    for axis in ("time", "sigma1", "sigma2"):
        if axis not in grid:
            problems.append(f"grid: missing axis '{axis}'")
        else:
            _validate_axis(grid[axis], f"grid.{axis}", problems)

    metric = data["metric"]
    _check_keys("metric", metric, "metric", problems)
    if "file" in metric:
        import os

        if not os.path.exists(metric["file"]):
            problems.append(f"metric: file not found: {metric['file']}")
    elif "preset" not in metric:
        problems.append("metric: needs either a preset or a file")
    elif metric["preset"] not in METRIC_PRESETS:
        problems.append(f"metric: unknown preset '{metric['preset']}'")
    elif metric["preset"] == "constant" and "matrix" not in metric:
        problems.append("metric: constant preset needs a matrix")

    background = data["background"]
    _check_keys("background", background, "background", problems)
    if background.get("preset") not in BACKGROUND_PRESETS:
        problems.append(f"background: unknown preset '{background.get('preset')}'")

    gff = data["gff"]
    _check_keys("gff", gff, "gff", problems)
    gamma = gff.get("gamma", 1.0)
    if not (isinstance(gamma, (int, float)) and 0.0 < gamma <= 2.0):
        problems.append("gff: gamma must lie in (0,2]")
    if gff.get("grid_size") is not None and gff["grid_size"] < 4:
        problems.append("gff: grid size must be at least 4")

    firms = data.get("firms", [])
    if not isinstance(firms, list) or not firms:
        problems.append("firms: need at least one firm")
    else:
        for i, firm in enumerate(firms):
            name = f"firms[{i}]"
            _check_keys("firm", firm, name, problems)
            for key in ("share", "strategy", "alpha_own", "alpha_other", "coop_own", "coop_other"):
                if key not in firm:
                    problems.append(f"{name}: missing '{key}'")
            if "share" in firm and len(firm.get("share", [])) != 3:
                problems.append(f"{name}: share must be a 3-vector")
            for key in ("alpha_own", "alpha_other"):
                if key in firm:
                    _validate_range(firm[key], 0, 1, f"{name}.{key}", problems)
            for key in ("coop_own", "coop_other"):
                if key in firm:
                    _validate_range(firm[key], 0, 1, f"{name}.{key}", problems, lo_open=True)

    sde = data["sde"]
    _check_keys("sde", sde, "sde", problems)
    if sde.get("steps", 16) < 2:
        problems.append("sde: step count must be at least 2")
    if sde.get("paths", 1) < 1:
        problems.append("sde: path count must be positive")
    if not sde.get("horizon", 1.0) > 0:
        problems.append("sde: horizon must be positive")

    kernel = data["kernel"]
    _check_keys("kernel", kernel, "kernel", problems)
    if not kernel.get("mass", 1.0) > 0:
        problems.append("kernel: mass must be positive")
    if not kernel.get("step", 1.0) > 0:
        problems.append("kernel: step must be positive")
    _validate_range(
        kernel.get("freedom_exponent", 0.5), 0, 1, "kernel.freedom_exponent",
        problems, lo_open=True, hi_open=True,
    )
    if not kernel.get("domain_halfwidth", 1.0) > 0:
        problems.append("kernel: domain halfwidth must be positive")

    profit = data["profit"]
    _check_keys("profit", profit, "profit", problems)
    if profit.get("preset") not in PROFIT_PRESETS:
        problems.append(f"profit: unknown preset '{profit.get('preset')}'")
    if profit.get("preset") == "rho_quadratic":
        _validate_range(
            profit.get("vertex", 0.6), 0, 1, "profit.vertex", problems,
            lo_open=True,
        )

    evolve = data["evolve"]
    _check_keys("evolve", evolve, "evolve", problems)
    if evolve.get("steps", 1) < 0:
        problems.append("evolve: step count must be non-negative")

    action = data["action"]
    _check_keys("action", action, "action", problems)

    if not isinstance(data["rho_grid"], int) or data["rho_grid"] < 16:
        problems.append("rho_grid must be an integer >= 16")

    if "polygon" in data and data["polygon"] is not None:
        poly = data["polygon"]
        _check_keys("polygon", poly, "polygon", problems)
        sides = poly.get("sides")
        if not isinstance(sides, list) or not sides:
            problems.append("polygon: needs a non-empty side list")
        else:
            for i, side in enumerate(sides):
                _check_keys("side", side, f"polygon.sides[{i}]", problems)
                if "area" not in side:
                    for key in ("radius", "curvature", "theta", "rho", "tau"):
                        if key not in side:
                            problems.append(
                                f"polygon.sides[{i}]: missing '{key}' (or give a precomputed area)"
                            )

    if "fields" in data and data["fields"] is not None:
        fields = data["fields"]
        _check_keys("fields", fields, "fields", problems)
        for name in ("v", "u"):
            if name not in fields:
                problems.append(f"fields: missing '{name}'")
            else:
                _check_keys("field", fields[name], f"fields.{name}", problems)
                if "drift" not in fields[name] or len(fields[name]["drift"]) != 3:
                    problems.append(f"fields.{name}: drift needs 3 component term lists")

    if problems:
        raise ValidationError("invalid scenario", problems)

    config = ScenarioConfig(data)
    # exercising the builders catches cross-field violations (for example
    # a strategy outside the committed region) with aggregated reporting
    try:
        config.build_grid()
        config.build_firms()
    except ValidationError as exc:
        raise ValidationError("invalid scenario", exc.problems)
    return config
