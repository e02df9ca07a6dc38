"""Scenario configuration: strict schema, validation, and builders.

A scenario is a JSON document driving the command-line tools and the
end-to-end pipeline.  Parsing is strict: unknown keys are rejected and
every range violation found is reported, not just the first.  A parsed
configuration normalizes to a plain dictionary that round-trips through
``to_dict`` unchanged.

A section with defaults takes exactly the keys of its defaults, and
``profit`` also the numbers its presets read; ``grid``, ``metric`` and
``firms`` are required, ``polygon`` and ``fields`` optional.  ``gff``
holds only ``gamma``: the field is drawn on the strategy grid's
``sigma1`` node count per side.

Some keys are still accepted and validated, but no computed artifact
depends on them; they enter only the manifest's config digest.
``background.preset`` (``identity`` or ``combined``): the action
contracts only the transverse block of the background, the identity
either way, and ``combined_metric.bin`` is written whenever the
stubbornness draw fits the strategy plane.  ``kernel.normalization_samples``:
the kernel reports its mass leak and variance in closed form.
``firms[0].alpha_other`` and ``firms[0].coop_other``: no profit preset
reads the other firm's region; they stay required keys until a benchmark
change drops them from ``perfbench/design.json``, whose firm sets them.
``rho_grid``: the cooperation stage chooses ρ* in closed form, among at
most three candidates, with no grid.

``firms`` holds exactly one firm, the small firm the package models;
every stage reads it through :attr:`ScenarioConfig.firm`.  ``fields``
holds the two fields ``v`` and ``u`` of ``lie-bracket`` and nothing
else: their commutator takes exact derivatives, with no step to set.  A
polygon side's ``curvature`` is a number, a timed ``{"base", "rate"}``,
exactly ``{"kind": "sphere"}`` or exactly ``{"value": ...}``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import NumericalError, ValidationError
from .fieldio import read_grid
from .grids import GridSpec, require_same_grid
from .polygon import EllipsoidPatch, PolygonAssembly, effective_region

_DEFAULTS = {
    "background": {"preset": "identity"},
    "gff": {"gamma": 1.0},
    "sde": {"steps": 16, "paths": 256, "horizon": 1.0},
    "kernel": {
        "mass": 10000.0,
        "step": 0.005,
        "freedom_exponent": 0.5,
        "mean_share": 0.5,
        "domain_halfwidth": 1.0,
        "normalization_samples": 48,
    },
    "profit": {"preset": "constant", "value": 1.0},
    "evolve": {"packet_width": None, "steps": 50},
    "action": {"ghost": False, "fp_det": False},
    "rho_grid": 64,
}

# sections without defaults: required, and optional (absent or null)
_REQUIRED = ("grid", "metric", "firms")
_OPTIONAL = ("polygon", "fields")
_TOP_KEYS = {*_DEFAULTS, *_REQUIRED, *_OPTIONAL}

METRIC_PRESETS = ("flat", "sphere", "constant")
BACKGROUND_PRESETS = ("identity", "combined")
PROFIT_PRESETS = ("constant", "region_power", "rho_quadratic")


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

    def build_metric(self):
        """The metric every stage reads; a metric file must lie on :meth:`build_grid`."""
        grid = self.build_grid()
        m = self.data["metric"]
        if "file" in m:
            metric = geometry.MetricField(*read_grid(m["file"]))
            require_same_grid(grid, metric)
            return metric
        preset = m["preset"]
        if preset == "flat":
            return geometry.flat_metric(grid)
        if preset == "sphere":
            return geometry.sphere_metric(grid, radius=m.get("radius", 1.0))
        return geometry.constant_metric(grid, np.asarray(m["matrix"], dtype=float))

    @property
    def firm(self):
        """The one firm's section, ``firms[0]``.  It holds no defaults: an
        absent ``stubbornness`` reads as 1.0, and the cooperation stage
        reads an absent or null ``area`` as 1.0."""
        return self.data["firms"][0]

    def profit(self, u_own):
        """Profit of the firm whose committed region is ``u_own``: the
        ``constant`` preset's ``value``, ``region_power``'s ``base +
        u_own**exponent`` or ``rho_quadratic``'s ``peak``.  A value that
        is complex or not finite, or whose arithmetic fails, is a
        :class:`NumericalError` naming ``u_own``."""
        p = self.data["profit"]
        if p["preset"] == "constant":
            return float(p.get("value", 1.0))
        if p["preset"] == "rho_quadratic":
            return float(p.get("peak", 1.0))
        try:
            value = float(p.get("base", 1.0)) + float(u_own) ** float(p.get("exponent", 1.0))
        except ArithmeticError as exc:
            raise NumericalError(f"profit at u_own = {u_own:.6g} fails: {exc}") from exc
        if isinstance(value, complex) or not math.isfinite(value):
            raise NumericalError(f"profit at u_own = {u_own:.6g} is {value}")
        return value

    def build_polygon(self, time=0.0):
        """Per-side areas and the assembly for the polygon section."""
        from .polygon import patch_area

        section = self.data.get("polygon")
        if section is None:
            raise ValidationError("scenario has no polygon section")
        areas = []
        for index, side in enumerate(section["sides"]):
            if "area" in side:
                areas.append(float(side["area"]))
                continue
            patch = _build_patch(side, time, f"polygon.sides[{index}]")
            areas.append(patch_area(patch))
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
        return _build_field(section["v"]), _build_field(section["u"])


def _timed(value, s):
    if isinstance(value, dict):
        return float(value["base"]) + float(value.get("rate", 0.0)) * s
    return float(value)


def _build_patch(side, s, where):
    # checked here, not at parse time: a timed radius is known only at time s
    radius = _timed(side["radius"], s)
    if not radius > 0:
        raise ValidationError(f"{where}.radius is {radius:g} at time {s:g}; it must be positive")
    try:
        square = radius**2
    except OverflowError:
        raise ValidationError(
            f"{where}.radius is {radius:g} at time {s:g}; its square overflows"
        ) from None
    curv = side["curvature"]
    if curv == {"kind": "sphere"}:
        curvature = 1.0 / square
    else:
        curvature = _timed(curv.get("value", curv) if isinstance(curv, dict) else curv, s)
    return EllipsoidPatch(
        radius=radius,
        curvature=curvature,
        theta=tuple(_timed(v, s) for v in side["theta"]),
        rho=tuple(_timed(v, s) for v in side["rho"]),
        tau=tuple(_timed(v, s) for v in side["tau"]),
    )


def _build_field(spec):
    from .vectorfields import VectorField  # only lie-bracket builds fields

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

_SEQUENCE = (list, tuple)

_POSITIVE = dict(lo=0, lo_open=True)

# limits of every numeric field, per section; a key is checked when present
# (the defaults make the required ones present), ``optional`` lets it be null
_NUMBER_FIELDS = {
    "metric": {"radius": dict(_POSITIVE, square=True)},
    "gff": {"gamma": dict(lo=0, hi=2, lo_open=True)},
    "sde": {
        "steps": dict(lo=2, integer=True),
        "paths": dict(lo=2, integer=True),  # final_variance uses ddof=1
        "horizon": _POSITIVE,
    },
    "kernel": {
        "mass": _POSITIVE,
        "step": _POSITIVE,
        "freedom_exponent": dict(lo=0, hi=1, lo_open=True, hi_open=True),
        "mean_share": {},
        "domain_halfwidth": _POSITIVE,
        "normalization_samples": dict(lo=1, integer=True),
    },
    "profit": {
        "value": {},
        "base": {},
        "exponent": {},
        "peak": {},
        "curvature": {},
        "vertex": dict(lo=0, hi=1, lo_open=True),
    },
    "evolve": {
        "packet_width": dict(_POSITIVE, optional=True, square=True),
        "steps": dict(lo=0, integer=True),
    },
    "firm": {
        "strategy": {},
        "alpha_own": dict(lo=0, hi=1),
        "alpha_other": dict(lo=0, hi=1),
        "coop_own": dict(lo=0, hi=1, lo_open=True),
        "coop_other": dict(lo=0, hi=1, lo_open=True),
        "stubbornness": {},
        "area": dict(lo=0, optional=True),
    },
    "polygon": {
        "indicator": dict(lo=0, hi=1, integer=True),
        "positive_count": dict(lo=1, integer=True, optional=True),
    },
    "noise": {"fourier_seed": dict(lo=0, integer=True), "modes": dict(lo=1, integer=True)},
}

# the keys each object may hold: a defaulted section exactly its defaults',
# and profit also the numbers its presets read
_SECTION_KEYS = {
    **{key: set(value) for key, value in _DEFAULTS.items() if isinstance(value, dict)},
    "profit": {*_DEFAULTS["profit"], *_NUMBER_FIELDS["profit"]},
    "grid": {"time", "sigma1", "sigma2"},
    "metric": {"preset", "file", "matrix", "radius"},
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
    "fields": {"v", "u"},
    "field": {"drift", "noise"},
    "noise": {"fourier_seed", "modes"},
    "timed": {"base", "rate"},
}


def _check_keys(section, data, name, problems):
    unknown = set(data) - _SECTION_KEYS[section]
    if unknown:
        problems.append(f"{name}: unknown keys {sorted(unknown)}")


def _square_overflows(value):
    """Whether the float square of ``value`` overflows (Python's
    ``value**2`` then raises :class:`OverflowError`)."""
    try:
        return not math.isfinite(float(value) ** 2)
    except OverflowError:
        return True


def _validate_range(
    value, name, problems, lo=None, hi=None, lo_open=False, hi_open=False,
    integer=False, optional=False, square=False,
):
    """The one type and range check of every numeric scenario field.

    Appends a problem and returns False unless ``value`` is a finite
    number (an integer when ``integer``; never a boolean) between ``lo``
    and ``hi``, each end closed unless ``lo_open``/``hi_open``, whose
    square is finite too when ``square``.  ``None`` passes when
    ``optional``.
    """
    if value is None and optional:
        return True
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        problems.append(f"{name}: expected {'an integer' if integer else 'a number'}")
        return False
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        problems.append(f"{name}: expected a finite number")
        return False
    above = lo is None or (value > lo if lo_open else value >= lo)
    below = hi is None or (value < hi if hi_open else value <= hi)
    if above and below and square and _square_overflows(value):
        problems.append(f"{name}: its square overflows")
        return False
    if above and below:
        return True
    if hi is None:
        problems.append(f"{name} must be {'>' if lo_open else '>='} {lo}")
    else:
        lo_b = "(" if lo_open else "["
        hi_b = ")" if hi_open else "]"
        problems.append(f"{name} must lie in {lo_b}{lo},{hi}{hi_b}")
    return False


def _validate_numbers(section, values, name, problems):
    for key, limits in _NUMBER_FIELDS[section].items():
        if key in values:
            _validate_range(values[key], f"{name}.{key}", problems, **limits)


def _validate_axis(axis, name, problems, square_spacing):
    """``[start, stop, count]``; with ``square_spacing``, a spacing whose square is finite."""
    if not isinstance(axis, _SEQUENCE) or len(axis) != 3:
        problems.append(f"{name}: expected [start, stop, count]")
        return
    start, stop, count = axis
    ends = _validate_range(start, f"{name}.start", problems)
    ends &= _validate_range(stop, f"{name}.stop", problems)
    # compared as the floats the grid holds: 2**53 and 2**53 + 1 are one float
    if ends and float(stop) <= float(start):
        problems.append(f"{name}: start must be below stop")
    counted = _validate_range(count, f"{name}.count", problems, lo=3, integer=True)
    if square_spacing and ends and counted and _square_overflows((stop - start) / (count - 1)):
        problems.append(f"{name}: the square of its spacing overflows")


def _validate_list(value, name, problems, length=None, item=_validate_range, **limits):
    """A list of ``length`` entries (any number when None), each checked
    by ``item`` with ``limits``."""
    if not isinstance(value, _SEQUENCE) or length not in (None, len(value)):
        problems.append(f"{name}: expected a list" + (f" of {length}" if length else ""))
        return
    for k, v in enumerate(value):
        item(v, f"{name}[{k}]", problems, **limits)


def _validate_timed(value, name, problems):
    """A number, or ``{"base": b, "rate": r}`` for ``b + r * time``."""
    if not isinstance(value, dict):
        _validate_range(value, name, problems)
        return
    _check_keys("timed", value, name, problems)
    _validate_range(value.get("base"), f"{name}.base", problems)
    _validate_range(value.get("rate", 0.0), f"{name}.rate", problems)


def _validate_side(side, name, problems):
    if not isinstance(side, dict):
        problems.append(f"{name}: expected an object")
        return
    _check_keys("side", side, name, problems)
    shape = ("radius", "curvature", "theta", "rho", "tau")
    if "area" in side:
        _validate_range(side["area"], f"{name}.area", problems)
        extra = [key for key in shape if key in side]
        if extra:
            problems.append(f"{name}: a precomputed area excludes {extra}")
        return
    for key in shape:
        if key not in side:
            problems.append(f"{name}: missing '{key}' (or give a precomputed area)")
    if "radius" in side:
        _validate_timed(side["radius"], f"{name}.radius", problems)
    curv = side.get("curvature")
    if curv == {"kind": "sphere"}:
        pass
    elif isinstance(curv, dict) and set(curv) == {"value"}:
        _validate_timed(curv["value"], f"{name}.curvature.value", problems)
    elif isinstance(curv, dict) and not (curv and set(curv) <= _SECTION_KEYS["timed"]):
        problems.append(
            f'{name}.curvature: expected a number or one of {{"kind": "sphere"}}, '
            f'{{"value": v}}, {{"base": b, "rate": r}}; got {json.dumps(curv, sort_keys=True)}'
        )
    elif "curvature" in side:
        _validate_timed(curv, f"{name}.curvature", problems)
    for key in ("theta", "rho", "tau"):
        if key in side:
            _validate_list(side[key], f"{name}.{key}", problems, 2, _validate_timed)


def _validate_term(term, name, problems):
    """``[coefficient, [e0, e1, e2]]``, one term of a polynomial."""
    if not isinstance(term, _SEQUENCE) or len(term) != 2:
        problems.append(f"{name}: expected [coefficient, exponents]")
        return
    _validate_range(term[0], name, problems)
    _validate_list(term[1], f"{name} exponents", problems, 3, lo=0, integer=True)


def _validate_terms(components, name, problems):
    """Three polynomial components, each a list of terms."""
    _validate_list(
        components, name, problems, 3,
        lambda terms, where, p: _validate_list(terms, where, p, item=_validate_term),
    )


def _validate_field(spec, name, problems):
    if not isinstance(spec, dict):
        problems.append(f"{name}: expected an object")
        return
    _check_keys("field", spec, name, problems)
    _validate_terms(spec.get("drift"), f"{name}.drift", problems)
    noise = spec.get("noise")
    if isinstance(noise, dict):
        _check_keys("noise", noise, f"{name}.noise", problems)
        if "fourier_seed" not in noise:
            problems.append(f"{name}.noise: missing 'fourier_seed'")
        _validate_numbers("noise", noise, f"{name}.noise", problems)
    elif noise is not None:
        _validate_terms(noise, f"{name}.noise", problems)


def parse_scenario(path_or_dict):
    """Parse and fully validate a scenario document.

    Every violated precondition is collected; the raised
    :class:`ValidationError` lists all of them.  Malformed input of any
    shape ends in that error, never in another exception.
    """
    raw = path_or_dict
    if isinstance(raw, (str, os.PathLike)):
        try:
            with open(raw) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read scenario file {path_or_dict}: {exc}")
        except ValueError as exc:
            raise ValidationError(f"scenario is not well-formed JSON: {exc}")
    if not isinstance(raw, dict):
        raise ValidationError("scenario must be a JSON object")

    problems = []
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        problems.append(f"unknown top-level keys {sorted(map(str, unknown))}")
    for key in _REQUIRED:
        if key not in raw:
            problems.append(f"missing required section '{key}'")
    data = {}
    for key, default in _DEFAULTS.items():
        value = raw.get(key, default)
        if isinstance(default, dict) and isinstance(value, dict):
            value = {**default, **value}
        data[key] = json.loads(json.dumps(value)) if isinstance(value, dict) else value
    for key in (*_REQUIRED, *_OPTIONAL):
        if key in raw:
            data[key] = json.loads(json.dumps(raw[key]))

    if problems:
        raise ValidationError("invalid scenario", problems)

    # a section with a key table is an object (firms is a list of them)
    sections = [k for k in (*_REQUIRED, *_DEFAULTS) if k in _SECTION_KEYS]
    sections += [k for k in _OPTIONAL if data.get(k) is not None]
    for key in sections:
        if not isinstance(data[key], dict):
            problems.append(f"{key}: expected an object")
    firms = data["firms"]
    if not isinstance(firms, list) or len(firms) != 1:
        problems.append("firms: expected a list of one firm; only one firm is modelled")
    elif not isinstance(firms[0], dict):
        problems.append("firms[0]: expected an object")
    if problems:
        raise ValidationError("invalid scenario", problems)

    for section in sections:
        _check_keys(section, data[section], section, problems)
        if section in _NUMBER_FIELDS:
            _validate_numbers(section, data[section], section, problems)

    grid = data["grid"]
    for axis in ("time", "sigma1", "sigma2"):
        if axis not in grid:
            problems.append(f"grid: missing axis '{axis}'")
        else:
            _validate_axis(grid[axis], f"grid.{axis}", problems, axis != "time")

    metric = data["metric"]
    if "file" in metric:
        if not isinstance(metric["file"], str):
            problems.append("metric.file: expected a path")
        elif not os.path.exists(metric["file"]):
            problems.append(f"metric: file not found: {metric['file']}")
    elif "preset" not in metric:
        problems.append("metric: needs either a preset or a file")
    elif metric["preset"] not in METRIC_PRESETS:
        problems.append(f"metric: unknown preset '{metric['preset']}'")
    elif metric["preset"] == "constant":
        rows = metric.get("matrix")
        if not isinstance(rows, _SEQUENCE) or not rows:
            problems.append("metric: constant preset needs a square matrix")
        else:
            for i, row in enumerate(rows):
                _validate_list(row, f"metric.matrix[{i}]", problems, len(rows))

    if data["background"].get("preset") not in BACKGROUND_PRESETS:
        problems.append(f"background: unknown preset '{data['background'].get('preset')}'")

    firm = firms[0]
    _check_keys("firm", firm, "firms[0]", problems)
    for key in ("share", "strategy", "alpha_own", "alpha_other", "coop_own", "coop_other"):
        if key not in firm:
            problems.append(f"firms[0]: missing '{key}'")
    if "share" in firm:
        _validate_list(firm["share"], "firms[0].share", problems, 3)
    _validate_numbers("firm", firm, "firms[0]", problems)

    if data["profit"].get("preset") not in PROFIT_PRESETS:
        problems.append(f"profit: unknown preset '{data['profit'].get('preset')}'")

    for key in ("ghost", "fp_det"):
        if not isinstance(data["action"][key], bool):
            problems.append(f"action.{key}: expected true or false")

    _validate_range(data["rho_grid"], "rho_grid", problems, lo=16, integer=True)

    poly = data.get("polygon")
    if poly is not None:
        sides = poly.get("sides")
        if not isinstance(sides, list) or not sides:
            problems.append("polygon: needs a non-empty side list")
        else:
            for i, side in enumerate(sides):
                _validate_side(side, f"polygon.sides[{i}]", problems)

    fields = data.get("fields")
    if fields is not None:
        for name in ("v", "u"):
            if name not in fields:
                problems.append(f"fields: missing '{name}'")
            else:
                _validate_field(fields[name], f"fields.{name}", problems)

    if problems:
        raise ValidationError("invalid scenario", problems)

    config = ScenarioConfig(data)
    # cross-field checks, on fields already in range
    try:
        config.build_grid()
    except ValidationError as exc:
        problems += exc.problems
    if firm.get("area") is not None:
        region = effective_region(firm["area"], firm["alpha_own"], firm["coop_own"])
        if not 0 <= firm["strategy"] <= region:
            problems.append(
                f"firms[0].strategy {firm['strategy']} lies outside the committed "
                f"region [0, {region:.6g}]"
            )
    if problems:
        raise ValidationError("invalid scenario", problems)
    return config
