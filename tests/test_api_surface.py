"""Every public callable of the package serves a stage or a subcommand,
and every optional parameter of one is set by some call in the package.

The walk starts at ``semicoop.cli.main`` and at the top-level statements
of every module, and follows identifiers through the package's source:
a public function, class or method is reached when reached code names it,
as a bare name or as an attribute.  Reaching a class walks its
decorators, bases, class body and underscore methods (constructors and
dunders run without being named); its public methods are reached by name
like everything else.  Matching by name alone can only over-count what is
reached, so a callable reported unreached is called by nothing in the
package.  Imports do not count as use.

The parameter check takes every defaulted parameter of a public function,
method or class constructor (an ``__init__`` or the ``dataclass`` fields)
and looks for a call in the package that passes it, by keyword or by
position.  Calls are matched by the callable's bare name, and a call that
unpacks ``*args`` or ``**kwargs`` counts as passing every parameter; a
``replace(obj, name=...)`` call passes ``name`` to every dataclass with
that field.  So the check can only over-count what is passed, and a
parameter reported unpassed always takes its default in the package.
"""

import ast
import shutil
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semicoop"

# unreached public callables that stay, each with the reason
ALLOWED_UNREACHED = {
    "fieldio.read_ensemble": "the reader of the paths.bin format; the benchmark "
    "reads ensembles back with it",
}


def definitions(package=PACKAGE):
    """``(nodes, by_name, top_level)``: every module-level function and
    class and every method by qualified name, the qualified names per bare
    name, and each module's other top-level statements."""
    nodes, by_name, top_level = {}, defaultdict(list), []
    for path in sorted(Path(package).glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top_level.append(node)
                continue
            qualified = f"{path.stem}.{node.name}"
            nodes[qualified] = node
            by_name[node.name].append(qualified)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        nodes[f"{qualified}.{item.name}"] = item
                        by_name[item.name].append(f"{qualified}.{item.name}")
    return nodes, by_name, top_level


def identifiers(node):
    """Names and attribute names that running ``node`` can use."""
    if isinstance(node, ast.ClassDef):
        parts = node.decorator_list + node.bases + [k.value for k in node.keywords]
        parts += [
            item
            for item in node.body
            if not isinstance(item, ast.FunctionDef) or item.name.startswith("_")
        ]
    else:
        parts = [node]
    for part in parts:
        for n in ast.walk(part):
            if isinstance(n, ast.Name):
                yield n.id
            elif isinstance(n, ast.Attribute):
                yield n.attr


def unreached_public(package=PACKAGE):
    nodes, by_name, top_level = definitions(package)
    reached = {"cli.main"}
    pending = [nodes["cli.main"], *top_level]
    while pending:
        for name in identifiers(pending.pop()):
            for qualified in by_name.get(name, ()):
                if qualified not in reached:
                    reached.add(qualified)
                    pending.append(nodes[qualified])
    public = {q for q in nodes if not any(p.startswith("_") for p in q.split(".")[1:])}
    return public - reached


def test_every_public_callable_is_reached_or_allowed():
    assert unreached_public() == set(ALLOWED_UNREACHED)



# deleted callables, written back as (module, anchor, source): the source
# goes in front of the anchor line, or at the end of the module without one
RESTORED = {
    "brane.pullbacks": (
        "brane",
        None,
        "def pullbacks(config):\n    jac = config.embedding_jacobian()\n"
        "    return jac @ np.swapaxes(jac, -1, -2)\n",
    ),
    "geometry.contracted_christoffel": (
        "geometry",
        "def covariant_laplacian(",
        "def contracted_christoffel(metric):\n"
        "    gamma = metric.connection\n"
        "    return np.einsum(\"...ab,...cab->...c\", metric.inverse, gamma)\n\n\n",
    ),
    "market.path_payoffs": (
        "market",
        None,
        "def path_payoffs(ensemble):\n    return ensemble.values[:, -1].sum(axis=-1)\n",
    ),
    "market.FirmState": (
        "market",
        None,
        "@dataclass\nclass FirmState:\n    share: np.ndarray\n    strategy: float\n",
    ),
    "profitops.commutator": (
        "profitops",
        None,
        "def commutator(a, b):\n    return a @ b - b @ a\n",
    ),
    "vectorfields.curvature_present": (
        "vectorfields",
        None,
        "def curvature_present(field_v, field_u, points):\n"
        "    return any(lie_bracket(field_v, field_u, p).any() for p in points)\n",
    ),
    "polygon.EllipsoidPatch.curvature_at": (
        "polygon",
        "def patch_area(",
        "    def curvature_at(self, theta, rho):\n"
        "        return np.full(np.shape(theta), self.curvature)\n\n\n",
    ),
    "scenario.ScenarioConfig.build_firms": (
        "scenario",
        "    def profit(self, u_own):",
        "    def build_firms(self):\n"
        "        return [FirmState(**firm) for firm in self.data[\"firms\"]]\n\n",
    ),
    "stubbornness.sample_gff": (
        "stubbornness",
        "def stubbornness_measure(",
        "def sample_gff(grid_size, seed):\n    return GFFSampler(grid_size, seed).sample()\n\n\n",
    ),
    "grids.GridSpec.from_dict": (
        "grids",
        "    @property\n    def n_axes(",
        "    @classmethod\n    def from_dict(cls, data):\n"
        "        extents = tuple(tuple(e) for e in data[\"extents\"])\n"
        "        return cls(extents, tuple(data[\"counts\"]))\n\n",
    ),
    "grids.GridSpec.subgrid": (
        "grids",
        "    @classmethod\n    def from_axes(",
        "    def subgrid(self, axis):\n"
        "        return GridSpec(self.extents[:axis], self.counts[:axis])\n\n",
    ),
}


@pytest.mark.parametrize("qualified", sorted(RESTORED))
def test_restored_callable_is_reported(tmp_path, qualified):
    """Writing a deleted callable back into a copy of the package, with
    nothing calling it, makes the surface check fail on exactly that name."""
    module, anchor, source = RESTORED[qualified]
    package = tmp_path / "semicoop"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    path = package / f"{module}.py"
    text = path.read_text()
    if anchor is None:
        text += "\n\n" + source
    else:
        assert text.count(anchor) == 1
        text = text.replace(anchor, source + anchor)
    path.write_text(text)
    assert unreached_public(package) == set(ALLOWED_UNREACHED) | {qualified}


# defaulted parameters no package call passes that stay, each with the reason
ALLOWED_UNPASSED = {
    "market.simulate.increments": "explicit Brownian increments: the common-noise "
    "oracle of the strong-order and thread-independence tests",
    "cli.main.argv": "None reads sys.argv, the console entry point's call",
}


def _is_dataclass(node):
    targets = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(getattr(t, "id", getattr(t, "attr", None)) == "dataclass" for t in targets)


def _dataclass_fields(node):
    """``(names, defaulted)`` of the constructor fields of a dataclass."""
    names, defaulted = [], set()
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            if getattr(keywords.get("init"), "value", True) is False:
                continue
            if keywords.keys() & {"default", "default_factory"}:
                defaulted.add(item.target.id)
        elif value is not None:
            defaulted.add(item.target.id)
        names.append(item.target.id)
    return names, defaulted


def _function_params(node, bound):
    """``(positional names, defaulted names)`` of a function, without the
    ``self`` or ``cls`` of a method."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = set(positional[len(positional) - len(args.defaults) :] if args.defaults else ())
    defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
    if bound and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list):
        positional = positional[1:]
    return positional, defaulted


def optional_parameters(package=PACKAGE):
    """``(qualified, positional names, defaulted names, is_class)`` of every
    public callable with a defaulted parameter; a class stands for its
    constructor."""
    found = []
    for qualified, node in definitions(package)[0].items():
        parts = qualified.split(".")
        if any(p.startswith("_") for p in parts[1:]):
            continue
        is_class = isinstance(node, ast.ClassDef)
        if not is_class:
            params = _function_params(node, bound=len(parts) == 3)
        else:
            init = [i for i in node.body if getattr(i, "name", None) == "__init__"]
            if init:
                params = _function_params(init[0], bound=True)
            elif _is_dataclass(node):
                params = _dataclass_fields(node)
            else:
                continue
        if params[1]:
            found.append((qualified, *params, is_class))
    return found


def unpassed_parameters(package=PACKAGE):
    """Qualified names of defaulted parameters that no call in the package
    passes."""
    found = optional_parameters(package)
    by_name = defaultdict(list)
    for qualified, positional, defaulted, _ in found:
        by_name[qualified.rsplit(".", 1)[1]].append((qualified, positional, defaulted))
    fields = {(q, f) for q, _, defaulted, is_class in found if is_class for f in defaulted}
    passed = set()
    for path in sorted(Path(package).glob("*.py")):
        tree = ast.parse(path.read_text())
        # ``cls(...)`` in a class body constructs that class
        own_class = {
            id(call): node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "cls"
        }
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = own_class.get(id(call), getattr(call.func, "id", getattr(call.func, "attr", None)))
            keywords = {k.arg for k in call.keywords}
            if name == "replace":
                passed |= {(q, f) for q, f in fields if f in keywords}
            unpack = None in keywords or any(isinstance(a, ast.Starred) for a in call.args)
            for qualified, positional, defaulted in by_name.get(name, ()):
                given = keywords | set(positional[: len(call.args)])
                passed |= {(qualified, p) for p in defaulted if unpack or p in given}
    return {
        f"{q}.{p}" for q, _, defaulted, _ in found for p in defaulted if (q, p) not in passed
    }


def test_every_optional_parameter_is_passed_or_allowed():
    assert unpassed_parameters() == set(ALLOWED_UNPASSED)


# deleted parameters, written back as (module, old text, new text)
RESTORED_PARAMETERS = {
    "brane.ghost_action.ghost_c": (
        "brane",
        "def ghost_action(metric, epsilon_step):",
        "def ghost_action(metric, epsilon_step, ghost_c=None):",
    ),
    "evolution.optimal_rho.rho_min": (
        "evolution",
        "def optimal_rho(rho_to_scale, stationary):",
        "def optimal_rho(rho_to_scale, stationary, rho_min=0.05):",
    ),
    "evolution.KernelSpec.mode": (
        "evolution",
        "    domain_halfwidth: float = 1.0\n",
        "    domain_halfwidth: float = 1.0\n    mode: str = \"wick\"\n",
    ),
    "fieldio.EnsembleWriter.seed": (
        "fieldio",
        "def __init__(self, path, times, paths, components):",
        "def __init__(self, path, times, paths, components, seed=None):",
    ),
    "fieldio.write_grid.extra": (
        "fieldio",
        "def write_grid(path, values, grid):",
        "def write_grid(path, values, grid, extra=None):",
    ),
    "market.SDECoefficients.drift": (
        "market",
        "    diffusion_table: np.ndarray = field(repr=False)\n",
        "    diffusion_table: np.ndarray = field(repr=False)\n    drift: object = None\n",
    ),
    "scenario.ScenarioConfig.build_metric.grid": (
        "scenario",
        "def build_metric(self):",
        "def build_metric(self, grid=None):",
    ),
    "scenario.ScenarioConfig.build_polygon.quadrature_nodes": (
        "scenario",
        "def build_polygon(self, time=0.0):",
        "def build_polygon(self, time=0.0, quadrature_nodes=32):",
    ),
    "stubbornness.GFFSampler.domain_length": (
        "stubbornness",
        "def __init__(self, grid_size, seed):",
        "def __init__(self, grid_size, seed, domain_length=1.0):",
    ),
    "vectorfields.lie_bracket.spacing": (
        "vectorfields",
        "def lie_bracket(field_v, field_u, point):",
        "def lie_bracket(field_v, field_u, point, spacing=None):",
    ),
}


@pytest.mark.parametrize("qualified", sorted(RESTORED_PARAMETERS))
def test_restored_parameter_is_reported(tmp_path, qualified):
    """Writing a deleted optional parameter back into a copy of the
    package, with no call passing it, makes the parameter check fail on
    exactly that name."""
    module, old, new = RESTORED_PARAMETERS[qualified]
    package = tmp_path / "semicoop"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    path = package / f"{module}.py"
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    assert unpassed_parameters(package) == set(ALLOWED_UNPASSED) | {qualified}
