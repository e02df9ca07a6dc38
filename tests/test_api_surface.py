"""Every public callable of the package serves a stage or a subcommand.

The walk starts at ``semicoop.cli.main`` and at the top-level statements
of every module, and follows identifiers through the package's source:
a public function, class or method is reached when reached code names it,
as a bare name or as an attribute.  Reaching a class walks its
decorators, bases, class body and underscore methods (constructors and
dunders run without being named); its public methods are reached by name
like everything else.  Matching by name alone can only over-count what is
reached, so a callable reported unreached is called by nothing in the
package.  Imports do not count as use.
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
    "fieldio.sha256_of": "the writers hash what they write, so the package no "
    "longer reads files back; perfbench/run.py imports it to check every "
    "artifact's manifest digest",
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
    "market.path_payoffs": (
        "market",
        None,
        "def path_payoffs(ensemble):\n    return ensemble.values[:, -1].sum(axis=-1)\n",
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
