"""Every public name has a caller outside the tests: code that only tests
use lives in the tests, as a twin, not in the library."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import walkup
from walkup.complex import DualGraph, SimplicialComplex

ROOT = Path(__file__).resolve().parent.parent

# Methods kept for perfbench/tracing.py, which wraps them by name until the
# benchmark reads counters from the library (ROADMAP item 10); each must
# stay in the tracer's METHODS table.
NO_CALLER_NEEDED = {
    "SimplicialComplex.faces_by_dim": "the benchmark tracer wraps it by name",
    "SimplicialComplex.graph_distance": "the benchmark tracer wraps it by name",
}


def _callers() -> tuple[set[str], set[str]]:
    """The Name ids and the Attribute attrs read in the library's layers
    (the package's __init__ aside), the scripts and the benchmark."""
    files = [p for p in (ROOT / "src" / "walkup").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names: set[str] = set()
    attrs: set[str] = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def _traced_methods() -> set[str]:
    """Class.method for each entry of the METHODS table of
    perfbench/tracing.py, read from its source, not imported."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    table = next(
        node.value for node in tree.body if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "METHODS" for t in node.targets)
    )
    return {f"{cls}.{m}" for cls, methods in ast.literal_eval(table).values()
            for m in methods}


def _public_methods(cls) -> list[str]:
    return [
        f"{cls.__name__}.{name}" for name, value in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, property))
    ]


def test_every_public_name_has_a_caller_outside_the_tests():
    names, attrs = _callers()
    uncalled = [name for name in walkup.__all__ if name not in names | attrs]
    uncalled += [
        method for cls in (SimplicialComplex, DualGraph)
        for method in _public_methods(cls)
        if method.split(".")[1] not in attrs and method not in NO_CALLER_NEEDED
    ]
    assert uncalled == []


def test_methods_without_a_caller_are_the_ones_the_tracer_wraps():
    traced = _traced_methods()
    assert "SimplicialComplex.adjacency" in traced
    assert [name for name in NO_CALLER_NEEDED if name not in traced] == []
