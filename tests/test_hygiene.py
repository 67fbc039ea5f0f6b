"""Source hygiene that no installed linter enforces: every imported name is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "gausdisk").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names bound by an import in ``source`` and referenced nowhere in it.

    A name written as a string in the module's ``__all__`` list counts as
    used (it is re-exported), and ``from __future__`` imports are skipped.
    Scopes are not told apart: a reference anywhere in the module uses the
    name.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value
                for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant)
            )
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_flags_an_unused_name_and_spares_exports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys\nfrom math import pi, tau as turn\n"
        "__all__ = ['pi']\nprint(os.path.sep)\n"
    )
    assert unused_imports(source) == ["sys (line 3)", "turn (line 4)"]
    # A computed entry of __all__ exports no imported name.
    computed = source.replace("['pi']", "['pi', *sorted(globals())]")
    assert unused_imports(computed) == ["sys (line 3)", "turn (line 4)"]


def package_imports() -> dict:
    """Each module of the package mapped to the package modules it imports
    with ``from .x import`` or ``from . import x``; ``from . import`` also
    runs the package's ``__init__``."""
    package = ROOT / "src" / "gausdisk"
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for name in modules:
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        edges = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    edges.add("__init__")
                    edges.update(a.name for a in node.names if a.name in modules)
                else:
                    edges.add(node.module.split(".")[0])
        graph[name] = edges
    return graph


def import_cycle(graph: dict) -> list:
    """One cycle of ``graph`` as a list of modules, or [] when it has none."""
    state = {}  # module -> "open" while on the path, "done" once cleared

    def visit(name, path):
        state[name] = "open"
        for dep in sorted(graph.get(name, ())):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state:
                found = visit(dep, path + [dep])
                if found:
                    return found
        state[name] = "done"
        return []

    for name in sorted(graph):
        if name not in state:
            found = visit(name, [name])
            if found:
                return found
    return []


def test_package_imports_form_no_cycle():
    graph = package_imports()
    assert graph["cli"] >= {"__init__", "checks", "measures"}  # the reader sees every form
    assert import_cycle(graph) == []


def test_cycle_finder_reports_a_loop():
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert import_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) == []


def test_measures_import_nothing_from_hermite():
    # A rule is a measure: hermite builds on measures, never the reverse.
    graph = package_imports()
    assert "hermite" not in graph["measures"]
    assert "measures" in graph["hermite"]
