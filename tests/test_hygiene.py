"""Source hygiene that no installed linter enforces: every imported name is
used, and every public name of the package has a caller or is exported."""

import ast
from pathlib import Path

import pytest

import gausdisk

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "gausdisk").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names bound by an import in ``source`` and referenced nowhere in it.

    ``from __future__`` imports are skipped, and a string naming the import
    (in ``__all__`` or anywhere else) is not a use.  Scopes are not told
    apart: a reference anywhere in the module uses the name.
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
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_flags_an_unused_name_even_when_listed_in_all():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys\nfrom math import pi, tau as turn\n"
        "__all__ = ['pi']\nprint(os.path.sep)\n"
    )
    # Only the package's __init__ has an __all__, built from _EXPORTS
    # (test_public_names_have_a_caller), so a name listed only there is unused.
    assert unused_imports(source) == ["pi (line 4)", "sys (line 3)", "turn (line 4)"]


def uncalled_public_names(sources: dict, exported: set) -> list:
    """Module-level ``def`` and ``class`` names without a leading underscore
    that are neither in ``exported`` nor referenced, as a bare name or an
    attribute, in any of ``sources`` (module name to source text)."""
    defined, referenced = [], set()
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        defined.extend(
            (module, node.name, node.lineno)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [
        f"{module}.{name} (line {line})"
        for module, name, line in defined
        if name not in exported and name not in referenced
    ]


def test_public_names_have_a_caller():
    # The package's one list of public names is gausdisk._EXPORTS; modules
    # declare no __all__ of their own.
    package = ROOT / "src" / "gausdisk"
    sources = {path.stem: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    exported = {name for names in gausdisk._EXPORTS.values() for name in names}
    assert uncalled_public_names(sources, exported) == []
    declaring = [
        module
        for module, source in sources.items()
        if any(
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for node in ast.parse(source).body
        )
    ]
    assert declaring == ["__init__"]


def test_detector_flags_an_uncalled_name_and_spares_callers():
    sources = {
        "a": "def used():\n    pass\n\n\ndef lost():\n    pass\n\n\nclass Shown:\n    pass\n",
        "b": "from .a import used\nimport a\nused()\na.Attr\n\n\ndef _private():\n    pass\n",
        "c": "class Attr:\n    def method(self):\n        pass\n",
    }
    # Shown is exported, used is called by name, Attr is reached as an
    # attribute, and a method or a private def is never a public name.
    assert uncalled_public_names(sources, {"Shown"}) == ["a.lost (line 5)"]
    assert uncalled_public_names(sources, set()) == ["a.lost (line 5)", "a.Shown (line 9)"]


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
