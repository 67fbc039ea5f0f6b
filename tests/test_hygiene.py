"""Source hygiene that no installed linter enforces: every imported name is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "gausdisk").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names bound by an import in ``source`` and referenced nowhere in it.

    A name listed in the module's ``__all__`` counts as used (it is
    re-exported), and ``from __future__`` imports are skipped.  Scopes are
    not told apart: a reference anywhere in the module uses the name.
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
            used.update(ast.literal_eval(node.value))
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
