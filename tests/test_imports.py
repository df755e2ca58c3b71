"""Modules of the package import only public names from one another.

A private helper such as ``permgroup._conjugations`` stays behind its
module's public functions (``conjugates``), so one module alone knows how
it is walked.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cheblink"


def private_sibling_imports(path):
    """(line, module, name) for each private name ``path`` imports from a
    module of the package, by a relative or an absolute import."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "cheblink":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append((node.lineno, module, alias.name))
    return found


def test_modules_import_no_private_sibling_names():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = {p.name: private_sibling_imports(p) for p in paths}
    assert {name: f for name, f in found.items() if f} == {}


def test_private_import_is_caught(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from __future__ import annotations\n"
                    "from .permgroup import FiniteGroup, _conjugations\n"
                    "from cheblink.sft import _lift_moves\n")
    assert private_sibling_imports(path) == [(2, "permgroup", "_conjugations"),
                                             (3, "cheblink.sft", "_lift_moves")]
