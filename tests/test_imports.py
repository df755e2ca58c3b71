"""Modules of the package import only public names from one another, and
only names they use.

A private helper such as ``permgroup._conjugations`` stays behind its
module's public functions (``conjugates``), so one module alone knows how
it is walked.  ``__init__.py`` is exempt from the unused-name check: its
imports are the public API.
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


def unused_imports(path):
    """(line, name) for each name ``path`` imports and never reads; a
    ``__future__`` import switches a feature on and binds nothing read."""
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in read)


def test_modules_import_no_unused_names():
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert paths
    found = {p.name: unused_imports(p) for p in paths}
    assert {name: f for name, f in found.items() if f} == {}


def test_unused_import_is_caught(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from __future__ import annotations\n"
                    "import json, os.path\n"
                    "from itertools import accumulate, chain, islice\n"
                    "from operator import add as plus, mul\n"
                    "def f(xs) -> json.JSONDecoder:\n"
                    "    from math import gcd\n"
                    "    return plus(accumulate(xs), islice(xs, 2))\n")
    assert unused_imports(path) == [(2, "os"), (3, "chain"), (4, "mul"), (6, "gcd")]
