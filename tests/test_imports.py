"""Modules of the package import only public names from one another, and
only names they use, and every private module-level name is read by the
package itself, not by the tests alone.

A private helper such as ``permgroup._conjugations`` stays behind its
module's public functions (``conjugates``), so one module alone knows how
it is walked.  ``__init__.py`` is exempt from the unused-name check: its
imports are the public API.
"""

import ast
from collections import Counter
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


def private_names_without_a_caller(paths):
    """(module, name) for each module-level private name, a function, class
    or assignment, that no module of ``paths`` reads outside the name's own
    definition: a helper kept only as a seam for tests is caught."""
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in paths}

    def reads(node):
        return Counter(n.id for n in ast.walk(node)
                       if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))

    read = sum(map(reads, trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [(module, name) for name in names
                      if name.startswith("_") and not name.endswith("__")
                      and read[name] == reads(node)[name]]
    return sorted(found)


def test_private_names_have_a_caller():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    assert private_names_without_a_caller(paths) == []


def test_private_name_without_a_caller_is_caught(tmp_path):
    (tmp_path / "a.py").write_text("_CAP = 1\n"
                                   "_SEAM: int = 2\n"
                                   "def _helper(n):\n"
                                   "    return _helper(n - 1) if n else _CAP\n"
                                   "class _Row(tuple):\n"
                                   "    pass\n"
                                   "def _adapter(g, x):\n"
                                   "    return g._row(x)\n"
                                   "__all__ = ['run']\n")
    (tmp_path / "b.py").write_text("from .a import _Row\n"
                                   "def run(g):\n"
                                   "    return _Row(g._adapter)\n")
    assert private_names_without_a_caller(sorted(tmp_path.glob("*.py"))) == [
        ("a.py", "_SEAM"), ("a.py", "_adapter"), ("a.py", "_helper")]
