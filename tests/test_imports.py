"""Modules of the package import only public names from one another, and
only names they use, every private module-level name is read by the
package itself, not by the tests alone, and a module reads another's
private attributes only where it assigns them too; a module imports
only at its top level, and every text file it reads or writes names its
encoding.

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


def local_imports(path):
    """(line, scope) for each import inside a function or class of ``path``,
    scope the innermost one's name: a module imports at its top level, where
    a reader finds every name it takes from elsewhere."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if scope and isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((child.lineno, scope))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if named else scope)

    visit(ast.parse(path.read_text(), str(path)), None)
    return found


def test_modules_import_only_at_top_level():
    # one exception: abelianized_matrix imports IntMatrix when it runs, which
    # breaks the freewords <-> quotients import cycle
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [(p.name, scope) for p in paths for _, scope in local_imports(p)]
    assert found == [("freewords.py", "abelianized_matrix")]


def test_local_import_is_caught(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import json\n"
                    "try:\n"
                    "    import tomllib\n"
                    "except ImportError:\n"
                    "    tomllib = None\n"
                    "def load(text):\n"
                    "    from .quotients import IntMatrix\n"
                    "    return IntMatrix(json.loads(text))\n"
                    "class Reader:\n"
                    "    import os\n"
                    "    def read(self):\n"
                    "        if self:\n"
                    "            import re, sys\n"
                    "        return tomllib\n")
    assert local_imports(path) == [(7, "load"), (10, "Reader"), (13, "read")]


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


def foreign_private_attribute_reads(paths):
    """(module, line, name) for each read of ``obj._x`` in a module that
    never assigns ``_x`` while another module of ``paths`` does: a private
    attribute one module fills is read through that module's public names,
    such as ``FiniteGroup.class_of``, not by reaching past them."""
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in paths}

    def private_attributes(tree, ctx):
        return [(node.lineno, node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ctx)
                and node.attr.startswith("_") and not node.attr.endswith("__")]

    stores = {module: {name for _, name in private_attributes(tree, ast.Store)}
              for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        others = set().union(*(names for m, names in stores.items() if m != module))
        found += [(module, line, name) for line, name in private_attributes(tree, ast.Load)
                  if name in others and name not in stores[module]]
    return sorted(found)


def test_modules_read_no_private_attributes_another_module_assigns():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    assert foreign_private_attribute_reads(paths) == []


def test_foreign_private_attribute_read_is_caught(tmp_path):
    (tmp_path / "a.py").write_text("class Group:\n"
                                   "    def __init__(self):\n"
                                   "        self._rows = self._cache = None\n"
                                   "    def rows(self):\n"
                                   "        return self._rows\n")
    (tmp_path / "b.py").write_text("def plan(g, act):\n"
                                   "    if act._trace is None:\n"
                                   "        act._trace = g._rows\n"
                                   "    return act._trace, g._cache, g._helper(), g.__dict__\n")
    assert foreign_private_attribute_reads(sorted(tmp_path.glob("*.py"))) == [
        ("b.py", 3, "_rows"), ("b.py", 4, "_cache")]


def implicit_encodings(path):
    """(line, call) for each call in ``path`` of the builtin ``open`` or of a
    ``.read_text`` or ``.write_text`` method that passes no ``encoding=``:
    without it the locale picks the encoding, and a UTF-8 input fails to
    decode under an ASCII one."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call) or any(k.arg == "encoding" for k in node.keywords):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            found.append((node.lineno, "open"))
        elif isinstance(func, ast.Attribute) and func.attr in ("read_text", "write_text"):
            found.append((node.lineno, func.attr))
    return sorted(found)


def test_modules_name_every_text_encoding():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = {p.name: implicit_encodings(p) for p in paths}
    assert {name: f for name, f in found.items() if f} == {}


def test_implicit_encoding_is_caught(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import os\n"
                    "def load(path, out):\n"
                    "    with open(path) as fh:\n"
                    "        text = fh.read() + path.read_text()\n"
                    "    out.write_text(text, encoding='utf-8')\n"
                    "    os.open(path, os.O_RDONLY)\n"
                    "    with open(path, mode='w', encoding='utf-8') as fh:\n"
                    "        fh.write(text)\n"
                    "    out.write_text(text)\n"
                    "    return open(path, 'r')\n")
    assert implicit_encodings(path) == [(3, "open"), (4, "read_text"), (9, "write_text"),
                                        (10, "open")]
