"""Every name a module of `szk` imports is used in that module, no module
brings the `dataclasses` machinery onto the cold path, every memo is
bounded, and every private module-level name is read by the library.

`__init__.py` is left out of the unused-import check: it imports names to
re-export them.
"""

import ast
import subprocess
import sys
from collections import Counter

import pytest

from tests.conftest import ROOT

SOURCES = sorted((ROOT / "src" / "szk").glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Tuple\nx: List\n") \
        == [(1, "os"), (2, "Tuple")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str):
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module)
    return out


def test_finds_an_imported_module():
    assert imported_modules("import os.path\nfrom dataclasses import field\n"
                            "from . import core\n") == {"os.path", "dataclasses"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_dataclasses(path):
    # records derive from core.Record: dataclasses loads inspect, ast, dis and
    # tokenize, and builds each class at start-up
    assert not {m for m in imported_modules(path.read_text())
                if m.partition(".")[0] == "dataclasses"}


# Without site (-S) and environment (-E), so that only szk's own imports
# count, and writing no byte code (-B): the modules added by `import
# szk.cli`, then by the modules that a cold rank, classify, vc, eval or index
# call loads besides
_COLD_IMPORT = """\
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import szk.cli
cli = set(sys.modules)
import szk.ppeval, szk.rank
print(" ".join(sorted(cli - before)))
print(" ".join(sorted(set(sys.modules) - cli)))
"""


def test_cold_import_loads_no_dataclasses():
    proc = subprocess.run(
        [sys.executable, "-B", "-E", "-S", "-c", _COLD_IMPORT, str(ROOT / "src")],
        capture_output=True, text=True, timeout=30, check=True)
    by_cli, by_rest = (set(line.split()) for line in proc.stdout.splitlines())
    assert {"szk.cli", "szk.core", "argparse"} <= by_cli
    assert {"szk.rank", "szk.ppeval"} <= by_rest
    for added in (by_cli, by_rest):
        assert not added & {"dataclasses", "inspect"}


def int_constants(tree: ast.Module):
    """The module-level names a module binds to an int literal."""
    return {target.id for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and type(node.value.value) is int
            for target in node.targets if isinstance(target, ast.Name)}


def unbounded_memos(source: str, package=None):
    """The lines of the `functools` memos that name no int maxsize: a
    `cache`, a bare `lru_cache`, or one whose maxsize is not an int literal
    or a module constant bound to one, in this module or in the sibling
    module it imports the constant from (`package` maps a sibling's name
    to its source)."""
    tree = ast.parse(source)
    ints = int_constants(tree)
    for node in tree.body:
        if (isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module in (package or {})):
            there = int_constants(ast.parse(package[node.module]))
            ints |= {alias.asname or alias.name for alias in node.names
                     if alias.name in there}
    names = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names}

    def memo(node):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "functools"):
            name = node.attr
        else:
            name = names.get(node.id) if isinstance(node, ast.Name) else None
        return name if name in ("cache", "lru_cache") else None

    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and memo(node.func) == "lru_cache":
            size = next((k.value for k in node.keywords if k.arg == "maxsize"),
                        node.args[0] if node.args else None)
            if (isinstance(size, ast.Constant) and type(size.value) is int
                    or isinstance(size, ast.Name) and size.id in ints):
                bounded.add(node.func)
    return sorted(node.lineno for node in ast.walk(tree)
                  if memo(node) and node not in bounded)


def test_finds_an_unbounded_memo():
    assert unbounded_memos(
        "import functools\nfrom functools import lru_cache as lc, cache\n"
        "SIZE = 8\nNAME = 'x'\n"
        "@functools.lru_cache(maxsize=SIZE)\ndef a(): pass\n"
        "@lc(16)\ndef b(): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef c(): pass\n"
        "@functools.lru_cache\ndef d(): pass\n"
        "@cache\ndef e(): pass\n"
        "@lc(maxsize=NAME)\ndef f(): pass\n"
        "g = functools.lru_cache()(len)\n") == [9, 11, 13, 15, 17]


def test_finds_an_unbounded_imported_memo_size():
    package = {"core": "SIZE = 4\nNAME = 'x'\n"}
    assert unbounded_memos(
        "import functools\nfrom .core import SIZE as S, NAME\n"
        "from .other import MORE\n"
        "@functools.lru_cache(maxsize=S)\ndef a(): pass\n"
        "@functools.lru_cache(maxsize=NAME)\ndef b(): pass\n"
        "@functools.lru_cache(maxsize=MORE)\ndef c(): pass\n",
        package) == [6, 8]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_memos_are_bounded(path):
    # a memo lives as long as the process: a `fuzz` stream or a library
    # caller would grow an unbounded one without limit
    package = {p.stem: p.read_text() for p in SOURCES}
    assert unbounded_memos(path.read_text(), package) == []


def read_names(tree: ast.AST) -> Counter:
    """The names the code under a node reads, as names or as attributes."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   or isinstance(node, ast.Name)
                   and isinstance(node.ctx, ast.Load))


def defined_names(node: ast.stmt):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unread_privates(sources):
    """(file, line, name) of each module-level `_private` name that no code
    in sources reads outside the name's own definition."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    reads = sum(map(read_names, trees.values()), Counter())
    return sorted((path, node.lineno, name)
                  for path, tree in trees.items() for node in tree.body
                  for name in defined_names(node)
                  if name.startswith("_") and not name.startswith("__")
                  and reads[name] == read_names(node)[name])


def test_finds_an_unread_private_name():
    sources = {
        "a.py": "_A = 1\n_B = 2\ndef _f():\n    return _f() + _B\n"
                "class _C: pass\n_D: int = 3\n__all__ = []\n",
        "b.py": "from a import _C\nimport a\nx = _C, a._D\n",
    }
    assert unread_privates(sources) == [("a.py", 1, "_A"), ("a.py", 3, "_f")]


def test_no_test_only_private_name():
    # a private helper that only tests read belongs in the tests
    assert unread_privates({p.name: p.read_text() for p in SOURCES}) == []


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def dotted(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return dotted(node.value) + "." + node.attr
    return node.id if isinstance(node, ast.Name) else ""


def foreign_privates(source: str):
    """(line, name) of each `_private` name of another `szk` module that
    source imports, or reads as an attribute of an `szk` module."""
    tree = ast.parse(source)
    modules, out = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.partition(".")[0] == "szk"):
            for alias in node.names:
                if private(alias.name):
                    out.append((node.lineno, alias.name))
                if node.module in (None, "szk"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.partition(".")[0] == "szk")
    out += [(node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and private(node.attr)
            and dotted(node.value) in modules]
    return sorted(out)


def test_finds_a_foreign_private_name():
    source = ("from . import oracle, rank as r\nfrom .core import _a, b\n"
              "import szk.normalize\nfrom szk.ppeval import _c\n"
              "x = r._d, oracle.e, szk.normalize._f, self._g, oracle.__name__\n")
    assert foreign_privates(source) == [(2, "_a"), (4, "_c"), (5, "_d"),
                                        (5, "_f")]


def test_cli_reads_no_private_name_of_another_module():
    # the command line runs the public calls that the library documents
    assert foreign_privates((ROOT / "src" / "szk" / "cli.py").read_text()) == []
