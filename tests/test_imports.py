"""Every name a module of the package imports is used in that module, and
every name it defines at top level is used somewhere in the repository."""

import ast
from pathlib import Path

import pytest

import sqlcalib

PACKAGE = Path(sqlcalib.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]
USERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
EXEMPT = {"__all__", "__version__"}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nfrom json import dumps, loads\nloads('1')\n"
    assert _unused_imports(source) == ["line 1: os", "line 2: dumps"]


def _defined_names(source: str) -> dict:
    """Top-level def, class and assigned names -> line of definition."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for leaf in (n for t in targets for n in ast.walk(t)):
                if isinstance(leaf, ast.Name):
                    defined[leaf.id] = node.lineno
    return defined


def _referenced_names(sources) -> set:
    """Names read, attributes taken and names imported; a store is a definition."""
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.split(".")[-1])
    return used


def _dead_names(source: str, used: set) -> list[str]:
    return [
        f"line {line}: {name}"
        for name, line in _defined_names(source).items()
        if name not in used and name not in EXEMPT
    ]


@pytest.fixture(scope="module")
def used_names():
    return _referenced_names(p.read_text(encoding="utf-8") for p in USERS)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_dead_module_names(path, used_names):
    assert _dead_names(path.read_text(encoding="utf-8"), used_names) == []


def test_a_dead_module_name_is_found():
    source = "A = 1\nB: int = 2\ndef f():\n    return A\nclass C:\n    pass\n"
    used = _referenced_names([source, "from m import C\nx.f()\n"])
    assert _dead_names(source, used) == ["line 2: B"]
