"""Every name a module of the package imports is used in that module, and
every name it defines at top level is used somewhere in the repository.
The package root imports nothing, so each name has one import path.
The command line's import, its argument parsing and `parse` load neither
numpy nor the process-pool modules featurize starts workers with."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import sqlcalib

PACKAGE = Path(sqlcalib.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]
USERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
EXEMPT = {"__version__"}


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


def test_the_package_root_imports_nothing_and_defines_only_its_version():
    source = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    nodes = ast.walk(ast.parse(source))
    assert [n for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom))] == []
    assert set(_defined_names(source)) == {"__version__"}


def _child(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter with the package's
    source directory as ``sys.argv[1]``; it must exit 0."""
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_errors_loads_no_other_package_module():
    code = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import sqlcalib.errors\n"
        "print(json.dumps(sorted(name for name in sys.modules if name.startswith('sqlcalib'))))\n"
    )
    assert json.loads(_child(code)) == ["sqlcalib", "sqlcalib.errors"]


# Modules that import without numpy, so `import sqlcalib.cli`, `parse`,
# argument errors and `featurize` never load it: none may import numpy, or a
# package module outside this list, except inside a function.
NUMPY_FREE = (
    "__init__", "cli", "clausefreq", "errors", "lexer", "parser", "pipeline", "probability",
    "querygen", "sqlast",
)


def _import_time_imports(source: str) -> list[tuple[str, int]]:
    """(module, line) of every import outside a function body, so run at import
    time; a package module is named by its stem, any other by its top name."""
    found, stack = [], list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [(alias.name.split(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "sqlcalib"):
            found += [(alias.name, node.lineno) for alias in node.names]  # from . import x
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".")
            in_package = node.level or parts[0] == "sqlcalib"
            found.append((parts[-1] if in_package else parts[0], node.lineno))
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found, key=lambda pair: pair[1])


@pytest.mark.parametrize("stem", NUMPY_FREE)
def test_numpy_free_modules_import_nothing_that_loads_numpy(stem):
    source = (PACKAGE / f"{stem}.py").read_text(encoding="utf-8")
    heavy = {"numpy"} | {p.stem for p in MODULES} - set(NUMPY_FREE)
    assert [f"line {line}: {name}" for name, line in _import_time_imports(source)
            if name in heavy] == [], f"sqlcalib.{stem} loads numpy when imported"


def test_an_import_time_import_is_found():
    source = (
        "import numpy.linalg\nfrom . import pipeline\nfrom .calibrate import x\n"
        "from sqlcalib.metrics import y\nfrom sqlcalib import calibrate\nif x:\n    import json\n"
        "def f():\n    from . import pipeline\n"
    )
    assert _import_time_imports(source) == [
        ("numpy", 1), ("pipeline", 2), ("calibrate", 3), ("metrics", 4), ("calibrate", 5), ("json", 7)
    ]


def test_cli_parse_help_and_usage_errors_run_without_numpy():
    code = (
        "import contextlib, io, json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import sqlcalib.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [sqlcalib.cli.main(['parse', 'SELECT a FROM b']), sqlcalib.cli.main(['fit'])]\n"
        "    try:\n"
        "        sqlcalib.cli.main(['fit', '--help'])\n"
        "    except SystemExit as exc:\n"
        "        codes.append(exc.code)\n"
        "heavy = ['numpy', 'multiprocessing', 'concurrent.futures']\n"
        "print(json.dumps([codes, [name for name in heavy if name in sys.modules]]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 1, 0], []]


def test_synth_checks_its_arguments_before_it_loads_numpy(tmp_path):
    code = (
        "import contextlib, io, json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import sqlcalib.cli, sqlcalib.pipeline\n"
        f"out = {str(tmp_path / 'synth.jsonl')!r}\n"
        "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
        "    codes = [sqlcalib.cli.main(['synth', '--n', '0', '--output', out]),\n"
        "             sqlcalib.cli.main(['synth', '--n', '5', '--seed', '-1', '--output', out])]\n"
        "try:\n"
        "    sqlcalib.pipeline.synth_command(10, 'bogus', 0, out)\n"
        "except ValueError as exc:\n"
        "    codes.append(str(exc))\n"
        "print(json.dumps([codes, err.getvalue(), 'numpy' in sys.modules]))\n"
    )
    assert json.loads(_child(code)) == [
        [1, 1, "unknown synth mode 'bogus'"],
        "usage error: n must be >= 1\nusage error: --seed must be >= 0, got -1\n",
        False,
    ]
    assert list(tmp_path.iterdir()) == []
