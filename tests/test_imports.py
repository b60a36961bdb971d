"""``pnh`` has no runtime dependencies: every import in ``src/pnh`` is of
the standard library or of ``pnh`` itself (``numpy`` and ``sympy`` may be
installed alongside, but the package must not reach for them).  Every name
a module imports is used there, or is one the benchmark's traced run wraps
at that module (``perfbench/spans.py``).  Importing
the CLI loads no standard-library extension module beyond a fixed few:
each one is a shared library whose load raises the process's memory and
start-up time."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pnh"
sys.path.insert(0, str(SRC.parents[1] / "perfbench"))

from spans import WRAPS  # noqa: E402


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # a relative import (level > 0) stays inside pnh
            yield "pnh" if node.level else node.module.split(".")[0]


def test_every_import_is_stdlib_or_pnh():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    outside = [
        f"{path.name}: {name}"
        for path in modules
        for name in _imported_roots(ast.parse(path.read_text(), str(path)))
        if name != "pnh" and name not in sys.stdlib_module_names
    ]
    assert not outside


def _unused_imports(tree):
    """Names bound by an import and never read in the module."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(
                alias.asname or alias.name.split(".")[0] for alias in node.names
            )
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_imported_name_is_used_or_wrapped():
    wrapped = {(module, attr) for module, attr, *_ in WRAPS}
    unused = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in sorted(_unused_imports(ast.parse(path.read_text(), str(path))))
        if ("pnh." + path.stem, name) not in wrapped
    ]
    assert not unused


# what ``import pnh.cli`` loads today, by way of fractions (``_decimal`` and
# ``math``) and json
CLI_EXTENSIONS = {"_decimal", "_json", "math"}

# the records are named tuples, so none of the machinery of dataclasses and
# typing is imported
CLI_ABSENT = {"dataclasses", "typing", "inspect", "ast", "dis"}


def _after_cli_import(code):
    """The stdout of ``code`` run after ``import sys, pnh.cli`` in a fresh
    interpreter without ``site``."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run(
        [sys.executable, "-S", "-c", "import sys, pnh.cli\n" + code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout


def test_cli_import_loads_no_other_extension_module():
    out = _after_cli_import(
        "from importlib.machinery import EXTENSION_SUFFIXES\n"
        "for name, m in sorted(sys.modules.items()):\n"
        "    if str(getattr(m, '__file__', '')).endswith(tuple(EXTENSION_SUFFIXES)):\n"
        "        print(name)\n"
    )
    loaded = set(out.split())
    assert loaded <= CLI_EXTENSIONS, sorted(loaded - CLI_EXTENSIONS)


def test_cli_import_leaves_dataclasses_and_typing_out():
    loaded = set(_after_cli_import("print(*sys.modules)").split())
    assert not loaded & CLI_ABSENT, sorted(loaded & CLI_ABSENT)
