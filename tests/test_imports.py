"""``pnh`` has no runtime dependencies: every import in ``src/pnh`` is of
the standard library or of ``pnh`` itself (``numpy`` and ``sympy`` may be
installed alongside, but the package must not reach for them)."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pnh"


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
