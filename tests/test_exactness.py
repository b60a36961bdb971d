"""Everything in ``pnh`` stays exact: the only float path is the OFF export.

A call of ``float``, a float literal, or ``math.sqrt``/``math.atan2`` may
occur only inside ``exports._cholesky``, ``exports._embed`` and
``exports.off_text``, the lossy mesh's embedding and polygon order.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pnh"
FLOAT_PATH = {("exports.py", name) for name in ("_cholesky", "_embed", "off_text")}


def _float_uses(tree):
    """(top-level function or class, line, what) of each float call, float
    literal and sqrt/atan2 name; the owner is None at module level."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
                yield owner, node.lineno, "float("
            elif isinstance(node, ast.Constant) and type(node.value) is float:
                yield owner, node.lineno, repr(node.value)
            else:
                # math.sqrt as an attribute, or a name imported from math
                name = getattr(node, "attr", getattr(node, "id", None))
                if name in ("sqrt", "atan2"):
                    yield owner, node.lineno, name


def test_floats_only_on_the_off_export_path():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    found = {
        (path.name, owner, line, what)
        for path in modules
        for owner, line, what in _float_uses(ast.parse(path.read_text(), str(path)))
    }
    outside = sorted(f for f in found if (f[0], f[1]) not in FLOAT_PATH)
    assert not outside
    # the scan sees the float path it allows
    assert {(f[1], f[3]) for f in found} >= {
        ("_cholesky", "float("),
        ("_cholesky", "sqrt"),
        ("_embed", "float("),
        ("off_text", "sqrt"),
        ("off_text", "atan2"),
        ("off_text", "1e-09"),
    }
