"""Every name the benchmark's traced run wraps still exists in ``pnh``.

``perfbench/spans.py`` replaces functions at the module attribute their
caller looks them up by; a refactor that drops or moves one of them would
otherwise only show as a failed ``--trace 1`` run.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from spans import METHOD_WRAPS, WRAPS  # noqa: E402


def test_wrapped_functions_resolve():
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in WRAPS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing


def test_wrapped_methods_resolve():
    for module, cls_name, method, _ in METHOD_WRAPS:
        cls = getattr(importlib.import_module(module), cls_name)
        assert callable(getattr(cls, method, None)), f"{cls_name}.{method}"
    weyl_group = importlib.import_module("pnh.weyl").WeylGroup
    assert callable(weyl_group.mul) and callable(weyl_group.inv)
