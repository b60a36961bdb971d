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


def test_traced_commands_run_their_post_hooks(a2, tmp_path):
    """The wrappers' post-hooks read their call's arguments by position; a
    signature change that breaks one fails here, not only in a traced run."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        cli = importlib.import_module("pnh.cli")
        out = str(tmp_path / "out")
        codes = [
            cli.run(["verify", "--level", "full", "--type", "A2", "--output", out]),
            cli.run(["poset", "--edges", "yes", "--type", "A2", "--output", out]),
            cli.run(["build", "--type", "A2", "--output", out]),
            cli.run(["export", "--format", "off", "--type", "A3", "--output", out]),
        ]
        # the CLI streams its JSON through json_chunks, so the whole-document
        # writer is called here, under the name the tracer wraps
        cli.to_json_bytes(cli.build_document(a2))
        # looked up on the module, where the tracer installed its wrapper
        faces = importlib.import_module("pnh.faces")
        faces.aut_action_on_halfspaces(
            a2.building, a2.weyl, a2.halfspaces, a2.weyl.identity_id,
            a2.building.preserved_diagram_automorphisms[-1].matrix,
        )
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    assert tracer.counters["polytope.vertex_count"] > 0
    assert tracer.counters["polytope.facet_sets_pairs"] > 0
    assert tracer.counters["exports.json_bytes"] > 0
    assert tracer.counters["faces.vertices_geometric_hits"] > 0
    assert tracer.counters["faces.aut_action_calls"] == 1
