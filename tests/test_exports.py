import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnh.errors import UnsupportedType
from pnh.exports import (
    build_document,
    building_from_json,
    fvector_table,
    load_building_set,
    off_text,
    parse_rat,
    poset_document,
    rat_str,
    to_json_bytes,
)
from pnh.flats import interval_building_set
from pnh.model import Permutonestohedron
from pnh.roots import build_root_system

from conftest import make_model


def test_rational_strings_roundtrip():
    for f in [Fraction(0), Fraction(3), Fraction(-7, 3), Fraction(22, 7)]:
        assert parse_rat(rat_str(f)) == f
    assert rat_str(Fraction(4, 2)) == "2"
    assert rat_str(Fraction(-1, 2)) == "-1/2"


def test_json_bytes_deterministic(a2):
    doc = build_document(a2, {"type": "A2"})
    assert to_json_bytes(doc) == to_json_bytes(
        json.loads(to_json_bytes(doc).decode())
    )


def _reference_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize(
    "name", ["a2", "b2", "a3_min", "a3_max", "b3_min", "b3_max", "a13_min"]
)
def test_json_writer_equals_stdlib_on_documents(name, request):
    model = request.getfixturevalue(name)
    for doc in (
        build_document(model, {"type": name}),
        poset_document(model, {"type": name}, include_edges=True),
    ):
        assert to_json_bytes(doc) == _reference_bytes(doc)


def test_json_writer_equals_stdlib_on_edge_cases():
    shared = [1, [2, []], {}]
    doc = {
        "shared": shared,
        "deeper": [[{"again": shared}], shared],
        "none": None,
        "flags": [True, False, None],
        "empty": {"list": [], "dict": {}, "nested": [[], {}, [[]]]},
        "ints": [0, -1, -(10**40), 10**40, 2**63],
        "text": ['quote " mark', "back\\slash", "ctrl \x00\x1f\n\t\r", "π ∑ 😀", ""],
        "": "empty key",
        "Z": 1,
        "a": {"é": 1, "e": 2, "\n": 3},
    }
    assert to_json_bytes(doc) == _reference_bytes(doc)


@pytest.mark.parametrize(
    "doc",
    [{"x": 0.5}, [1.0], {"x": [1, {"y": Fraction(1, 2)}]}, (1, 2), {1: "a"}],
    ids=["float", "float-in-list", "fraction", "tuple", "int-key"],
)
def test_json_writer_rejects_non_exact_values(doc):
    with pytest.raises(TypeError):
        to_json_bytes(doc)


_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8)
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_json_values)
def test_json_writer_equals_stdlib_on_random_documents(doc):
    assert to_json_bytes(doc) == _reference_bytes(doc)


def test_build_document_shape(a2):
    doc = build_document(a2, {"type": "A2"})
    assert doc["f_vector"] == [12, 12, 1]
    assert len(doc["hrep"]) == 12
    assert len(doc["vrep"]) == 12
    assert doc["group_order"] == 6
    assert doc["epsilons"] == ["1/5", "1"]
    offsets = {h["offset"] for h in doc["hrep"]}
    assert offsets == {"1", "4/5"}
    # every vertex evaluates inside every half-space, via the JSON data alone
    gram = [[parse_rat(x) for x in row] for row in doc["root_system"]["gram"]]
    for v in doc["vrep"]:
        p = [parse_rat(x) for x in v["point"]]
        for h in doc["hrep"]:
            normal = [parse_rat(x) for x in h["normal"]]
            gn = [sum(gram[i][j] * normal[j] for j in range(2)) for i in range(2)]
            assert sum(a * b for a, b in zip(gn, p)) <= parse_rat(h["offset"])


def test_poset_document_counts(a2):
    doc = poset_document(a2, {})
    assert len(doc["nodes"]) == 25
    assert len(doc["edges"]) == 36  # 24 vertex-edge covers + 12 edge-top covers
    dims = sorted({n["dim"] for n in doc["nodes"]})
    assert dims == [0, 1, 2]


def _edges_by_pairwise_order(model):
    """Covering edges as every pair of faces in adjacent dimensions, compared."""
    faces = model.faces
    by_dim = {}
    for i, f in enumerate(faces):
        by_dim.setdefault(model.face_ctx.dimension(f), []).append(i)
    return [
        [i, j]
        for d, lower in sorted(by_dim.items())
        for i in lower
        for j in by_dim.get(d + 1, [])
        if model.face_leq(faces[i], faces[j])
    ]


@pytest.mark.parametrize(
    "name", ["a2", "b2", "a3_min", "a3_max", "a13_min", "b3_max"]
)
def test_covering_edges_equal_pairwise_order(name, request):
    model = request.getfixturevalue(name)
    doc = poset_document(model, {}, include_edges=True)
    assert doc["edges"] == _edges_by_pairwise_order(model)


@pytest.mark.parametrize(
    "spec, kind, counts",
    [
        ("B3", "maximal", (867, 1874)),
        ("A1^4", "interval", (1153, 3376)),
        ("A2xB2", "minimal", (2361, 7188)),
    ],
)
def test_poset_counts_of_the_benchmark_types(spec, kind, counts):
    if kind == "interval":
        model = Permutonestohedron(interval_building_set(4))
    else:
        model = make_model(spec, kind)
    doc = poset_document(model, {}, include_edges=True)
    assert (len(doc["nodes"]), len(doc["edges"])) == counts


def test_building_from_json_roundtrip():
    rs = build_root_system("A2")
    doc = {
        "roots": [[1, 0], [0, 1], [1, 1]],
        "flats": [[0], [1], [2], [0, 1, 2]],
    }
    b = building_from_json(rs, doc)
    assert len(b.flats) == 4


def test_building_from_json_rejects_bad_input():
    rs = build_root_system("A2")
    with pytest.raises(ValueError, match=r"\(1 given, 3 expected\)"):
        building_from_json(rs, {"roots": [[1, 0]], "flats": [[0]]})
    # the right count with a wrong value names the first root that differs
    with pytest.raises(ValueError, match=r"root 2 is \(2, 1\), expected \(1, 1\)"):
        building_from_json(
            rs, {"roots": [[1, 0], [0, 1], [2, 1]], "flats": [[0], [1], [2]]}
        )
    with pytest.raises(ValueError):
        # {0,1} spans the plane, so the root set is not closed
        building_from_json(
            rs,
            {"roots": [[1, 0], [0, 1], [1, 1]], "flats": [[0], [1], [2], [0, 1]]},
        )


_A2_ROOTS = [[1, 0], [0, 1], [1, 1]]


@pytest.mark.parametrize(
    "doc, message",
    [
        ([_A2_ROOTS, [[0]]], "must hold a JSON object, not list"),
        ({"roots": [5, [0, 1], [1, 1]], "flats": [[0]]}, "each root must be a list"),
        ({"roots": _A2_ROOTS, "flats": [5, [0, 1, 2]]}, r"bad positive-root index list: 5"),
        # True is an int to Python, but it is not a root index
        (
            {"roots": _A2_ROOTS, "flats": [[0], [1], [2], [True, 1, 2]]},
            r"bad positive-root index list: \[True, 1, 2\]",
        ),
    ],
    ids=["top-level-list", "int-root", "int-flat", "bool-index"],
)
def test_building_file_of_the_wrong_shape_is_a_value_error(tmp_path, doc, message):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_building_set(build_root_system("A2"), str(path))


def test_fvector_table_lists_formula_column(a3_min):
    table = fvector_table(a3_min)
    assert "120" in table and "192" in table and "74" in table
    assert "closed form" in table


def test_off_requires_rank_three(a2, a3_min):
    with pytest.raises(UnsupportedType):
        off_text(a2)
    text = off_text(a3_min)
    header, counts = text.splitlines()[0], text.splitlines()[3]
    assert header == "OFF"
    assert counts == "120 74 192"


def test_off_respects_precision(a3_min):
    short = off_text(a3_min, precision=4)
    long = off_text(a3_min, precision=15)
    assert short != long
    assert "4 significant digits" in short
