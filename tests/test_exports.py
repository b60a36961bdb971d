import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import materialised
from pnh import exports
from pnh.errors import NotWInvariant, UnsupportedType
from pnh.exports import (
    build_document,
    building_from_json,
    fvector_table,
    json_chunks,
    load_building_set,
    off_text,
    parse_rat,
    poset_document,
    rat_str,
    to_json_bytes,
)
from pnh.flats import (
    all_flats,
    build_maximal,
    build_minimal,
    interval_building_set,
    standard_flat,
)
from pnh.model import Permutonestohedron, build_model
from pnh.roots import build_root_system

from conftest import make_model


def test_rational_strings_roundtrip():
    for f in [Fraction(0), Fraction(3), Fraction(-7, 3), Fraction(22, 7)]:
        assert parse_rat(rat_str(f)) == f
    assert rat_str(Fraction(4, 2)) == "2"
    assert rat_str(Fraction(-1, 2)) == "-1/2"


def _listed(doc):
    """``doc`` with its ``vrep`` rows, a generator, made into a list."""
    return {**doc, "vrep": list(doc["vrep"])}


def test_json_bytes_deterministic(a2):
    doc = _listed(build_document(a2, {"type": "A2"}))
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
        _listed(build_document(model, {"type": name})),
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


def _same_as_stdlib(doc):
    """The writer gives the stdlib's bytes, or raises TypeError where the
    stdlib does (a key that cannot be sorted beside the others)."""
    try:
        expected = _reference_bytes(doc)
    except TypeError:
        with pytest.raises(TypeError):
            to_json_bytes(doc)
    else:
        assert to_json_bytes(doc) == expected


@st.composite
def _shaped_lists(draw, depth=0):
    """A list of dicts with one key set, the shape of the documents' entries:
    each key holds one kind of value in every entry, and the index lists come
    from one pool, so entries share them by identity."""
    keys = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    index_lists = st.lists(st.integers(-3, 40), max_size=4)
    pool = draw(st.lists(index_lists, min_size=1, max_size=3))
    positions = st.integers(0, len(pool) - 1)
    pool.append([pool[i] for i in draw(st.lists(positions, max_size=3))])
    kinds = ["int", "str", "shared", "dict", "any"] + (["shaped"] if depth < 2 else [])
    columns = [draw(st.sampled_from(kinds)) for _ in keys]
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = {}
        for key, kind in zip(keys, columns):
            if kind == "int":
                row[key] = draw(st.integers())
            elif kind == "str":
                row[key] = draw(st.text(max_size=5))
            elif kind == "shared":
                row[key] = pool[draw(st.integers(0, len(pool) - 1))]
            elif kind == "dict":
                row[key] = {"p": draw(st.integers()), "q": pool[0]}
            elif kind == "shaped":
                row[key] = draw(_shaped_lists(depth + 1))
            else:
                row[key] = draw(_json_values)
        rows.append(row)
    return rows


@settings(max_examples=200, deadline=None)
@given(_shaped_lists())
def test_json_writer_equals_stdlib_on_shaped_lists(rows):
    # the same rows at two depths: a shared index list is rendered per depth
    _same_as_stdlib({"rows": rows, "deeper": [rows, {"again": rows}]})


@st.composite
def _broken_shaped_lists(draw):
    """A shaped list with one entry that breaks the shape."""
    rows = draw(_shaped_lists())
    at = draw(st.integers(0, len(rows)))
    first = rows[0]
    how = draw(st.sampled_from(["extra", "missing", "empty", "non-dict", "int-key"]))
    if how == "extra":
        # keys are at most 3 characters, so this one is new
        rows.insert(at, {**first, "extra": 1})
    elif how == "missing":
        rows.insert(at, dict(list(first.items())[1:]))
    elif how == "empty":
        rows.insert(at, {})
    elif how == "non-dict":
        rows.insert(at, draw(_json_leaves | st.lists(_json_leaves, max_size=3)))
    else:
        rows.insert(max(at, 1), {**first, 7: "x"})
    return rows


@settings(max_examples=200, deadline=None)
@given(_broken_shaped_lists())
def test_json_writer_equals_stdlib_on_broken_shaped_lists(rows):
    _same_as_stdlib({"rows": rows})


@pytest.mark.parametrize(
    "leaves",
    [[1, "a", 2], ["a", 1], [1, True, None], [1, True], [True, 1], ["a", None]],
)
def test_json_writer_equals_stdlib_on_mixed_leaf_lists(leaves):
    # as a list, and as one column of a shaped list
    doc = {"list": leaves, "rows": [{"x": leaf} for leaf in leaves]}
    assert to_json_bytes(doc) == _reference_bytes(doc)


@pytest.mark.parametrize("bad", [0.5, Fraction(1, 2)], ids=["float", "fraction"])
@pytest.mark.parametrize("at", [0, 2, 4])
@pytest.mark.parametrize("field", ["value", "list", "dict"])
def test_json_writer_rejects_non_exact_values_in_any_entry(bad, at, field):
    rows = [{"value": i, "list": [i, i + 1], "dict": {"v": i}} for i in range(5)]
    rows[at][field] = {"value": bad, "list": [1, bad], "dict": {"v": bad}}[field]
    with pytest.raises(TypeError):
        to_json_bytes({"rows": rows})


# -- the writer a slice of rows at a time ----------------------------------


def _sliced_bytes(doc, rows: int) -> bytes:
    """The writer's pieces joined, with slices of ``rows`` rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exports, "JSON_SLICE_ROWS", rows)
        return b"".join(json_chunks(doc))


@settings(max_examples=200, deadline=None)
@given(_json_values, st.integers(1, 3))
def test_sliced_writer_equals_stdlib_on_random_documents(doc, rows):
    assert _sliced_bytes(doc, rows) == _reference_bytes(doc)
    assert _sliced_bytes({"rows": doc, "x": 1}, rows) == _reference_bytes(
        {"rows": doc, "x": 1}
    )


@settings(max_examples=200, deadline=None)
@given(_shaped_lists(), st.integers(1, 3))
def test_sliced_writer_equals_stdlib_on_shaped_lists(rows, size):
    doc = {"rows": rows, "deeper": [rows, {"again": rows}]}
    assert _sliced_bytes(doc, size) == _reference_bytes(doc)


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("extra", [0, 1], ids=["one-slice", "one-slice-and-a-row"])
def test_sliced_writer_at_the_slice_boundary(size, extra):
    shared = [1, 2]
    rows = [{"flat": shared, "i": i, "point": [str(i)]} for i in range(size + extra)]
    doc = {"hrep": rows, "vrep": [r["point"] for r in rows], "top": size}
    assert _sliced_bytes(doc, size) == _reference_bytes(doc)
    assert _sliced_bytes(rows, size) == _reference_bytes(rows)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_sliced_writer_on_empty_lists_and_generators(size):
    doc = {"empty": [], "none": (row for row in ()), "z": {}}
    expected = _reference_bytes({"empty": [], "none": [], "z": {}})
    assert _sliced_bytes(doc, size) == expected
    assert _sliced_bytes([], size) == _reference_bytes([])
    assert _sliced_bytes((row for row in ()), size) == _reference_bytes([])


@pytest.mark.parametrize("size", [1, 2, 3])
def test_sliced_writer_when_the_key_set_changes_across_a_slice(size):
    rows = [{"a": i, "b": [i]} for i in range(size)]
    rows += [{"a": size}, {"a": 0, "b": [], "c": None}, {"b": [1]}]
    assert _sliced_bytes({"rows": rows}, size) == _reference_bytes({"rows": rows})


@pytest.mark.parametrize("size", [1, 2, 3])
def test_sliced_writer_renders_shared_lists_in_every_slice(size):
    first, second = [0, 1], [[2], [0, 1]]
    rows = [{"s": [first, second][i % 2], "t": second, "i": i} for i in range(7)]
    doc = {"deep": [rows], "rows": rows}
    assert _sliced_bytes(doc, size) == _reference_bytes(doc)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_sliced_writer_on_generated_rows_that_share_a_fresh_list(size):
    # each slice shares a list that is freed with it; the memo must not hand
    # its text to a later list that comes to have the same id
    def rows():
        for i in range(4 * size):
            shared = [str(i // size)]
            yield from ({"p": shared, "i": i}, {"p": shared, "i": -i})

    expected = _reference_bytes({"vrep": list(rows())})
    assert _sliced_bytes({"vrep": rows()}, 2 * size) == expected


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("doc", ["text", 7, None, True, [[1, 2], [1, 2]], [{"a": [1]}]])
def test_sliced_writer_on_a_top_level_that_is_not_a_dict(doc, size):
    assert _sliced_bytes(doc, size) == _reference_bytes(doc)


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize(
    "bad", [0.5, Fraction(1, 2), (1,)], ids=["float", "fraction", "tuple"]
)
def test_sliced_writer_rejects_a_non_exact_value_in_the_last_slice(size, bad):
    rows = [{"v": i} for i in range(2 * size)] + [{"v": bad}]
    with pytest.raises(TypeError):
        _sliced_bytes({"rows": rows}, size)
    with pytest.raises(TypeError):
        _sliced_bytes({"rows": (row for row in rows)}, size)


def test_lazy_vrep_writes_the_same_bytes(b3_max):
    doc = _listed(build_document(b3_max, {"type": "B3"}))
    lazy = build_document(b3_max, {"type": "B3"})
    assert type(lazy["vrep"]) is not list
    assert _sliced_bytes(lazy, 5) == _reference_bytes(doc)


def test_streaming_the_build_document_holds_a_fraction_of_its_bytes():
    model = make_model("B4", "minimal")
    # the model's own layers are made here, outside the measurement
    build_document(model)
    tracemalloc.start()
    try:
        doc = build_document(model, {"type": "B4"})
        written = sum(map(len, json_chunks(doc)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 0.34 of the 3.56 MB written; the whole-document path held 2.66 times it
    assert written > 3_000_000
    assert peak < written / 2, f"peak {peak} B for {written} B written"


def test_build_document_shape(a2):
    doc = _listed(build_document(a2, {"type": "A2"}))
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


def test_building_from_json_refuses_a_non_invariant_family():
    # every flat of A3 except span(alpha_1, alpha_3), with no group given
    rs = build_root_system("A3")
    outer = standard_flat(rs, 0b101)
    doc = {
        "roots": [list(r) for r in rs.positive_roots],
        "flats": [list(f.indices()) for f in all_flats(rs) if f != outer],
    }
    with pytest.raises(NotWInvariant, match="outside the family"):
        building_from_json(rs, doc)


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


@pytest.mark.parametrize(
    "name",
    [
        "a2", "b2", "a3_min", "a3_max", "a4_min",
        "b3_min", "b3_max", "a13_min", "d4_min",
    ],
)
def test_defining_halfspaces_equal_the_facet_count(name, request):
    # fvector_table prints f_{n-1} as the number of defining half-spaces
    model = request.getfixturevalue(name)
    assert len(model.halfspaces) == model.f_vector[-2]


def test_fvector_table_builds_no_halfspace():
    model = make_model("A3", "minimal")
    assert "74 defining half-spaces" in fvector_table(model)
    assert "halfspaces" not in vars(model)


def test_off_requires_rank_three(a2, a3_min):
    with pytest.raises(UnsupportedType):
        off_text(a2)
    text = off_text(a3_min)
    header, counts = text.splitlines()[0], text.splitlines()[3]
    assert header == "OFF"
    assert counts == "120 74 192"


# (type, building, a, epsilons): the rank-3 models the OFF oracle runs on
_OFF_MATRIX = [
    (spec, kind, a, None)
    for spec in ("A3", "B3", "C3", "A2xA1", "B2xA1")
    for kind in ("minimal", "maximal")
    for a in ("1", "3/2", "5/2")
] + [("A1^3", "interval", "1", None), ("A3", "minimal", "1", "1/50,1/3,1")]


@pytest.mark.parametrize("spec, kind, a, epsilons", _OFF_MATRIX)
def test_off_text_equals_the_reference_bytes(spec, kind, a, epsilons):
    # the flat float pass against the generator sums it replaced
    if kind == "interval":
        building = interval_building_set(3)
    else:
        builder = build_minimal if kind == "minimal" else build_maximal
        building = builder(build_root_system(spec))
    eps = epsilons and [Fraction(e) for e in epsilons.split(",")]
    model = build_model(building, a=Fraction(a), epsilons=eps)
    for precision in (1, 6, 12, 17):
        assert off_text(model, precision) == materialised.reference_off_text(
            model, precision
        )


def test_off_respects_precision(a3_min):
    short = off_text(a3_min, precision=4)
    long = off_text(a3_min, precision=15)
    assert short != long
    assert "4 significant digits" in short
