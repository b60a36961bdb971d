"""Serialization surfaces: exact-rational JSON documents, f-vector tables,
face-poset dumps, and lossy OFF meshes for rank-3 polytopes.

Every JSON surface carries rationals as "p/q" strings and is rendered with
sorted keys and a fixed indent, so identical inputs produce byte-identical
output.  The JSON is written by pnh's own writer, `to_json_bytes`, whose
bytes equal ``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline;
the documents share one index list per flat and per nested set, which the
writer renders once.  The OFF mesh is the single lossy surface:
coordinates are decimal approximations, and the file header says so.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import OutOfRange, UnsupportedType
from .faces import covering_edges
from .flats import Flat, flat_closure, validate_building_set
from .linalg import ScaledInts, Vec
from .model import Permutonestohedron
from .counting import closed_form_counts

JSON_INDENT = 2


# -- rationals across the boundary -------------------------------------


def rat_str(x) -> str:
    """Render a rational as "p" or "p/q" (lowest terms, q > 0)."""
    if type(x) is int or type(x) is Fraction:
        return str(x)
    return str(Fraction(x))


def parse_rat(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"invalid rational {text!r}: zero denominator") from None


def vec_strs(v: Vec) -> list[str]:
    return [rat_str(x) for x in v]


class _IndexLists(dict):
    """The JSON index list of each flat, and the list of those lists for
    each nested set or tuple of label flats, made once: every
    document entry that names the same flats holds the same list object,
    which `to_json_bytes` then renders once per depth."""

    def __missing__(self, key):
        if type(key) is Flat:
            value = list(key.indices())
        else:
            value = [self[f] for f in key]
        self[key] = value
        return value


# -- JSON documents -----------------------------------------------------


def root_system_json(model: Permutonestohedron) -> dict:
    rs = model.rs
    return {
        "type": rs.type_name(),
        "rank": rs.rank,
        "gram": [vec_strs(row) for row in rs.gram],
        "positive_roots": [vec_strs(r) for r in rs.positive_roots],
    }


def building_json(model: Permutonestohedron, lists: _IndexLists) -> dict:
    b = model.building
    return {
        "kind": b.kind,
        "flats": [lists[f] for f in b.sorted_flats],
        "fundamental": [lists[f] for f in b.fund],
    }


def build_document(model: Permutonestohedron, config: dict | None = None) -> dict:
    """The full H/V-representation document for the ``build`` command."""
    lists = _IndexLists()
    vrep = model.vrep
    m = len(vrep.max_nested)
    point_of = ScaledInts(Fraction(1, vrep.scale)).__getitem__
    return {
        "config": config or {},
        "root_system": root_system_json(model),
        "building": building_json(model, lists),
        "group_order": model.weyl.order,
        "a": rat_str(model.suitable.a),
        "epsilons": [rat_str(e) for e in model.suitable.eps],
        "f_vector": list(model.f_vector),
        "hrep": [
            {
                "normal": vec_strs(h.normal),
                "offset": rat_str(h.offset),
                "kind": h.kind,
                "flat": lists[h.flat],
                "sigma_id": h.sigma_id,
            }
            for h in model.halfspaces
        ],
        "vrep": [
            {
                "point": vec_strs(map(point_of, v)),
                "sigma_id": i // m,
                "nested": lists[vrep.max_nested[i % m]],
            }
            for i, v in enumerate(vrep.vertices)
        ],
    }


def poset_document(
    model: Permutonestohedron,
    config: dict | None = None,
    include_edges: bool | None = None,
) -> dict:
    """Face-poset dump: nodes with (dim, coset rep, flats, labels), plus
    covering edges.  The edges cost one type test per pair of face types
    (S, L) in adjacent dimensions and one coset lookup per edge.  They are
    on by default only up to rank 3."""
    if include_edges is None:
        include_edges = model.rs.rank <= 3
    faces = model.faces
    lists = _IndexLists()
    nodes = [
        {
            "dim": model.rs.rank - len(f.nested) + len(f.labels),
            "coset_rep_id": f.rep,
            "flats": lists[f.nested],
            "labels": lists[f.labels],
        }
        for f in faces
    ]
    doc = {
        "config": config or {},
        "root_system": root_system_json(model),
        "building": building_json(model, lists),
        "f_vector": list(model.f_vector),
        "nodes": nodes,
    }
    if include_edges:
        doc["edges"] = covering_edges(model.face_ctx, faces)
    return doc


# -- the JSON writer ------------------------------------------------------


def to_json_bytes(doc: dict) -> bytes:
    """``doc`` as UTF-8 JSON with sorted keys and an indent of JSON_INDENT,
    plus a final newline: byte for byte what ``json.dumps(doc,
    indent=JSON_INDENT, sort_keys=True)`` gives, without the stdlib's
    pure-Python indent encoder.

    Only dict (with str keys), list, str, int, bool and None are written;
    anything else, a float included, raises TypeError.  The text of each
    index list (a list of ints or of lists) is rendered once per depth and
    reused, so a list shared by many entries costs one rendering."""
    memo: dict[tuple[int, int], str] = {}
    return (_render(doc, 0, memo) + "\n").encode("utf-8")


# the C string escaper of the stdlib JSON encoder (ensure_ascii=True)
_escape = json.encoder.encode_basestring_ascii


def _render(value, depth: int, memo: dict) -> str:
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is int:
        return str(value)
    if kind is list:
        # only index lists (of ints, or of index lists) are shared between
        # entries; a coordinate list or a list of dicts is written once
        if not value or type(value[0]) not in (int, list):
            return _list_text(value, depth, memo)
        key = (id(value), depth)
        text = memo.get(key)
        if text is None:
            text = memo[key] = _list_text(value, depth, memo)
        return text
    if kind is dict:
        # a key that is not a str fails in sorted() or in _escape
        items = [
            f"{_escape(k)}: {_render(x, depth + 1, memo)}"
            for k, x in sorted(value.items())
        ]
        return _bracket("{", items, depth, "}")
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"{kind.__name__} is not written to exact JSON: {value!r}")


def _list_text(value: list, depth: int, memo: dict) -> str:
    # coordinates, the bulk of the leaves, skip the recursive call
    items = [
        _escape(x) if type(x) is str else _render(x, depth + 1, memo)
        for x in value
    ]
    return _bracket("[", items, depth, "]")


def _bracket(opening: str, items: list[str], depth: int, closing: str) -> str:
    """Items one per line, indented one level deeper than the brackets."""
    if not items:
        return opening + closing
    pad = "\n" + " " * (JSON_INDENT * depth)
    inner = pad + " " * JSON_INDENT
    return opening + inner + ("," + inner).join(items) + pad + closing


# -- building-set input files --------------------------------------------


def building_from_json(rs, doc: dict, weyl=None):
    """Load {"roots": [...], "flats": [[positive-root indices]...]}.

    The "roots" list pins the index convention: it must match the
    root system's positive roots exactly, in order.  Each flat is then
    checked to be closed (span intersected with the roots gives back the
    same index set) before the family is run through the building-set
    validator.
    """
    if not isinstance(doc, dict):
        raise ValueError(
            f"building-set file must hold a JSON object, not {type(doc).__name__}"
        )
    roots = doc.get("roots")
    flats = doc.get("flats")
    if not isinstance(roots, list) or not isinstance(flats, list):
        raise ValueError("building-set file needs 'roots' and 'flats' lists")
    for r in roots:
        if not isinstance(r, list):
            raise ValueError(f"each root must be a list of coordinates, got {r!r}")
    given = [tuple(parse_rat(str(x)) for x in r) for r in roots]
    expected = list(rs.positive_roots)
    if given != expected:
        if len(given) != len(expected):
            detail = f"{len(given)} given, {len(expected)} expected"
        else:
            i = next(i for i, (g, e) in enumerate(zip(given, expected)) if g != e)
            shown = [", ".join(map(str, r)) for r in (given[i], expected[i])]
            detail = f"root {i} is ({shown[0]}), expected ({shown[1]})"
        raise ValueError(
            "building-set file roots must equal the root system's positive "
            f"roots in order ({detail})"
        )
    family = []
    for idxs in flats:
        if not isinstance(idxs, list) or not idxs or not all(
            type(i) is int and 0 <= i < len(given) for i in idxs
        ):
            raise ValueError(f"bad positive-root index list: {idxs!r}")
        closed = flat_closure(rs, idxs)
        if closed.bits != sum(1 << i for i in set(idxs)):
            raise ValueError(
                f"root set {sorted(set(idxs))} is not closed: its span "
                f"contains roots {sorted(closed.indices())}"
            )
        family.append(closed)
    return validate_building_set(rs, family, weyl=weyl, kind="custom")


def load_building_set(rs, path: str, weyl=None):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return building_from_json(rs, doc, weyl=weyl)


# -- f-vector table -------------------------------------------------------


def fvector_table(model: Permutonestohedron) -> str:
    """Plain-text table of face counts by dimension; for irreducible
    type-A minimal/maximal families the closed-form counts are shown
    side by side with the enumeration."""
    rs = model.rs
    fvec = model.f_vector
    formula = closed_form_counts(rs, model.building.kind)
    name = rs.type_name() or f"rank-{rs.rank} custom"
    lines = [
        f"f-vector: {name}, {model.building.kind} building set",
        f"group order {model.weyl.order}, "
        f"{len(model.halfspaces)} defining half-spaces",
        "",
    ]
    header = f"{'dim':>4} {'faces':>10}"
    if formula is not None:
        header += f" {'closed form':>12}"
    lines.append(header)
    for d, count in enumerate(fvec):
        row = f"{d:>4} {count:>10}"
        if formula is not None and d in formula:
            row += f" {formula[d]:>12}"
        lines.append(row)
    return "\n".join(lines) + "\n"


# -- OFF meshes (rank 3 only, lossy) --------------------------------------


def _cholesky(gram) -> list[list[float]]:
    n = len(gram)
    L = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = float(gram[i][j]) - sum(L[i][k] * L[j][k] for k in range(j))
            if i == j:
                if s <= 0:
                    raise OutOfRange("inner-product matrix is not positive definite")
                L[i][i] = math.sqrt(s)
            else:
                L[i][j] = s / L[j][j]
    return L


def _embed(L, x) -> tuple[float, ...]:
    n = len(L)
    return tuple(
        sum(L[i][j] * float(x[i]) for i in range(n)) for j in range(n)
    )


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def off_text(model: Permutonestohedron, precision: int = 12) -> str:
    """OFF mesh for a rank-3 polytope.

    Vertices are embedded isometrically (Cholesky factor of the inner
    product matrix) and printed as decimals — the one intentionally lossy
    output.  Facet polygons are ordered by angle around each facet's
    outward normal, so faces are counterclockwise from outside.
    """
    rs = model.rs
    if rs.rank != 3:
        raise UnsupportedType(f"OFF export needs rank 3, got rank {rs.rank}")
    if precision < 1:
        raise OutOfRange("precision must be a positive digit count")
    L = _cholesky(rs.gram)
    scale = model.vrep.scale
    # c / scale is the correctly rounded float of the exact coordinate
    points = [_embed(L, [c / scale for c in v]) for v in model.vrep.vertices]
    fvec = model.f_vector
    lines = [
        "OFF",
        f"# decimal approximation ({precision} significant digits) of exact",
        "# rational coordinates; use the JSON output for exact values",
        f"{len(points)} {fvec[2]} {fvec[1]}",
    ]
    for p in points:
        lines.append(" ".join(_fmt(c, precision) for c in p))
    for half, vert_ids in zip(model.halfspaces, model.facet_sets):
        ids = sorted(vert_ids)
        normal = _embed(L, half.normal)
        nlen = math.sqrt(sum(c * c for c in normal))
        normal = tuple(c / nlen for c in normal)
        centroid = tuple(
            sum(points[i][c] for i in ids) / len(ids) for c in range(3)
        )
        u = None
        for i in ids:
            d = tuple(points[i][c] - centroid[c] for c in range(3))
            dlen = math.sqrt(sum(c * c for c in d))
            if dlen > 1e-9:
                u = tuple(c / dlen for c in d)
                break
        if u is None:
            raise OutOfRange("degenerate facet polygon in OFF export")
        v = (
            normal[1] * u[2] - normal[2] * u[1],
            normal[2] * u[0] - normal[0] * u[2],
            normal[0] * u[1] - normal[1] * u[0],
        )

        def angle(i):
            d = tuple(points[i][c] - centroid[c] for c in range(3))
            return math.atan2(
                sum(d[c] * v[c] for c in range(3)),
                sum(d[c] * u[c] for c in range(3)),
            )

        ordered = sorted(ids, key=angle)
        lines.append(
            f"{len(ordered)} " + " ".join(str(i) for i in ordered)
        )
    return "\n".join(lines) + "\n"
