"""Serialization surfaces: exact-rational JSON documents, f-vector tables,
face-poset dumps, and lossy OFF meshes for rank-3 polytopes.

Every JSON surface carries rationals as "p/q" strings and is rendered with
sorted keys and a fixed indent, so identical inputs produce byte-identical
output.  The JSON is written by pnh's own writer, `json_chunks`, a slice of
rows at a time; its pieces joined (`to_json_bytes`) equal
``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline.  The
documents share one index list per flat and per nested set, which the
writer renders once.  The OFF mesh is the single lossy surface:
coordinates are decimal approximations, and the file header says so.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import partial
from itertools import chain, groupby, islice, repeat
from operator import attrgetter, itemgetter
from types import GeneratorType

from .errors import OutOfRange, UnsupportedType
from .faces import covering_edges
from .flats import Flat, flat_closure, validate_building_set
from .model import Permutonestohedron
from .counting import closed_form_counts

JSON_INDENT = 2
# rows of a top-level list rendered and written together
JSON_SLICE_ROWS = 256


# -- rationals across the boundary -------------------------------------


def rat_str(x) -> str:
    """Render a rational as "p" or "p/q" (lowest terms, q > 0)."""
    return str(x if type(x) is int or type(x) is Fraction else Fraction(x))


def parse_rat(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"invalid rational {text!r}: zero denominator") from None


class _ScaledTexts(dict):
    """The texts of one orbit of inequalities: ``offset``, and ratio * p for
    each primitive coordinate p, made on first use.  Kept per flat, never
    keyed by a ``Fraction``, whose hash runs in Python on every lookup."""

    def __init__(self, h):
        self.ratio, self.offset = h.ratio, rat_str(h.offset)

    def __missing__(self, p: int) -> str:
        text = self[p] = str(self.ratio * p)
        return text


class _IndexLists(dict):
    """The JSON index list of each flat, and the list of those lists for each
    nested set or tuple of label flats, made once: every document entry that
    names the same flats holds the same list object, which the writer then
    renders once per depth."""

    def __missing__(self, key):
        flat = type(key) is Flat
        value = self[key] = list(key.indices()) if flat else [self[f] for f in key]
        return value


# -- JSON documents -----------------------------------------------------


def _common(model: Permutonestohedron, config: dict | None, lists: _IndexLists) -> dict:
    """The entries of both documents: config, root system, building set and
    f-vector."""
    rs, b = model.rs, model.building
    return {
        "config": config or {},
        "root_system": {
            "type": rs.type_name(),
            "rank": rs.rank,
            "gram": [list(map(rat_str, row)) for row in rs.gram],
            "positive_roots": [list(map(rat_str, r)) for r in rs.positive_roots],
        },
        "building": {
            "kind": b.kind,
            "flats": [lists[f] for f in b.sorted_flats],
            "fundamental": [lists[f] for f in b.fund],
        },
        "f_vector": list(model.f_vector),
    }


def build_document(
    model: Permutonestohedron, config: dict | None = None, lazy_vrep: bool = False
) -> dict:
    """The full H/V-representation document for the ``build`` command.

    With ``lazy_vrep`` the ``vrep`` entry is a generator that makes its rows
    as `json_chunks` asks for them, a slice at a time, so the document's
    largest list never exists whole."""
    lists = _IndexLists()
    vrep = model.vrep
    m = len(vrep.max_nested)
    nested = [lists[s] for s in vrep.max_nested]
    # an orbit of integer points repeats few coordinates: one text for each
    coords = set(chain.from_iterable(vrep.vertices))
    coord = {c: str(Fraction(c, vrep.scale)) for c in coords}.__getitem__
    # the inequalities of one flat are one orbit, sharing one ratio
    orbits: dict[Flat, _ScaledTexts] = {}
    hrep = []
    for h in model.halfspaces:
        texts = orbits.get(h.flat)
        if texts is None:
            texts = orbits[h.flat] = _ScaledTexts(h)
        hrep.append(
            {
                "normal": list(map(texts.__getitem__, h.prim)),
                "offset": texts.offset,
                "kind": h.kind,
                "flat": lists[h.flat],
                "sigma_id": h.sigma_id,
            }
        )
    # vertex i is labelled (i // m, max_nested[i % m])
    rows = (
        {"point": list(map(coord, v)), "sigma_id": i // m, "nested": nested[i % m]}
        for i, v in enumerate(vrep.vertices)
    )
    return {
        **_common(model, config, lists),
        "group_order": model.weyl.order,
        "a": rat_str(model.suitable.a),
        "epsilons": [rat_str(e) for e in model.suitable.eps],
        "hrep": hrep,
        "vrep": rows if lazy_vrep else list(rows),
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
    nodes = []
    # the faces of one type (S, L) are consecutive and share the objects
    # S and L, so each run looks up its lists and dimension once
    for (s, labels), run in groupby(faces, attrgetter("nested", "labels")):
        dim = model.rs.rank - len(s) + len(labels)
        flats, named = lists[s], lists[labels]
        nodes += [
            {"dim": dim, "coset_rep_id": f.rep, "flats": flats, "labels": named}
            for f in run
        ]
    doc = {**_common(model, config, lists), "nodes": nodes}
    if include_edges:
        doc["edges"] = covering_edges(model.face_ctx, faces)
    return doc


# -- the JSON writer ------------------------------------------------------


def json_chunks(doc):
    """``doc`` as UTF-8 JSON with sorted keys and an indent of JSON_INDENT,
    plus a final newline, in pieces: joined, byte for byte what
    ``json.dumps(doc, indent=JSON_INDENT, sort_keys=True)`` gives, without
    the stdlib's pure-Python indent encoder.

    The entries of a top-level dict are written one after another, and a
    top-level list, or a generator in its place, JSON_SLICE_ROWS rows at a
    time: only one slice's text is held at once, and of a generator's rows
    only that slice.  One memo serves the whole document.

    Only dict (with str keys), list, str, int, bool and None are written;
    anything else, a float included, raises TypeError.  A list is written
    a column at a time: a list of dicts with one key set sorts its keys
    once, a list of only str or only int leaves is joined in one pass, and
    an index list that recurs in a column is rendered once per depth."""
    memo: dict[tuple[int, int], tuple] = {}
    if type(doc) is not dict or not doc:
        yield from _chunks(doc, 0, memo)
        yield b"\n"
        return
    field = "\n" + " " * JSON_INDENT
    sep = "{"
    # a key that is not a str fails in sorted() or in _escape
    for key in sorted(doc):
        yield (sep + field + _escape(key) + ": ").encode("utf-8")
        yield from _chunks(doc[key], 1, memo)
        sep = ","
    yield b"\n}\n"


def _chunks(value, depth: int, memo: dict):
    """The UTF-8 text of ``value`` at ``depth``, a list or generator of rows
    one slice at a time, anything else in one piece."""
    if type(value) is not list and type(value) is not GeneratorType:
        yield _render(value, depth, memo).encode("utf-8")
        return
    pad = "\n" + " " * (JSON_INDENT * depth)
    field = pad + " " * JSON_INDENT
    rows = iter(value)
    opened = False
    while chunk := list(islice(rows, JSON_SLICE_ROWS)):
        text = ("," + field).join(_texts(chunk, depth + 1, memo))
        yield (("," if opened else "[") + field + text).encode("utf-8")
        opened = True
    yield (pad + "]" if opened else "[]").encode("utf-8")


def to_json_bytes(doc) -> bytes:
    """The whole of `json_chunks(doc)` as one bytes object."""
    return b"".join(json_chunks(doc))


# the C string escaper of the stdlib JSON encoder (ensure_ascii=True)
_escape = json.encoder.encode_basestring_ascii


def _render(value, depth: int, memo: dict) -> str:
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is int:
        return str(value)
    if kind is list:
        return next(_list_texts([value], depth, memo)) if value else "[]"
    if kind is dict:
        return next(_dict_texts([value], depth, memo)) if value else "{}"
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"{kind.__name__} is not written to exact JSON: {value!r}")


def _texts(values: list, depth: int, memo: dict):
    """The text of each of ``values`` (a non-empty list) at ``depth``."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is str:
        return map(_escape, values)
    if kind is int:
        return map(str, values)
    if kind is list:
        return _list_texts(values, depth, memo)
    if kind is dict:
        keys = values[0].keys()
        if keys and all(map(keys.__eq__, map(dict.keys, values))):
            return _dict_texts(values, depth, memo)
    return [_render(x, depth, memo) for x in values]


def _list_texts(lists: list, depth: int, memo: dict):
    """The text of each of ``lists`` at ``depth``."""
    once = dict(zip(map(id, lists), lists))
    if len(once) < len(lists):
        # shared index lists: each object is rendered once per depth.  The
        # memo holds the object, so that its id is not reused by a row that
        # a generator makes after this slice is gone.
        for key, x in once.items():
            if (key, depth) not in memo:
                memo[key, depth] = x, _render(x, depth, memo)
        return [memo[key, depth][1] for key in map(id, lists)]
    if not all(lists):
        return [_render(x, depth, memo) for x in lists]
    pad = "\n" + " " * (JSON_INDENT * depth)
    inner = pad + " " * JSON_INDENT
    leaves = set(map(type, chain.from_iterable(lists)))
    if leaves == {str} or leaves == {int}:
        items = map(partial(map, _escape if str in leaves else str), lists)
    else:
        items = [_texts(x, depth + 1, memo) for x in lists]
    return map(("[" + inner + "{}" + pad + "]").format, map(("," + inner).join, items))


def _dict_texts(dicts: list, depth: int, memo: dict):
    """The text of each of ``dicts``, which share one non-empty key set, at
    ``depth``: one column per key, each row joined from precomputed heads."""
    # a key that is not a str fails in sorted() or in _escape
    keys = sorted(dicts[0])
    field = "\n" + " " * (JSON_INDENT * (depth + 1))
    heads = ["," + field + _escape(k) + ": " for k in keys]
    heads[0] = "{" + heads[0][1:]
    columns = [
        map(head.__add__, _texts(list(map(itemgetter(k), dicts)), depth + 1, memo))
        for head, k in zip(heads, keys)
    ]
    return map("".join, zip(*columns, repeat(field[:-JSON_INDENT] + "}")))


# -- building-set input files --------------------------------------------


def building_from_json(rs, doc: dict):
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
    return validate_building_set(rs, family, kind="custom")


def load_building_set(rs, path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return building_from_json(rs, json.load(fh))


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
        f"group order {model.weyl.order}, {fvec[-2]} defining half-spaces",
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
    return tuple(sum(L[i][j] * float(x[i]) for i in range(n)) for j in range(n))


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
        lines.append(" ".join(f"{c:.{precision}g}" for c in p))
    for half, vert_ids in zip(model.halfspaces, model.facet_sets):
        ids = sorted(vert_ids)
        normal = _embed(L, half.normal)
        nlen = math.sqrt(sum(c * c for c in normal))
        normal = tuple(c / nlen for c in normal)
        centroid = tuple(sum(points[i][c] for i in ids) / len(ids) for c in range(3))
        offsets = [tuple(points[i][c] - centroid[c] for c in range(3)) for i in ids]
        u = None
        for d in offsets:
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
        angle = {
            i: math.atan2(
                sum(d[c] * v[c] for c in range(3)), sum(d[c] * u[c] for c in range(3))
            )
            for i, d in zip(ids, offsets)
        }
        ordered = sorted(ids, key=angle.__getitem__)
        lines.append(f"{len(ordered)} " + " ".join(map(str, ordered)))
    return "\n".join(lines) + "\n"
