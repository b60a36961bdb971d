"""Serialization surfaces: exact-rational JSON documents, f-vector tables,
face-poset dumps, and lossy OFF meshes for rank-3 polytopes.

Every JSON surface carries rationals as "p/q" strings and is rendered with
sorted keys and a fixed indent, so identical inputs produce byte-identical
output.  The OFF mesh is the single lossy surface: coordinates are decimal
approximations, and the file header says so.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import OutOfRange, UnsupportedType
from .faces import covering_edges
from .flats import Flat, flat_closure, validate_building_set
from .halfspaces import HalfSpace
from .linalg import Vec
from .model import Permutonestohedron
from .counting import maximal_face_count, minimal_face_count

JSON_INDENT = 2


# -- rationals across the boundary -------------------------------------


def rat_str(x) -> str:
    """Render a rational as "p" or "p/q" (lowest terms, q > 0)."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_rat(text: str) -> Fraction:
    return Fraction(text.strip())


def vec_strs(v: Vec) -> list[str]:
    return [rat_str(x) for x in v]


def flat_indices(flat: Flat) -> list[int]:
    return list(flat.indices())


# -- JSON documents -----------------------------------------------------


def halfspace_json(h: HalfSpace) -> dict:
    return {
        "normal": vec_strs(h.normal),
        "offset": rat_str(h.offset),
        "kind": h.kind,
        "flat": flat_indices(h.flat),
        "sigma_id": h.sigma_id,
    }


def hrep_json(model: Permutonestohedron) -> list[dict]:
    return [halfspace_json(h) for h in model.halfspaces]


def vrep_json(model: Permutonestohedron) -> list[dict]:
    return [
        {
            "point": vec_strs(v.point),
            "sigma_id": v.sigma_id,
            "nested": [flat_indices(f) for f in v.nested],
        }
        for v in model.vrep.vertices
    ]


def root_system_json(model: Permutonestohedron) -> dict:
    rs = model.rs
    return {
        "type": rs.type_name(),
        "rank": rs.rank,
        "gram": [vec_strs(row) for row in rs.gram],
        "positive_roots": [vec_strs(r) for r in rs.positive_roots],
    }


def building_json(model: Permutonestohedron) -> dict:
    b = model.building
    return {
        "kind": b.kind,
        "flats": [flat_indices(f) for f in b.sorted_flats],
        "fundamental": [flat_indices(f) for f in b.fund],
    }


def build_document(model: Permutonestohedron, config: dict | None = None) -> dict:
    """The full H/V-representation document for the ``build`` command."""
    return {
        "config": config or {},
        "root_system": root_system_json(model),
        "building": building_json(model),
        "group_order": model.weyl.order,
        "a": rat_str(model.suitable.a),
        "epsilons": [rat_str(e) for e in model.suitable.eps],
        "f_vector": list(model.f_vector),
        "hrep": hrep_json(model),
        "vrep": vrep_json(model),
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
    nodes = [
        {
            "dim": model.rs.rank - len(f.nested) + len(f.labels),
            "coset_rep_id": f.rep,
            "flats": [flat_indices(x) for x in f.nested],
            "labels": [flat_indices(x) for x in f.labels],
        }
        for f in faces
    ]
    doc = {
        "config": config or {},
        "root_system": root_system_json(model),
        "building": building_json(model),
        "f_vector": list(model.f_vector),
        "nodes": nodes,
    }
    if include_edges:
        doc["edges"] = covering_edges(model.face_ctx, faces)
    return doc


def to_json_bytes(doc: dict) -> bytes:
    text = json.dumps(doc, indent=JSON_INDENT, sort_keys=True)
    return text.encode("utf-8") + b"\n"


# -- building-set input files --------------------------------------------


def building_from_json(rs, doc: dict, weyl=None):
    """Load {"roots": [...], "flats": [[positive-root indices]...]}.

    The "roots" list pins the index convention: it must match the
    root system's positive roots exactly, in order.  Each flat is then
    checked to be closed (span intersected with the roots gives back the
    same index set) before the family is run through the building-set
    validator.
    """
    roots = doc.get("roots")
    flats = doc.get("flats")
    if not isinstance(roots, list) or not isinstance(flats, list):
        raise ValueError("building-set file needs 'roots' and 'flats' lists")
    given = [tuple(Fraction(str(x)) for x in r) for r in roots]
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
        if not idxs or not all(
            isinstance(i, int) and 0 <= i < len(given) for i in idxs
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
    formula = None
    if (
        rs.components is not None
        and len(rs.components) == 1
        and rs.components[0][0] == "A"
        and model.building.kind in ("minimal", "maximal")
    ):
        n = rs.components[0][1] + 1
        fn = minimal_face_count if model.building.kind == "minimal" else maximal_face_count
        formula = {rs.rank - 1 - k: fn(n, k) for k in range(0, n - 1)}
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
    points = [_embed(L, v.point) for v in model.vrep.vertices]
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
