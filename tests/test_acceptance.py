"""Acceptance suite: twelve numbered criteria, one PASS/FAIL line each.

Each criterion times itself against its stated budget and prints a single
summary line before asserting, so a failing criterion still reports.
"""

import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

from conftest import make_model
from materialised import support_halfspaces
from pnh.counting import maximal_face_count, minimal_face_count
from pnh.errors import LemmaViolated
from pnh.faces import aut_action_on_halfspaces
from pnh.flats import flat_data
from pnh.halfspaces import SuitableList, verify_epsilon_lemma
from pnh.linalg import mat_vec, rank, solve_linear_system
from pnh.nested import is_nested
from pnh.polytope import euler_check, verify_hrep_vrep
from pnh.roots import diagram_automorphisms


def _finish(num, name, started, budget, ok, detail=""):
    elapsed = time.perf_counter() - started
    in_time = budget is None or elapsed < budget
    status = "PASS" if ok and in_time else "FAIL"
    stamp = f"{elapsed:.2f}s" + (f"/{budget:g}s" if budget is not None else "")
    line = f"ACCEPTANCE {num:02d} {name}: {status} [{stamp}]"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, detail or name
    assert in_time, f"{elapsed:.2f}s exceeds the {budget}s budget"


def test_criterion_01_a2_dodecagon(a2):
    t0 = time.perf_counter()
    ok = a2.f_vector == (12, 12, 1)
    report = verify_hrep_vrep(a2.building, a2.halfspaces, a2.vrep)
    ok = ok and report.passed and report.checked == 144
    _finish(
        1,
        "rank-2 irreducible simply-laced polygon",
        t0,
        1.0,
        ok,
        f"f-vector {a2.f_vector}, {report.checked} incidence pairs, "
        "every tightness predicted exactly",
    )


def test_criterion_02_b2_sixteen_gon(b2):
    t0 = time.perf_counter()
    ok = b2.f_vector == (16, 16, 1)
    _finish(2, "rank-2 two-root-length polygon", t0, 1.0, ok, f"f-vector {b2.f_vector}")


def test_criterion_03_a3_minimal_counts_and_incidence(a3_min):
    t0 = time.perf_counter()
    fvec = a3_min.f_vector
    ok = fvec == (120, 192, 74, 1)
    ok = ok and fvec[0] == 5 * 24  # Catalan(3) vertices per chamber
    ok = ok and euler_check(fvec)
    formula = tuple(minimal_face_count(4, k) for k in (2, 1, 0)) + (1,)
    ok = ok and formula == fvec
    report = verify_hrep_vrep(a3_min.building, a3_min.halfspaces, a3_min.vrep)
    ok = ok and report.passed and report.checked == 120 * 74
    _finish(
        3,
        "rank-3 minimal family counts + exhaustive incidence",
        t0,
        10.0,
        ok,
        f"f-vector {fvec}, closed form {formula}, {report.checked} pairs",
    )


def test_criterion_04_a3_maximal_counts_and_simplicity(a3_min, a3_max):
    t0 = time.perf_counter()
    fvec = a3_max.f_vector
    ok = fvec == (144, 216, 74, 1)
    ok = ok and fvec[0] == 6 * 24
    ok = ok and a3_max.simple() and not a3_min.simple()
    _finish(
        4,
        "rank-3 maximal family counts + simplicity contrast",
        t0,
        10.0,
        ok,
        f"f-vector {fvec}, maximal simple, minimal not",
    )


def test_criterion_05_formula_vs_enumeration_through_rank_4():
    t0 = time.perf_counter()
    details = []
    ok = True
    for n in (3, 4, 5):
        for kind, formula in (
            ("minimal", minimal_face_count),
            ("maximal", maximal_face_count),
        ):
            model = make_model(f"A{n - 1}", kind)
            fvec = model.f_vector
            expected = tuple(formula(n, k) for k in range(n - 1))
            got = tuple(fvec[n - 2 - k] for k in range(n - 1))
            if expected != got:
                ok = False
                details.append(f"A{n - 1} {kind}: formula {expected} != {got}")
    _finish(
        5,
        "closed-form face counts vs enumeration, ranks 2-4",
        t0,
        300.0,
        ok,
        "; ".join(details) or "all codimensions agree for both families",
    )


def test_criterion_06_generated_lists_pass_planted_list_fails(
    a2, a3_min, b3_min, a13_min, d4_min
):
    t0 = time.perf_counter()
    ok = True
    details = []
    for model in (a2, a3_min, b3_min, a13_min, d4_min):
        report = verify_epsilon_lemma(model.building, model.suitable)
        if not (report.passed and report.checked > 0):
            ok = False
            details.append(f"{model.rs.type_name()} generated list rejected")
    planted = SuitableList(Fraction(1), (Fraction(1, 3), Fraction(1)))
    try:
        verify_epsilon_lemma(a2.building, planted)
        ok = False
        details.append("planted non-suitable list was accepted")
    except LemmaViolated as exc:
        member, parts, eps_val, bound = exc.witness
        if not (eps_val == 1 and bound == Fraction(4, 3) and len(parts) == 2):
            ok = False
            details.append(f"unexpected witness {exc.witness}")
        else:
            details.append(
                f"planted list rejected with witness eps_2 = {eps_val} <= {bound}"
            )
    _finish(6, "separation inequalities for generated lists", t0, 30.0, ok,
            "; ".join(details))


def test_criterion_07_chamber_membership_and_exclusion(
    a2, a3_min, b3_min, a13_min, d4_min
):
    t0 = time.perf_counter()
    ok = True
    details = []

    # every chamber-nestohedron vertex sits strictly inside the open chamber,
    # and no other vertex does: exactly the first m, the base vertices
    checked = 0
    for model in (a2, a3_min, b3_min, a13_min, d4_min):
        rs = model.rs
        inside = [
            i
            for i, point in enumerate(model.vrep.vertices)
            if all(c > 0 for c in mat_vec(rs.gram, point))
        ]
        m = len(model.vrep.max_nested)
        if inside != list(range(m)):
            ok = False
            details.append(
                f"{rs.type_name()}: {len(inside)} vertices inside the chamber, "
                f"not the first {m}"
            )
        checked += len(inside)

    # full-size non-nested tuples are strictly cut off, rank-3 minimal family
    model = a3_min
    rs, building, s_list = model.rs, model.building, model.suitable
    data = {f: flat_data(rs, f) for f in building.fund}
    v_flat = building.V
    excluded = 0
    for pair in combinations([f for f in building.fund if f != v_flat], 2):
        tuple_flats = sorted(pair) + [v_flat]
        normals = [data[f].delta_perp for f in tuple_flats]
        if rank(normals) != rs.rank:
            continue
        if is_nested(building, tuple_flats):
            continue
        rows = [mat_vec(rs.gram, nv) for nv in normals]
        rhs = [
            s_list.a - (s_list.for_dim(f.dim) if f != v_flat else 0)
            for f in tuple_flats
        ]
        point = solve_linear_system(rows, rhs)
        mask = building.fund_index_sets[pair[0]] | building.fund_index_sets[pair[1]]
        summed = building.fund_flat_for_indices(mask)
        in_chamber = all(c > 0 for c in mat_vec(rs.gram, point))
        if summed is not None and summed not in tuple_flats:
            # predicted: the member inequality of the summed flat is violated
            if in_chamber and not (
                rs.inner(point, data[summed].pi) < s_list.for_dim(summed.dim)
            ):
                ok = False
                details.append(f"sum member not violated for {pair}")
            excluded += 1
        else:
            # summed flat already in the tuple: the point must leave the chamber
            if in_chamber:
                ok = False
                details.append(f"point for {pair} stayed inside the chamber")
            excluded += 1
    if excluded != 5:
        ok = False
        details.append(f"expected 5 non-nested tuples, saw {excluded}")
    _finish(
        7,
        "chamber membership + predicted exclusions",
        t0,
        None,
        ok,
        "; ".join(details) or f"{checked} chamber vertices, {excluded} exclusions",
    )


def test_criterion_08_facet_factorisation(a3_min, a4_min, b3_min, b3_max):
    t0 = time.perf_counter()
    ok = True
    details = []

    def crossing_facets(model):
        out = []
        for f in model.faces:
            if model.face_ctx.dimension(f) != model.rs.rank - 1:
                continue
            if f.labels and f.nested.flats == tuple(sorted(f.labels)) + (
                model.building.V,
            ):
                out.append(f)
        return out

    def quotient_points(fact):
        ground = len(fact.quotient.ground)
        return sum(1 for s in fact.quotient.nested_sets() if len(s) == ground)

    facets = crossing_facets(a3_min)

    # the square facet: two orthogonal lines labelled
    square = next(
        f for f in facets
        if len(f.labels) == 2 and all(a.dim == 1 for a in f.labels)
    )
    fact = a3_min.facet_factorisation(square)
    square_points = quotient_points(fact)
    factor_sizes = tuple(m.vertex_count for m in fact.factors)
    if not (
        square_points == 1
        and factor_sizes == (2, 2)
        and len(a3_min.face_vertex_ids(square)) == 4
        and fact.verify_vertex_count().passed
        and fact.verify_lattice().passed
    ):
        ok = False
        details.append(
            f"square facet gave quotient {square_points}, factors {factor_sizes}"
        )
    else:
        details.append("square facet = point x segment x segment, lattice match")

    # the facet labelled by a rank-2 irreducible flat is (quotient) x 12-gon.
    # In rank 3 the facet is 2-dimensional and the quotient is a point; in
    # rank 4 it is 3-dimensional and the quotient is a segment (24 vertices).
    # Dimension is checked geometrically: the facet's supporting hyperplane
    # holds on every vertex, and its tight set, found by exact inner products,
    # is the combinatorial vertex set with the right affine rank.
    def geometric_facet(model, face):
        [i] = support_halfspaces(model, face)
        normal, offset = model.halfspaces[i].normal, model.halfspaces[i].offset
        # the points are integers over one scale, so the offset is scaled too
        gn = mat_vec(model.rs.gram, normal)
        bound = offset * model.vrep.scale
        points = model.vrep.vertices
        values = [sum(a * b for a, b in zip(gn, p)) for p in points]
        tight = frozenset(i for i, x in enumerate(values) if x == bound)
        # affine rank = linear rank of the points lifted to height 1, minus 1
        affine = rank(points[i] + (1,) for i in tight) - 1
        valid = all(x <= bound for x in values)
        return valid and tight == model.face_vertex_ids(face), affine

    def rank2_facets(model):
        return [
            f for f in crossing_facets(model)
            if len(f.labels) == 1 and f.labels[0].dim == 2
        ]

    for model, expected, shape in (
        (a3_min, (2, 1, (12,), 12, True, 2, True), "point x 12-gon"),
        (a4_min, (3, 2, (12,), 24, True, 3, True), "segment x 12-gon"),
    ):
        face = rank2_facets(model)[0]
        fact = model.facet_factorisation(face)
        on_plane, affine = geometric_facet(model, face)
        got = (
            model.face_ctx.dimension(face),
            quotient_points(fact),
            tuple(m.vertex_count for m in fact.factors),
            len(model.face_vertex_ids(face)),
            on_plane,
            affine,
            fact.verify_vertex_count().passed and fact.verify_lattice().passed,
        )
        summary = (
            f"{model.rs.type_name()} rank-2-labelled facet: dimension {got[0]}, "
            f"quotient {got[1]} point(s), factors {got[2]}, {got[3]} vertices"
        )
        if got != expected:
            ok = False
            details.append(
                f"{summary}, supporting plane tight set matches {on_plane} "
                f"with affine rank {affine}, count and lattice {got[6]}; "
                f"expected {shape}"
            )
        else:
            details.append(f"{summary} = {shape}, lattice match")

    # every rank-2-labelled facet of A4 has the product's vertex count
    # (3 fundamental rank-2 flats, each with |W| / |W_A2| = 120 / 6 cosets)
    a4_facets = rank2_facets(a4_min)
    if len(a4_facets) != 60:
        ok = False
        details.append(f"expected 60 A4 rank-2-labelled facets, got {len(a4_facets)}")
    for f in a4_facets:
        if not a4_min.facet_factorisation(f).verify_vertex_count().passed:
            ok = False
            details.append(f"A4 rank-2-labelled facet {f} count mismatch")
    details.append(f"{len(a4_facets)} A4 rank-2-labelled facet counts checked")

    # vertex-count products for every crossing facet of both rank-3
    # two-root-length families
    for model in (b3_min, b3_max):
        for f in crossing_facets(model):
            fact3 = model.facet_factorisation(f)
            if not fact3.verify_vertex_count().passed:
                ok = False
                details.append(f"{model.building.kind} facet {f} count mismatch")
    _finish(8, "crossing-facet factorisation", t0, 30.0, ok, "; ".join(details))


def test_criterion_09_symmetry_action_on_halfspaces(a3_min, a3_max, d4_min):
    t0 = time.perf_counter()
    ok = True
    details = []
    try:
        for model in (a3_min, a3_max):
            autos = diagram_automorphisms(model.rs)
            count = 0
            for gamma in autos:
                for wid in range(model.weyl.order):
                    perm = aut_action_on_halfspaces(
                        model.building, model.weyl, model.halfspaces,
                        wid, gamma.matrix,
                    )
                    if sorted(perm) != list(range(len(model.halfspaces))):
                        ok = False
                    count += 1
            details.append(f"{model.building.kind} rank-3: {count} symmetries")

        autos = diagram_automorphisms(d4_min.rs)
        if len(d4_min.halfspaces) != 864:
            ok = False
            details.append(f"expected 864 half-spaces, got {len(d4_min.halfspaces)}")
        triality = next(a for a in autos if a.perm == (2, 1, 3, 0))
        p = aut_action_on_halfspaces(
            d4_min.building, d4_min.weyl, d4_min.halfspaces,
            d4_min.weyl.identity_id, triality.matrix,
        )
        p2 = tuple(p[i] for i in p)
        p3 = tuple(p[i] for i in p2)
        ident = tuple(range(len(p)))
        if not (p != ident and p2 != ident and p3 == ident):
            ok = False
            details.append("triality does not act with order 3")
        else:
            details.append("triality acts with order 3")
        count = 0
        for gamma in autos:
            for wid in range(d4_min.weyl.order):
                aut_action_on_halfspaces(
                    d4_min.building, d4_min.weyl, d4_min.halfspaces,
                    wid, gamma.matrix,
                )
                count += 1
        details.append(f"branching rank-4: {count} symmetries permute all 864")
    except Exception as exc:  # a raised witness means the action failed
        ok = False
        details.append(f"{type(exc).__name__}: {exc}")
    _finish(9, "diagram x group symmetries permute the inequalities", t0, 60.0,
            ok, "; ".join(details))


def test_criterion_10_order_relation_matches_vertex_containment(a2, a3_min, a3_max):
    t0 = time.perf_counter()
    ok = True
    details = []
    for model in (a2, a3_min, a3_max):
        faces = model.faces
        vsets = [model.face_vertex_ids(f) for f in faces]
        bad = 0
        for i, p in enumerate(faces):
            for j, q in enumerate(faces):
                if model.face_leq(p, q) != (vsets[i] <= vsets[j]):
                    bad += 1
        if bad:
            ok = False
            details.append(f"{model.building.kind}: {bad} disagreeing pairs")
        else:
            details.append(
                f"{model.rs.type_name()} {model.building.kind}: "
                f"{len(faces) ** 2} pairs agree"
            )
    _finish(10, "pair order vs geometric vertex containment", t0, 120.0, ok,
            "; ".join(details))


def test_criterion_11_b3_pentagons_and_hexagons(b3_min, b3_max):
    t0 = time.perf_counter()
    ok = (
        len(b3_min.vrep.max_nested) == 5
        and b3_min.vertex_count == 48 * 5
        and len(b3_max.vrep.max_nested) == 6
        and b3_max.vertex_count == 48 * 6
    )
    _finish(
        11,
        "per-chamber nestohedron sizes (5 vs 6)",
        t0,
        None,
        ok,
        f"minimal {b3_min.vertex_count} vertices, maximal {b3_max.vertex_count}",
    )


def test_criterion_12_build_output_is_byte_deterministic():
    t0 = time.perf_counter()
    cmd = [
        sys.executable, "-m", "pnh.cli",
        "build", "--type", "B3", "--building", "minimal", "--a", "1",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    ok = first.stdout == second.stdout and len(first.stdout) > 10_000
    _finish(
        12,
        "repeated builds emit identical bytes",
        t0,
        None,
        ok,
        f"{len(first.stdout)} bytes each",
    )
