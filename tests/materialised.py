"""The materialised verification path, kept as the oracle of ``pnh.chamber``.

The simplicity test and the face report over the whole V-rep
(``model.vrep``), the whole H-rep (``model.halfspaces``) and the integer
incidence kernel (``model.incidence``): every inequality over every vertex,
and every face, with no orbit argument.  ``verify_hrep_vrep``, the
materialised incidence report, stays in ``pnh.polytope``.

Two oracles of ``nestohedron_check``, each solving every family of n - 1
proper fundamental members: the family scan it replaced
(``family_nestohedron_check``), and a brute-force vertex enumeration of the
chamber nestohedron (``vertex_enumeration``).

The epsilon lemma's search as it was before its private-mask pruning
(``decompositions``): it prunes only a member that adds no index, and
tests each covering family for redundancy at the end.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import mul, or_

from pnh.errors import SingularSystem
from pnh.faces import support_halfspaces
from pnh.flats import BuildingSet, Flat, iter_bits
from pnh.halfspaces import SuitableList
from pnh.nested import NestedSet, enumerate_maximal_nested_sets
from pnh.polytope import (
    CheckReport,
    Incidence,
    _base_point,
    _chamber_rhs,
    _chamber_solve,
)


def face_vertices_geometric(ctx, face, vrep, index, incidence=None):
    """Vertex ids lying on every supporting hyperplane of the face.

    The hyperplanes are chosen combinatorially; the vertices on each come
    from the incidence kernel's exact dot products.
    """
    if incidence is None:
        incidence = Incidence(ctx.building.rs, vrep)
    support = [index.halfspaces[i] for i in support_halfspaces(ctx, face, index)]
    mask = incidence.full
    for tight in incidence.facet_masks(support):
        mask &= tight
    return frozenset(iter_bits(mask))


def simple(model):
    """True when every vertex is on exactly n defining inequalities: every
    inequality is scanned over every vertex, and one that touches none
    raises EmptyFacet."""
    incidence = model.incidence
    per_vertex = [0] * incidence.count
    for mask in incidence.facet_masks(model.halfspaces):
        for i in iter_bits(mask):
            per_vertex[i] += 1
    return all(c == model.rs.rank for c in per_vertex)


def face_vertex_report(model):
    """Pair description vs supporting hyperplanes, every face checked."""
    failures = []
    for face in model.faces:
        combinatorial = model.face_vertex_ids(face)
        geometric = face_vertices_geometric(
            model.face_ctx, face, model.vrep, model.halfspace_index, model.incidence
        )
        if combinatorial != geometric:
            failures.append(
                f"face {face}: pair description gives {len(combinatorial)} "
                f"vertices, supporting hyperplanes give {len(geometric)}"
            )
    return CheckReport(
        "face vertices vs supporting hyperplanes",
        not failures,
        sum(model.f_vector),
        tuple(failures[:10]),
    )


def family_nestohedron_check(
    building: BuildingSet, suitable: SuitableList
) -> CheckReport:
    """Chamber-side characterisation of the nestohedron vertices.

    (a) every maximal nested set's vertex satisfies the strict chamber
    inequalities and (c) is strictly inside every member inequality it is
    not tight on; (b) every size-n independent non-nested family is cut
    off strictly by a predicted inequality.  A family is independent when
    its equations fix one point (``_chamber_solve``).  Each point is kept
    as integers over one denominator and each comparison with a member's
    bound is one integer cross-multiplication.
    """
    rs = building.rs
    n = rs.rank
    data = building.fund_data
    rhs = _chamber_rhs(building, suitable)
    failures = []
    checked = 0

    proper = [f for f in building.fund if f != building.V]
    nested_ok = set(enumerate_maximal_nested_sets(building))

    def excess(f: Flat, y, d: int) -> int:
        # the sign of (y / d, delta_perp_f) minus its bound, in integers
        r, dot = rhs[f], sum(map(mul, data[f].gram_delta_perp, y))
        return dot * r.denominator - r.numerator * d

    for s in sorted(nested_ok):
        y, d = _base_point(building, rhs, s)
        for f in proper:
            checked += 1
            if f in s:
                if excess(f, y, d) != 0:
                    failures.append(f"expected tightness fails on {f.describe(rs)}")
            elif excess(f, y, d) >= 0:
                failures.append(
                    f"vertex of {tuple(g.dim for g in s)} not strictly inside "
                    f"member inequality of {f.describe(rs)}"
                )

    for combo in combinations(proper, n - 1):
        family = NestedSet(tuple(sorted(combo)) + (building.V,))
        if family in nested_ok:
            continue
        try:
            y, d, gx = _chamber_solve(building, rhs, combo)
        except SingularSystem:
            continue
        checked += 1
        if any(c <= 0 for c in gx):
            # left the open chamber: the crossed wall's line inequality must
            # exclude the point strictly
            i = next(i for i, c in enumerate(gx) if c <= 0)
            line = building.fund_flat_for_indices(1 << i)
            if excess(line, y, d) <= 0:
                failures.append(
                    f"chamber-violating point of {family} not excluded by the "
                    f"line inequality of simple root {i}"
                )
            continue
        witnesses = _sum_witnesses(building, family)
        witness = next((w for w in witnesses if w not in combo), None)
        if witness is None:
            failures.append(
                f"no excluding member outside the family found for non-nested "
                f"dims {tuple(f.dim for f in combo)}"
            )
            continue
        if excess(witness, y, d) <= 0:
            failures.append(
                f"point of non-nested family (dims "
                f"{tuple(f.dim for f in combo)}) not strictly excluded by "
                f"{witness.describe(rs)}"
            )

    return CheckReport(
        "nestohedron vertex characterisation", not failures, checked, tuple(failures)
    )


def _sum_witnesses(building: BuildingSet, family: NestedSet) -> list[Flat]:
    """Fundamental members expressible as a non-redundant sum of >= 2
    family members (nonempty exactly when the family is not nested)."""
    masks = [building.fund_index_sets[f] for f in family if f != building.V]
    found = []
    for size in range(2, len(masks) + 1):
        for combo in combinations(masks, size):
            union = reduce(or_, combo)
            # non-redundant: every member keeps an index no other one has
            others = [reduce(or_, combo[:i] + combo[i + 1 :]) for i in range(size)]
            if any(m & ~o == 0 for m, o in zip(combo, others)):
                continue
            hit = building.fund_flat_for_indices(union)
            if hit is not None and union not in combo:
                found.append(hit)
    return found


def vertex_enumeration(building, suitable, base) -> bool:
    """True when the listed base points are the vertices of the chamber
    nestohedron Q = {(x, delta) = a, (x, delta_perp_A) <= a - eps_A for the
    proper fundamental members A}, each in the open chamber and tight on
    exactly the proper members of its nested set.

    Every family of n - 1 proper members whose equations fix one point is
    solved, and a point on no member's far side is a vertex of Q: one from
    a non-nested family is an extra vertex, or a listed one tight on a
    member outside its nested set.
    """
    rhs = _chamber_rhs(building, suitable)
    data = building.fund_data
    proper = [f for f in building.fund if f != building.V]
    found = {}
    for combo in combinations(proper, building.rs.rank - 1):
        try:
            y, d, gx = _chamber_solve(building, rhs, combo)
        except SingularSystem:
            continue
        # the sign of (y / d, delta_perp_f) minus its bound, per member
        excess = {
            f: sum(map(mul, data[f].gram_delta_perp, y)) * rhs[f].denominator
            - rhs[f].numerator * d
            for f in proper
        }
        if all(e <= 0 for e in excess.values()):
            tight = frozenset(f for f, e in excess.items() if e == 0)
            point = tuple(Fraction(c, d) for c in y)
            found[point] = (tight, all(c > 0 for c in gx))
    listed = {
        tuple(Fraction(c, base.scale) for c in y): (s.flat_set - {building.V}, True)
        for s, y in zip(base.max_nested, base.vertices)
    }
    return found == listed


def decompositions(building: BuildingSet, target_mask: int):
    """Non-redundant families of >= 2 proper fundamental members summing to
    the fundamental flat with simple-index set ``target_mask``."""
    candidates = [
        (f, m)
        for f, m in building.fund_index_sets.items()
        if m & ~target_mask == 0 and m != target_mask
    ]
    candidates.sort(key=lambda fm: fm[0])
    results = []

    def extend(start: int, chosen: list, covered: int):
        # non-redundant: every member keeps an index private to it
        if covered == target_mask and len(chosen) >= 2 and all(
            m & ~reduce(or_, [mg for g, mg in chosen if g is not f]) for f, m in chosen
        ):
            results.append(tuple(f for f, _ in chosen))
        for k in range(start, len(candidates)):
            f, m = candidates[k]
            if m & ~covered == 0:
                continue  # adds nothing new: redundant forever
            extend(k + 1, chosen + [(f, m)], covered | m)

    extend(0, [], 0)
    return results
