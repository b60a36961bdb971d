"""The materialised verification path, kept as the oracle of ``pnh.chamber``.

The simplicity test and the face report over the whole V-rep
(``model.vrep``), the whole H-rep (``model.halfspaces``) and the integer
incidence kernel (``model.incidence``): every inequality over every vertex,
and every face, with no orbit argument.  A face's supporting hyperplanes
are found in the H-rep by their exact keys, not by orbit position.
``verify_hrep_vrep``, the materialised incidence report, stays in
``pnh.polytope``.

Two oracles of ``nestohedron_check``, each solving every family of n - 1
proper fundamental members: the family scan it replaced
(``family_nestohedron_check``), and a brute-force vertex enumeration of the
chamber nestohedron (``vertex_enumeration``).

The epsilon lemma's search as it was before its private-mask pruning
(``decompositions``): it prunes only a member that adds no index, and
tests each covering family for redundancy at the end.

The set-up in ``Fraction`` arithmetic that the integer one replaced: the
weights and delta of a ``RootSystem`` with their checks
(``fraction_weights_and_delta``), ``flat_data`` (``fraction_flat_data``),
the ratio table (``fraction_ratio_table``) and ``fundamental_halfspaces``
(``fraction_fundamental_halfspaces``), each read from the Fraction Gram
matrix; and the epsilon lemma with one bound summed per family
(``epsilon_lemma_by_family``).

The nestedness test by antichains that ``pnh.nested``'s extension rule
replaced: ``is_nested``, and the two listings built on it, the oracles of
``enumerate_nested_sets`` (``antichain_nested_sets``) and of
``CombinatorialBuildingSet.nested_sets`` (``antichain_combinatorial_nested_sets``).
Each searches every antichain of incomparable members through the new one.

Helpers only the tests read: ``solve_linear_system``, the one
right-hand-side form of ``solve_columns``; ``member_ids``, the ids of a
parabolic subgroup's own elements; ``rank`` and ``solve_columns``, the
echelon rank and the ``Fraction`` solve of ``pnh.linalg``'s elimination.

The general restriction that the standard parabolic one of
``pnh.flats.restricted_building_set`` replaced (``general_restriction``),
which finds the simple roots of any member flat as its indecomposable
roots and renumbers the flat's roots by a ``Fraction`` solve; and the
group inverse by a ``Fraction`` solve of the element's matrix
(``fraction_inverse``), which ``WeylGroup.inv`` replaced by the word.

The OFF mesh as ``pnh.exports.off_text`` made it before its flat float
pass (``reference_off_text``): each coordinate a ``sum()`` over a
generator, each normal embedded from its ``Fraction`` coordinates.
"""

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import mul, or_

from pnh.errors import (
    MissingV,
    NotBuilding,
    OutOfRange,
    SingularSystem,
    UnsupportedType,
    VerificationFailed,
)
from pnh.exports import _cholesky
from pnh.faces import support_masks
from pnh.flats import (
    BuildingSet,
    Flat,
    fundamental_flats,
    iter_bits,
    simple_index_set,
)
from pnh.halfspaces import HalfSpace, SuitableList, _decompositions, ratio_table
from pnh.linalg import (
    Echelon,
    _eliminate,
    identity,
    int_mat_vec,
    integer_row,
    mat_vec,
    primitive_vector,
    vsub,
)
from pnh.nested import (
    CombinatorialBuildingSet,
    NestedSet,
    enumerate_maximal_nested_sets,
)
from pnh.polytope import (
    CheckReport,
    Incidence,
    _base_point,
    _chamber_rhs,
    _chamber_solve,
)
from pnh.roots import RootSystem


def key_positions(halfspaces) -> dict:
    """The position of each inequality in ``halfspaces``, by its exact key."""
    return {hs.key(): i for i, hs in enumerate(halfspaces)}


def support_halfspaces(model, face, positions=None) -> list:
    """H-rep positions of the hyperplanes whose intersection carries the face:
    the image, by the face's coset representative, of the fundamental
    inequality of each of its ``support_masks``, found in ``model.halfspaces``
    by its exact key (``positions``, made from the H-rep when not given);
    None for an image the H-rep does not hold."""
    if positions is None:
        positions = key_positions(model.halfspaces)
    fundamental = {simple_index_set(model.rs, h.flat): h for h in model.fundamental_hs}
    rep = model.weyl.elements[face.rep]
    return [
        positions.get((int_mat_vec(rep, fundamental[m].prim), fundamental[m].bound))
        for m in support_masks(model.building, face)
    ]


def face_vertices_geometric(model, face, incidence=None, positions=None):
    """Vertex ids of ``model.vrep`` lying on every supporting hyperplane of
    the face, none when the H-rep lacks one of them.

    The hyperplanes are chosen combinatorially and found in the H-rep by
    key (``support_halfspaces``); the vertices on each come from the
    incidence kernel's exact dot products.
    """
    if incidence is None:
        incidence = Incidence(model.rs, model.vrep)
    found = support_halfspaces(model, face, positions)
    if None in found:
        return frozenset()
    mask = incidence.full
    for tight in incidence.facet_masks([model.halfspaces[i] for i in found]):
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
    positions = key_positions(model.halfspaces)
    for face in model.faces:
        combinatorial = model.face_vertex_ids(face)
        geometric = face_vertices_geometric(model, face, model.incidence, positions)
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


def fraction_weights_and_delta(rs) -> tuple:
    """(cartan, weights, delta) of ``rs`` in Fractions from ``rs.gram``,
    with the checks the root system made on them; raises UnsupportedType."""
    gram, n = rs.gram, rs.rank
    cartan = []
    for i in range(n):
        d = gram[i][i]
        if d <= 0:
            raise UnsupportedType("Gram matrix is not positive on the diagonal")
        row = [2 * gram[i][j] / d for j in range(n)]
        if any(c.denominator != 1 for c in row):
            raise UnsupportedType("Gram matrix is not crystallographic")
        cartan.append(tuple(int(c) for c in row))
    targets = [
        tuple(gram[i][i] / 2 if j == i else Fraction(0) for j in range(n))
        for i in range(n)
    ]
    weights = tuple(solve_columns(gram, targets))
    delta = tuple(
        sum(r[i] for r in rs.positive_roots) / Fraction(2) for i in range(n)
    )
    for i, w in enumerate(weights):
        gw = mat_vec(gram, w)
        if any(2 * gw[j] / gram[j][j] != (j == i) for j in range(n)):
            raise UnsupportedType("fundamental weights fail their defining property")
    if delta != tuple(sum(w[i] for w in weights) for i in range(n)):
        raise UnsupportedType("half-sum of positive roots != sum of weights")
    if any(c <= 0 for c in mat_vec(gram, delta)):
        raise UnsupportedType("delta is not in the open fundamental chamber")
    return tuple(cartan), weights, delta


def fraction_flat_data(rs, flat: Flat) -> tuple:
    """(flat, pi, delta_perp, gram_delta_perp, ratio) of ``flat_data`` in
    Fractions: pi the half-sum of the flat's roots, delta_perp = delta - pi
    (delta for the whole space), and the row Gram delta_perp."""
    n = rs.rank
    delta = fraction_weights_and_delta(rs)[2]
    pi = tuple(
        sum(rs.positive_roots[i][c] for i in flat.indices()) * Fraction(1, 2)
        for c in range(n)
    )
    if flat.dim == n:
        if pi != delta:
            raise VerificationFailed("half-sum over the whole space is not delta")
        dperp = pi
    else:
        dperp = vsub(delta, pi)
    row = mat_vec(rs.gram, dperp)
    if flat.dim < n:
        if any(sum(map(mul, row, rs.positive_roots[i])) for i in flat.indices()):
            raise VerificationFailed(
                f"delta_perp not orthogonal to flat {flat.describe(rs)}"
            )
        coeffs = [2 * row[s] / rs.gram[s][s] for s in range(n)]
        simple_mask = simple_index_set(rs, flat)
        for s in range(n) if simple_mask is not None else ():
            inside = simple_mask >> s & 1
            if inside and coeffs[s] != 0:
                raise VerificationFailed("delta_perp has weight on its own flat")
            if not inside and coeffs[s] < 1:
                raise VerificationFailed(
                    "delta_perp weight-coefficient below 1 off the flat"
                )
    prim = primitive_vector(row)
    ratio = next(Fraction(x) / p for p, x in zip(prim, row) if p)
    return flat, pi, dperp, prim, ratio


def fraction_ratio_table(building: BuildingSet) -> dict:
    """``ratio_table(building).per_dim`` from the Fraction pi of each member."""
    pis = {f: fraction_flat_data(building.rs, f)[1] for f in building.fund}
    per_dim: dict = {}
    for a in building.fund:
        for b in building.fund:
            if b.dim < a.dim and a.contains(b):
                r = max(pis[a]) / min(c for c in pis[b] if c != 0)
                key = (a.dim, b.dim)
                if key not in per_dim or per_dim[key] < r:
                    per_dim[key] = r
    return per_dim


def _fraction_fundamental(normal, offset, kind: str, flat: Flat) -> HalfSpace:
    prim = primitive_vector(normal)
    ratio = next(Fraction(x) / p for p, x in zip(prim, normal) if p)
    return HalfSpace(prim, offset / ratio, ratio, kind, flat, 0)


def fraction_fundamental_halfspaces(building: BuildingSet, suitable) -> list:
    """``fundamental_halfspaces`` from Fraction normals: delta, each member's
    delta_perp, and delta minus the parts' pi for each non-member, whose
    weight coefficients are read from the Fraction Gram matrix."""
    rs = building.rs
    data = {f: fraction_flat_data(rs, f) for f in building.fund}
    delta = data[building.V][1]
    out = [_fraction_fundamental(delta, suitable.a, "chamber", building.V)]
    for f in building.fund:
        if f != building.V:
            offset = suitable.a - suitable.for_dim(f.dim)
            out.append(_fraction_fundamental(data[f][2], offset, "member", f))
    for b in fundamental_flats(rs):
        if b in building.fund:
            continue
        mask = simple_index_set(rs, b)
        normal, offset = delta, suitable.a
        for p in building.fund_decomposition(mask):
            normal = vsub(normal, data[p][1])
            offset -= suitable.for_dim(p.dim)
        gn = mat_vec(rs.gram, normal)
        for s in range(rs.rank):
            coeff = 2 * gn[s] / rs.gram[s][s]
            if mask >> s & 1 and coeff != 0:
                raise VerificationFailed("nonmember normal has weight on its flat")
            if not mask >> s & 1 and coeff <= 0:
                raise VerificationFailed(
                    "nonmember normal has nonpositive weight off its flat"
                )
        if offset <= 0:
            raise VerificationFailed(
                f"nonpositive offset {offset} for nonmember {b.describe(rs)}"
            )
        out.append(_fraction_fundamental(normal, offset, "nonmember", b))
    return out


def epsilon_lemma_by_family(building: BuildingSet, suitable) -> tuple:
    """(checked, violations) of ``verify_epsilon_lemma``, summing each
    family's bound sum_i R(dim B, dim B_i) eps_{dim B_i} afresh."""
    table = ratio_table(building)
    checked, violations = 0, []
    for b in building.fund:
        for parts in _decompositions(building, building.fund_index_sets[b]):
            checked += 1
            bound = sum(
                table.ratio(b.dim, p.dim) * suitable.for_dim(p.dim) for p in parts
            )
            if suitable.for_dim(b.dim) <= bound:
                violations.append((b, parts, suitable.for_dim(b.dim), bound))
    return checked, violations


def solve_linear_system(a, b):
    """Solve the square system a @ x = b exactly; SingularSystem when the
    coefficient matrix is not invertible."""
    return solve_columns(a, [b])[0]


def member_ids(subgroup) -> tuple[int, ...]:
    """The ids of W_J itself: the identity's coset."""
    return subgroup.cosets[0]


def rank(vectors) -> int:
    ech = Echelon()
    for v in vectors:
        ech.add(v)
    return ech.rank


def solve_columns(a, bs) -> list:
    """Solve a @ x = b for each b in ``bs`` with one elimination pass."""
    n = len(a)
    for row in a:
        if len(row) != n:
            raise ValueError("coefficient matrix must be square")
    rows = [integer_row(tuple(a[i]) + tuple(b[i] for b in bs)) for i in range(n)]
    ys, det = _eliminate(rows, n, len(bs))
    return [tuple([Fraction(v, det) for v in y]) for y in ys]


def fraction_inverse(weyl, a: int) -> int:
    """The id of a^-1, its matrix found by solving M x = e_r in Fractions."""
    n = weyl.rs.rank
    cols = solve_columns(weyl.elements[a], [identity(n)[r] for r in range(n)])
    inverse = tuple(tuple(int(cols[c][r]) for c in range(n)) for r in range(n))
    return weyl.index[inverse]


def general_restriction(building: BuildingSet, flat: Flat) -> tuple:
    """(root system, ambient root index -> own index, renumbered members) of
    ``building`` restricted to its member ``flat``, which need not be
    fundamental: the simple roots are the flat's indecomposable positive
    roots, and each root of the flat is renumbered by solving for its
    coordinates in them."""
    rs = building.rs
    inside = sorted(flat.indices())
    coord_set = {rs.positive_roots[i] for i in inside}
    base = []
    for i in inside:
        root = rs.positive_roots[i]
        decomposable = False
        for j in inside:
            other = rs.positive_roots[j]
            residue = tuple(a - b for a, b in zip(root, other))
            if any(residue) and residue in coord_set:
                decomposable = True
                break
        if not decomposable:
            base.append(i)
    if len(base) != flat.dim:
        raise NotBuilding(
            f"found {len(base)} indecomposable roots in a dim-{flat.dim} flat"
        )
    gram = tuple(
        tuple(rs.inner(rs.positive_roots[i], rs.positive_roots[j]) for j in base)
        for i in base
    )
    sub = RootSystem.from_gram(gram)
    if len(sub.positive_roots) != len(inside):
        raise NotBuilding("sub-root-system size mismatch")

    # Express each ambient root of the flat in the sub-simple basis to get
    # the index correspondence.  The basis matrix is n x dim; restrict to
    # dim independent coordinate rows to solve.
    basis_cols = tuple(zip(*(rs.positive_roots[i] for i in base)))
    ech_rows: list[int] = []
    ech = Echelon()
    for r in range(rs.rank):
        if ech.add(tuple(basis_cols[r])):
            ech_rows.append(r)
    square = tuple(tuple(basis_cols[r]) for r in ech_rows)
    sub_index_of: dict[int, int] = {}
    targets = [
        tuple(rs.positive_roots[i][r] for r in ech_rows) for i in inside
    ]
    coords = solve_columns(square, targets)
    for i, c in zip(inside, coords):
        key = tuple(c)
        if any(x.denominator != 1 for x in key):
            raise NotBuilding("ambient root has non-integral sub-coordinates")
        key = tuple(int(x) for x in key)
        sub_index_of[i] = sub.root_index[key]
    members = frozenset(
        Flat(g.dim, sum(1 << sub_index_of[i] for i in g.indices()))
        for g in building.sorted_flats
        if flat.contains(g)
    )
    return sub, sub_index_of, members


def _antichain_masks(masks: list[int]) -> list[tuple[int, ...]]:
    """All sub-collections of pairwise-incomparable index masks, size >= 1."""
    out = []
    m = len(masks)
    for size in range(1, m + 1):
        for combo in combinations(range(m), size):
            ok = True
            for a, b in combinations(combo, 2):
                x, y = masks[a], masks[b]
                if x & ~y == 0 or y & ~x == 0:
                    ok = False
                    break
            if ok:
                out.append(tuple(masks[i] for i in combo))
    return out


def is_nested(building: BuildingSet, flats) -> bool:
    """Nestedness test for a set of fundamental flats containing V.

    No antichain of two or more members may sum to a building-set member.
    """
    flats = sorted(set(flats))
    if building.V not in flats:
        raise MissingV("nested sets must contain the whole space")
    masks = []
    for f in flats:
        mask = building.fund_index_sets.get(f)
        if mask is None:
            raise ValueError(f"{f.describe(building.rs)} is not a fundamental member")
        if f != building.V:
            masks.append(mask)
    for chain in _antichain_masks(masks):
        if len(chain) < 2:
            continue
        union = 0
        for m in chain:
            union |= m
        if building.fund_flat_for_indices(union) is not None:
            return False
    return True


def _compatible(building: BuildingSet, chosen_masks: list[int], new: int) -> bool:
    """Can ``new`` extend the nested family with proper masks ``chosen_masks``?

    Only antichains through the new member need checking: the rest were
    verified when their members were added.
    """
    incomparable = [
        m
        for m in chosen_masks
        if m & ~new != 0 and new & ~m != 0
    ]
    for sub in _antichain_masks(incomparable):
        union = new
        for m in sub:
            union |= m
        if building.fund_flat_for_indices(union) is not None:
            return False
    return True


def antichain_nested_sets(building: BuildingSet) -> list[NestedSet]:
    """``enumerate_nested_sets`` by the antichain search, in the same
    depth-first order over the proper members in (dim, bits) order."""
    proper = [f for f in building.fund if f != building.V]
    masks = [building.fund_index_sets[f] for f in proper]
    out: list[NestedSet] = []

    def extend(start: int, flats: list[Flat], chosen: list[int]):
        out.append(NestedSet(tuple(flats) + (building.V,)))
        for k in range(start, len(proper)):
            if _compatible(building, chosen, masks[k]):
                flats.append(proper[k])
                chosen.append(masks[k])
                extend(k + 1, flats, chosen)
                flats.pop()
                chosen.pop()

    extend(0, [], [])
    return out


def antichain_combinatorial_nested_sets(
    cbs: CombinatorialBuildingSet,
) -> list[frozenset[frozenset[int]]]:
    """``CombinatorialBuildingSet.nested_sets`` by the antichain search:
    every maximal member; any two members comparable or disjoint; no union
    of an antichain of size >= 2 a member."""
    required = frozenset(cbs.maximal_members())
    optional = sorted(
        (m for m in cbs.members if m not in required),
        key=lambda m: (len(m), sorted(m)),
    )
    out: list[frozenset[frozenset[int]]] = []

    def ok_with(chosen: list[frozenset[int]], new: frozenset[int]) -> bool:
        incomparable = []
        for m in chosen:
            if m <= new or new <= m:
                continue
            if m & new:
                return False
            incomparable.append(m)
        for size in range(1, len(incomparable) + 1):
            for combo in combinations(incomparable, size):
                if any(a & b for a, b in combinations(combo, 2)):
                    continue
                union = frozenset().union(new, *combo)
                if union in cbs.members:
                    return False
        return True

    base = sorted(required, key=lambda m: (len(m), sorted(m)))

    def extend(start: int, chosen: list[frozenset[int]]):
        out.append(frozenset(chosen) | required)
        for k in range(start, len(optional)):
            if ok_with(chosen + base, optional[k]):
                chosen.append(optional[k])
                extend(k + 1, chosen)
                chosen.pop()

    extend(0, [])
    return sorted(out, key=lambda s: (len(s), sorted(sorted(m) for m in s)))


def reference_embed(L, x) -> tuple[float, ...]:
    n = len(L)
    return tuple(sum(L[i][j] * float(x[i]) for i in range(n)) for j in range(n))


def reference_off_text(model, precision: int = 12) -> str:
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
    points = [reference_embed(L, [c / scale for c in v]) for v in model.vrep.vertices]
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
        normal = reference_embed(L, half.normal)
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
