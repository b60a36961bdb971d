"""Vertices of the permutonestohedron and the materialised incidence check.

Each maximal nested set S determines one vertex v_S of the chamber
nestohedron, the unique solution of (x, delta) = a together with
(x, delta_perp_A) = a - eps_{dim A} for the proper members A of S, solved
in integers over one denominator (``_chamber_solve``).  The base vertices
are ``chamber_vertices``; the V-rep is their reflection-group orbit.

Tightness is decided by one exact integer kernel, ``Incidence``: vertices
and Gram-normals are scaled to integers, each inequality read in its stored
form (x, prim) <= bound, and a scan of a hyperplane keeps its tight set, as
a bitmask over vertex ids, and whether any vertex violates it.

``verify`` decides incidence on the dominant chamber (``pnh.chamber``);
``verify_hrep_vrep`` checks a materialised V-rep against a materialised
H-rep.  An image tau of an inequality is predicted tight on sigma v_S iff
every decomposition member of its flat is in S and tau^-1 sigma lies in
their parabolic (sigma = tau for the chamber inequality).  W acts by
isometries, so base scans decide every pair once the facts this rests on
are re-derived: the simple reflections preserve the Gram form, each vertex
is M(sigma) v_S (``Incidence.strays``), and each coset of an inequality's
stabiliser holds one inequality, M(sigma_id) times the one at the identity
coset, which W_J's generators fix (``Incidence.orbit_facts``).  Pairs
these facts do not cover are evaluated one by one.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations, repeat
from math import gcd, lcm
from operator import add, mul, or_

from .errors import EmptyFacet, NotInChamber, SingularSystem, VerificationFailed
from .flats import BuildingSet, Flat, iter_bits, simple_index_set
from .halfspaces import HalfSpace, HalfSpaceIndex, SuitableList, index_halfspaces
from .linalg import Vec, int_mat_vec, mat_mul, solve_integer
from .nested import NestedSet, enumerate_maximal_nested_sets
from .weyl import Subgroup, WeylGroup, subgroup_product


class VRep(namedtuple("VRep", "vertices scale max_nested coincidences weyl")):
    """All vertices: the W-orbit of the chamber vertices, in integers.

    Vertex i is M(sigma) v_S with sigma = i // m and S = max_nested[i % m]
    (m = ``len(max_nested)``): listed sigma by sigma in id order, so the
    first m are the base vertices (sigma = e) and a vertex's label is its
    position.  Each point is a tuple of integers whose exact coordinates
    are those integers over ``scale``, the one common denominator; ``weyl``
    is the group whose matrices made them, None for the base vertices alone
    (``chamber_vertices``).
    """

    __slots__ = ()


def vertex(rs, nested: NestedSet, suitable: SuitableList, building: BuildingSet) -> Vec:
    """The chamber vertex attached to a maximal nested set.

    Raises NotInChamber when the solution violates a strict chamber
    inequality (which signals an unsuitable eps list, not a bug here).
    """
    y, d = _base_point(building, _chamber_rhs(building, suitable), nested)
    return tuple([Fraction(c, d) for c in y])


def _chamber_rhs(building: BuildingSet, suitable: SuitableList) -> dict:
    """Per fundamental member A, the right-hand side of its chamber row:
    (a - eps_{dim A}) / ratio, and a / ratio for the whole space."""
    a, data = suitable.a, building.fund_data
    return {
        f: (a if f == building.V else a - suitable.for_dim(f.dim)) / data[f].ratio
        for f in building.fund
    }


def _chamber_solve(
    building: BuildingSet, rhs: dict, members: tuple[Flat, ...]
) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """(y, d, g) for the x = y / d, d > 0 and in lowest terms, with
    (x, delta) = a and (x, delta_perp_A) = a - eps_{dim A} for each A in
    ``members``, each row read from ``fund_data`` and each right-hand side
    from ``rhs`` (``_chamber_rhs``); g = ``int_gram`` y has the signs of
    Gram x.  Raises SingularSystem unless the equations fix one x.

    The right-hand sides are cleared by one lcm, so the elimination and
    everything after it see integers only."""
    data = building.fund_data
    rows = (building.V,) + members
    unit = lcm(*(rhs[f].denominator for f in rows))
    y, det = solve_integer(
        [data[f].gram_delta_perp for f in rows],
        [rhs[f].numerator * (unit // rhs[f].denominator) for f in rows],
    )
    d = det * unit
    g = gcd(d, *y) * (1 if d > 0 else -1)
    y = tuple([c // g for c in y])
    return y, d // g, int_mat_vec(building.rs.int_gram, y)


def _base_point(building: BuildingSet, rhs: dict, nested: NestedSet):
    """(y, d) of ``vertex``: the point y / d, d > 0 and in lowest terms."""
    if len(nested) != building.rs.rank:
        raise ValueError("vertex requires a maximal nested set")
    proper = tuple(f for f in nested if f != building.V)
    y, d, gx = _chamber_solve(building, rhs, proper)
    if any(c <= 0 for c in gx):
        raise NotInChamber(
            f"vertex for {tuple(f.dim for f in nested)} leaves the open chamber"
        )
    return y, d


def chamber_vertices(building: BuildingSet, suitable: SuitableList) -> VRep:
    """The base vertices v_S, one per maximal nested set, as a ``VRep`` with
    no group: integers over the lcm of their denominators, and the pairs of
    equal points as its coincidences."""
    max_nested = tuple(enumerate_maximal_nested_sets(building))
    rhs = _chamber_rhs(building, suitable)
    points = [_base_point(building, rhs, s) for s in max_nested]
    scale = lcm(*(d for _, d in points))
    base = tuple(tuple([c * (scale // d) for c in y]) for y, d in points)
    return VRep(base, scale, max_nested, _coincidences(base), None)


def _coincidences(points) -> tuple[tuple[int, int], ...]:
    """(first index, index) of each point equal to an earlier one."""
    if len(set(points)) == len(points):
        return ()
    first: dict[tuple[int, ...], int] = {}
    pairs = ((first.setdefault(q, i), i) for i, q in enumerate(points))
    return tuple((j, i) for j, i in pairs if j != i)


def all_vertices(
    building: BuildingSet,
    suitable: SuitableList,
    weyl: WeylGroup,
    require_distinct: bool = True,
) -> VRep:
    """Orbit of the chamber vertices; one entry per (sigma, nested) pair.

    W's integer matrices act on the base vertices of ``chamber_vertices``;
    the images are the stored form (``VRep``).  Pairs mapping to the same
    point are recorded as coincidences; with ``require_distinct`` (the
    default, appropriate for suitable lists) any coincidence raises
    VerificationFailed.
    """
    base = chamber_vertices(building, suitable)
    vertices = tuple(
        int_mat_vec(matrix, p) for matrix in weyl.elements for p in base.vertices
    )
    coincidences = _coincidences(vertices)
    if coincidences and require_distinct:
        raise VerificationFailed(
            f"{len(coincidences)} coinciding vertex pairs; eps list unsuitable?"
        )
    return base._replace(vertices=vertices, coincidences=coincidences, weyl=weyl)


class Incidence:
    """Exact vertex-on-hyperplane incidence in integer arithmetic.

    The vertices are read as ``VRep`` stores them, integers over one
    ``scale``, and the Gram matrix as the root system stores it, ``int_gram``
    over ``gram_scale``.  A hyperplane (x, prim) = bound, as ``HalfSpace`` stores
    it, becomes dot(row, point) == bound over one denominator, with the row
    the integer Gram matrix times the primitive normal (``row``); a larger
    dot product means the vertex violates the inequality.  A scan of a plane
    over every vertex, or over the base vertices only, keeps its tight set,
    a bitmask over vertex ids, and whether any vertex violates it, cached
    per exact half-space key.
    """

    def __init__(self, rs, vrep: VRep):
        self.rs = rs
        self.vrep = vrep
        self.count = len(vrep.vertices)
        self.base = len(vrep.max_nested)
        self.full = (1 << self.count) - 1
        # kept by coordinate, so scanning a plane is a few C-level passes
        self.columns = tuple(zip(*vrep.vertices))
        self.base_columns = tuple(c[: self.base] for c in self.columns)
        self.gram = rs.int_gram
        self.unit = rs.gram_scale * vrep.scale
        self._scans: dict[tuple, tuple[int, bool]] = {}

    def row(self, hs: HalfSpace) -> tuple[tuple[int, ...], int, int]:
        """(integer row, bound, denominator) of (x, prim) <= bound.

        dot(integer row, point) / denominator is the exact value of
        (x, prim) at the point, and bound / denominator is ``hs.bound``.
        """
        d = hs.bound.denominator
        ints = tuple(d * sum(map(mul, g, hs.prim)) for g in self.gram)
        return ints, hs.bound.numerator * self.unit, d * self.unit

    def facet_masks(self, halfspaces: list[HalfSpace]) -> list[int]:
        """The tight mask of each inequality; every one must be nonempty."""
        out = []
        for hs in halfspaces:
            mask = self.scan(hs)[0]
            if not mask:
                raise EmptyFacet(
                    f"{hs.kind} inequality of {hs.flat.describe(self.rs)} "
                    "touches no vertex"
                )
            out.append(mask)
        return out

    def scan(self, hs: HalfSpace, base: bool = False) -> tuple[int, bool]:
        """(tight mask, whether some vertex violates) of one inequality,
        over every vertex or, with ``base``, over the base vertices."""
        key = hs.key(), base
        found = self._scans.get(key)
        if found is None:
            ints, bound, _ = self.row(hs)
            values = self.values(ints, base)
            mask = 0
            i = -1
            try:
                while True:
                    i = values.index(bound, i + 1)
                    mask |= 1 << i
            except ValueError:
                pass
            found = self._scans[key] = (mask, max(values, default=bound) > bound)
        return found

    def values(self, ints: tuple[int, ...], base: bool = False) -> list[int]:
        """dot(ints, point) for every scaled vertex, or every base vertex,
        in vertex-id order."""
        values = [0] * (self.base if base else self.count)
        for a, column in zip(ints, self.base_columns if base else self.columns):
            if a:
                values = list(map(add, values, map(mul, repeat(a), column)))
        return values

    @cached_property
    def strays(self) -> tuple[int, ...]:
        """Ids of the vertices that the base scans do not decide: all of
        them unless every simple reflection preserves the Gram form and
        there is one vertex per (sigma, S); else those whose point i is not
        M(sigma) times base point i % m, with sigma = i // m."""
        vrep, gram, m = self.vrep, self.gram, self.base
        elements = vrep.weyl.elements
        if self.count != len(elements) * m or any(
            mat_mul(tuple(zip(*s)), mat_mul(gram, s)) != gram
            for s in map(elements.__getitem__, vrep.weyl.generator_ids)
        ):
            return tuple(range(self.count))
        points = vrep.vertices
        return tuple(
            i
            for i, point in enumerate(points)
            if int_mat_vec(elements[i // m], points[i % m]) != point
        )

    def orbit_facts(
        self, halfspaces: list[HalfSpace], subgroups: dict[Flat, Subgroup]
    ) -> tuple[HalfSpaceIndex | None, set[int]]:
        """The inequalities' orbit index and the positions that the base
        scans do not decide.

        ``subgroups`` maps each member or non-member flat to its W_J.  An
        orbit is decided when each coset of W_J holds exactly one
        inequality (``index_halfspaces``; else there is no index and no
        position is), every generator of W_J fixes the primitive normal of
        the inequality at the identity coset, and every key in the orbit is
        M(sigma_id) times that one.
        """
        weyl = self.vrep.weyl
        try:
            index = index_halfspaces(
                self.rs, halfspaces, subgroups, subgroup_product(weyl, [])
            )
        except VerificationFailed:
            return None, set(range(len(halfspaces)))
        suspects = set()
        for sub, positions in index.orbits.values():
            prim, bound = halfspaces[positions[0]].key()
            if any(
                int_mat_vec(weyl.elements[weyl.generator_ids[j]], prim) != prim
                for j in iter_bits(sub.mask)
            ) or any(
                hs.key() != (int_mat_vec(weyl.elements[hs.sigma_id], prim), bound)
                for hs in map(halfspaces.__getitem__, positions)
            ):
                suspects.update(positions)
        return index, suspects


class CheckReport(
    namedtuple("CheckReport", "name passed checked details", defaults=((),))
):
    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        head = f"{status} {self.name}: {self.checked} checks"
        if self.details:
            head += "\n  " + "\n  ".join(self.details[:10])
        return head


def predicted_base(building: BuildingSet, max_nested, mask: int) -> int:
    """The base mask predicted tight on the fundamental inequality of ``mask``,
    from nested sets alone: the v_S whose S holds its decomposition members."""
    parts = building.fund_decomposition(mask)
    return sum(1 << k for k, s in enumerate(max_nested) if s.flat_set.issuperset(parts))


def verify_hrep_vrep(
    building: BuildingSet,
    halfspaces: list[HalfSpace],
    vrep: VRep,
    subgroups: dict[Flat, Subgroup],
    raise_on_failure: bool = True,
    incidence: Incidence | None = None,
) -> CheckReport:
    """Membership and exact equality pattern for vertices vs inequalities.

    Each inequality's tight mask and violation flag over the base vertices
    are compared with its predicted base mask; with the orbit facts
    re-derived (module docstring) that decides all V·H pairs.  Only the
    pairs left undecided -- every inequality of an orbit that fails a fact
    or that comparison, against every vertex, and every stray vertex --
    are evaluated one by one, to report the failing pairs; a violation
    outranks a mismatch on the same pair.
    """
    rs = building.rs
    if incidence is None:
        incidence = Incidence(rs, vrep)
    index, suspects = incidence.orbit_facts(halfspaces, subgroups)
    m = len(vrep.max_nested)
    for mask, (_, positions) in index.orbits.items() if index else ():
        # the identity coset's inequality is tight on the predicted base
        # vertices, every other on none
        expected = predicted_base(building, vrep.max_nested, mask)
        for p in positions:
            if incidence.scan(halfspaces[p], base=True) != (expected, False):
                suspects.update(positions)
                break
            expected = 0
    strays = incidence.strays
    failures = []
    trivial = subgroup_product(vrep.weyl, []) if suspects or strays else None
    for hi, hs in enumerate(halfspaces):
        if hi not in suspects and not strays:
            continue
        sub = trivial if hs.kind == "chamber" else subgroups[hs.flat]
        parts = building.fund_decomposition(simple_index_set(rs, hs.flat))
        coset = sub.coset[hs.sigma_id]
        ints, bound, denominator = incidence.row(hs)
        if hi in suspects:
            pairs = enumerate(incidence.values(ints))
        else:
            pairs = (
                (vi, sum(a * col[vi] for a, col in zip(ints, incidence.columns)))
                for vi in strays
            )
        for vi, value in pairs:
            sigma, nested = vi // m, vrep.max_nested[vi % m]
            expect_tight = (
                sub.coset[sigma] == coset and nested.flat_set.issuperset(parts)
            )
            if value > bound:
                line = (
                    f"vertex (sigma={sigma}) violates {hs.kind} inequality "
                    f"of {hs.flat.describe(rs)} (sigma={hs.sigma_id}): "
                    f"{hs.ratio * Fraction(value, denominator)} > {hs.offset}"
                )
            elif (value == bound) != expect_tight:
                line = (
                    f"equality mismatch: vertex (sigma={sigma}, dims "
                    f"{tuple(f.dim for f in nested)}) vs {hs.kind} of "
                    f"{hs.flat.describe(rs)} (sigma={hs.sigma_id}): tight="
                    f"{value == bound}, predicted={expect_tight}"
                )
            else:
                continue
            failures.append((vi, hi, line))
    failures.sort()

    report = CheckReport(
        "vertex/halfspace incidence",
        not failures,
        len(vrep.vertices) * len(halfspaces),
        tuple(line for _, _, line in failures),
    )
    if failures and raise_on_failure:
        raise VerificationFailed(report.line(), report=report)
    return report


def nestohedron_check(building: BuildingSet, suitable: SuitableList) -> CheckReport:
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


def facet_vertex_sets(
    rs,
    halfspaces: list[HalfSpace],
    vrep: VRep,
    incidence: Incidence | None = None,
) -> list[frozenset[int]]:
    """Vertex ids tight on each inequality; every one must be nonempty."""
    if incidence is None:
        incidence = Incidence(rs, vrep)
    return [frozenset(iter_bits(m)) for m in incidence.facet_masks(halfspaces)]


def euler_check(f_vector: tuple[int, ...]) -> bool:
    """Euler relation for the boundary: alternating sum of proper face
    counts equals 1 - (-1)^n."""
    n = len(f_vector) - 1
    total = sum((-1) ** d * f_vector[d] for d in range(n))
    return total == 1 - (-1) ** n
