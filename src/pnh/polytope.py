"""Vertices of the permutonestohedron and geometric verification.

Each maximal nested set S determines one vertex of the chamber nestohedron
as the unique solution of (x, delta) = a together with
(x, delta_perp_A) = a - eps_{dim A} for the proper members A of S; the
full vertex set is the reflection-group orbit of these points.  The
verifier compares, inequality by inequality, the vertices observed tight
on it with the vertices predicted tight:

* an image tau of the chamber inequality is tight on sigma v_S iff
  sigma = tau;
* an image tau of the member inequality of A is tight on sigma v_S iff
  A is in S and tau^-1 sigma fixes A's parabolic;
* an image tau of a non-member inequality of B is tight on sigma v_S iff
  every decomposition member of B is in S and tau^-1 sigma lies in the
  product of their parabolics.

Tightness is decided by one exact integer kernel, ``Incidence``: vertices
and Gram-normals are scaled to integers, each inequality read in its stored
form (x, prim) <= bound, and a scan of a hyperplane keeps
its tight set, as a bitmask over vertex ids, and whether any vertex
violates it.  W acts by isometries, so tight(tau H, sigma v) iff
tight(sigma^-1 tau H, v): scans of every inequality over the base vertices
v_S (sigma = e) decide every pair, and the pattern above need only be
checked at sigma = e.  The facts this rests on are re-derived, never
assumed: every simple reflection preserves the Gram form; the vertices are
listed sigma by sigma, each equal to M(sigma) v_S in scaled integers
(``Incidence.strays``); and each coset of an inequality's stabiliser W_J
holds exactly one inequality, whose key is M(sigma_id) times the key at
the identity coset, which the generators of W_J fix
(``Incidence.orbit_facts``).  Pairs these facts do not cover are
evaluated one by one.  The predicted masks are built from cosets and
maximal nested sets alone; the kernel only takes dot products, so the
predicted pattern and the observed one never share code.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import combinations, repeat
from math import lcm
from operator import add, mul

from .errors import EmptyFacet, NotInChamber, SingularSystem, VerificationFailed
from .flats import BuildingSet, Flat, iter_bits, simple_index_set
from .halfspaces import HalfSpace, HalfSpaceIndex, SuitableList, index_halfspaces
from .linalg import Vec, int_mat_vec, mat_mul, solve_linear_system, vdot
from .nested import NestedSet, enumerate_maximal_nested_sets
from .weyl import Subgroup, WeylGroup, subgroup_product


class VRep(namedtuple("VRep", "vertices scale max_nested coincidences weyl")):
    """All vertices: the W-orbit of the chamber vertices, in integers.

    Vertex i is M(sigma) v_S with sigma = i // m and S = max_nested[i % m]
    (m = ``len(max_nested)``): listed sigma by sigma in id order, so the
    first m are the base vertices (sigma = e) and a vertex's label is its
    position.  Each point is a tuple of integers whose exact coordinates
    are those integers over ``scale``, the one common denominator; ``weyl``
    is the group whose matrices made them.
    """

    __slots__ = ()


def vertex(
    rs,
    nested: NestedSet,
    suitable: SuitableList,
    building: BuildingSet,
) -> Vec:
    """The chamber vertex attached to a maximal nested set.

    Raises NotInChamber when the solution violates a strict chamber
    inequality (which signals an unsuitable eps list, not a bug here).
    """
    if len(nested) != rs.rank:
        raise ValueError("vertex requires a maximal nested set")
    proper = tuple(f for f in nested if f != building.V)
    point, gx = _chamber_solve(building, suitable, proper)
    if any(c <= 0 for c in gx):
        raise NotInChamber(
            f"vertex for {tuple(f.dim for f in nested)} leaves the open chamber"
        )
    return point


def _chamber_solve(
    building: BuildingSet, suitable: SuitableList, members: tuple[Flat, ...]
) -> tuple[Vec, Vec]:
    """(x, g) for the x with (x, delta) = a and (x, delta_perp_A) =
    a - eps_{dim A} for each A in ``members``, each row read from
    ``fund_data``; g is a positive integer multiple of Gram x, so it has
    the signs of Gram x: ``int_gram`` times x cleared of its denominators.
    Raises SingularSystem unless the equations fix one x.

    Each row is the primitive integer row of its flat, its right-hand side
    divided by the row's ratio; all right-hand sides are cleared by one
    lcm, so the elimination sees integers only, and x is its solution over
    that lcm."""
    data = building.fund_data
    rows = [data[building.V]] + [data[f] for f in members]
    targets = [suitable.a] + [suitable.a - suitable.for_dim(f.dim) for f in members]
    rhs = [t / d.ratio for t, d in zip(targets, rows)]
    unit = lcm(*(b.denominator for b in rhs))
    solved = solve_linear_system(
        tuple(d.gram_delta_perp for d in rows),
        tuple(b.numerator * (unit // b.denominator) for b in rhs),
    )
    point = tuple(c / unit for c in solved)
    scale = lcm(*(c.denominator for c in point))
    cleared = [c.numerator * (scale // c.denominator) for c in point]
    return point, int_mat_vec(building.rs.int_gram, cleared)


def all_vertices(
    building: BuildingSet,
    suitable: SuitableList,
    weyl: WeylGroup,
    require_distinct: bool = True,
) -> VRep:
    """Orbit of the chamber vertices; one entry per (sigma, nested) pair.

    The chamber vertices are scaled once to integers by the lcm of their
    denominators, and W's integer matrices act on those; the images are the
    stored form (``VRep``).  Pairs mapping to the same point are recorded as
    coincidences; with ``require_distinct`` (the default, appropriate for
    suitable lists) any coincidence raises VerificationFailed.
    """
    rs = building.rs
    max_nested = tuple(enumerate_maximal_nested_sets(building))
    base_points = [vertex(rs, s, suitable, building) for s in max_nested]
    scale = lcm(*(c.denominator for p in base_points for c in p))
    base_ints = [
        tuple(c.numerator * (scale // c.denominator) for c in p) for p in base_points
    ]
    vertices = tuple(
        int_mat_vec(matrix, p) for matrix in weyl.elements for p in base_ints
    )
    coincidences = []
    if len(set(vertices)) != len(vertices):
        first: dict[tuple[int, ...], int] = {}
        for idx, q in enumerate(vertices):
            prev = first.setdefault(q, idx)
            if prev != idx:
                coincidences.append((prev, idx))
        if require_distinct:
            raise VerificationFailed(
                f"{len(coincidences)} coinciding vertex pairs; eps list unsuitable?"
            )
    return VRep(vertices, scale, max_nested, tuple(coincidences), weyl)


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
        # predicted, from nested sets alone: the identity coset's inequality
        # is tight on the v_S whose S holds its flat's parts (every S, for
        # the chamber inequality's whole space), every other on none
        parts = building.fund_decomposition(mask)
        expected = sum(
            1 << k
            for k, s in enumerate(vrep.max_nested)
            if s.flat_set.issuperset(parts)
        )
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
    its equations fix one point (``_chamber_solve``).
    """
    rs = building.rs
    n = rs.rank
    data = building.fund_data
    failures = []
    checked = 0

    proper = [f for f in building.fund if f != building.V]
    nested_ok = set(enumerate_maximal_nested_sets(building))

    for s in sorted(nested_ok):
        point = vertex(rs, s, suitable, building)
        for f in proper:
            checked += 1
            value = data[f].ratio * vdot(data[f].gram_delta_perp, point)
            bound = suitable.a - suitable.for_dim(f.dim)
            if f in s:
                if value != bound:
                    failures.append(f"expected tightness fails on {f.describe(rs)}")
            elif value >= bound:
                failures.append(
                    f"vertex of {tuple(g.dim for g in s)} not strictly inside "
                    f"member inequality of {f.describe(rs)}"
                )

    for combo in combinations(proper, n - 1):
        family = NestedSet(tuple(sorted(combo)) + (building.V,))
        if family in nested_ok:
            continue
        try:
            point, gx = _chamber_solve(building, suitable, combo)
        except SingularSystem:
            continue
        checked += 1
        if any(c <= 0 for c in gx):
            # left the open chamber: the crossed wall's line inequality must
            # exclude the point strictly
            i = next(i for i, c in enumerate(gx) if c <= 0)
            line = building.fund_flat_for_indices(1 << i)
            value = data[line].ratio * vdot(data[line].gram_delta_perp, point)
            if value <= suitable.a - suitable.for_dim(1):
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
        value = data[witness].ratio * vdot(data[witness].gram_delta_perp, point)
        if value <= suitable.a - suitable.for_dim(witness.dim):
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
    proper = [f for f in family if f != building.V]
    masks = [building.fund_index_sets[f] for f in proper]
    found = []
    for size in range(2, len(proper) + 1):
        for combo in combinations(range(len(proper)), size):
            union = 0
            for i in combo:
                union |= masks[i]
            nonredundant = all(
                masks[i] & ~_union_except(masks, combo, i) != 0 for i in combo
            )
            if not nonredundant:
                continue
            hit = building.fund_flat_for_indices(union)
            if hit is not None and all(union != masks[i] for i in combo):
                found.append(hit)
    return found


def _union_except(masks, combo, skip):
    u = 0
    for i in combo:
        if i != skip:
            u |= masks[i]
    return u


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
