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

``verify`` and the OFF export's facets decide incidence on the dominant
chamber (``pnh.chamber``); ``verify_hrep_vrep`` and ``facet_vertex_sets``
check a materialised V-rep against a materialised H-rep, every inequality
over every vertex, and assume no orbit fact.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, lcm
from operator import add, mul

from .errors import EmptyFacet, NotInChamber, VerificationFailed
from .flats import BuildingSet, Flat, iter_bits, simple_index_set
from .halfspaces import HalfSpace, SuitableList
from .linalg import Vec, int_mat_vec, solve_integer
# perfbench/spans.py wraps enumerate_maximal_nested_sets under this name
from .nested import NestedSet, enumerate_maximal_nested_sets  # noqa: F401
from .weyl import WeylGroup, standard_parabolic


class VRep(namedtuple("VRep", "vertices scale max_nested coincidences weyl")):
    """All vertices: the W-orbit of the chamber vertices, in integers.

    Vertex i is M(sigma) v_S with sigma = i // m and S = max_nested[i % m]
    (m = ``len(max_nested)``): listed sigma by sigma in id order, so the
    first m are the base vertices (sigma = e) and a vertex's label is its
    position.  Each point is a tuple of integers whose exact coordinates
    are those integers over ``scale``, the one common denominator; ``weyl``
    is the group whose orbit walk made them, None for the base vertices alone
    (``chamber_vertices``).  No ``__slots__``: the instance dictionary holds
    ``containing``.
    """

    @cached_property
    def containing(self) -> dict[Flat, int]:
        """Per flat, the bitmask of the base ids k whose max_nested[k] holds it."""
        out: dict[Flat, int] = {}
        for k, s in enumerate(self.max_nested):
            for f in s:
                out[f] = out.get(f, 0) | 1 << k
        return out

    def base_ids(self, flats) -> int:
        """Bitmask of the base ids k whose max_nested[k] holds every one of
        ``flats``: the AND of their ``containing`` masks."""
        out = (1 << len(self.max_nested)) - 1
        for f in flats:
            out &= self.containing.get(f, 0)
        return out


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
    (y,), det = solve_integer(
        [data[f].gram_delta_perp for f in rows],
        [[rhs[f].numerator * (unit // rhs[f].denominator) for f in rows]],
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


def chamber_vertices(building: BuildingSet, suitable: SuitableList, max_nested) -> VRep:
    """The base vertices v_S, one per maximal nested set in ``max_nested``, as
    a ``VRep`` with no group: integers over the lcm of their denominators,
    and the pairs of equal points as its coincidences."""
    max_nested = tuple(max_nested)
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


def all_vertices(base: VRep, weyl: WeylGroup) -> VRep:
    """Orbit of the chamber vertices ``base``; one entry per (sigma, nested) pair.

    W acts on the base vertices (``chamber_vertices``) one Coxeter step
    per image (``WeylGroup.orbit``): the images under sigma = tau s_g are
    tau's plus n multiply-adds each, or tau's own tuple where s_g fixes a
    base vertex.  The images are the stored form (``VRep``).  Two (sigma,
    nested) pairs mapping to one point raise VerificationFailed: a suitable
    list gives distinct vertices.
    """
    vertices = tuple(weyl.orbit(base.vertices))
    coincidences = _coincidences(vertices)
    if coincidences:
        raise VerificationFailed(
            f"{len(coincidences)} coinciding vertex pairs; eps list unsuitable?"
        )
    return base._replace(vertices=vertices, weyl=weyl)


class Incidence:
    """Exact vertex-on-hyperplane incidence in integer arithmetic.

    The vertices are read as ``VRep`` stores them, integers over one
    ``scale``, and the Gram matrix as the root system stores it, ``int_gram``
    over ``gram_scale``.  A hyperplane (x, prim) = bound, as ``HalfSpace`` stores
    it, becomes dot(row, point) == bound over one denominator, with the row
    the integer Gram matrix times the primitive normal (``row``); a larger
    dot product means the vertex violates the inequality.  A scan of a plane
    over every vertex keeps its tight set, a bitmask over vertex ids, and
    whether any vertex violates it, cached per exact half-space key.
    """

    def __init__(self, rs, vrep: VRep):
        self.rs = rs
        self.count = len(vrep.vertices)
        self.full = (1 << self.count) - 1
        # kept by coordinate, so scanning a plane is a few C-level passes
        self.columns = tuple(zip(*vrep.vertices))
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

    def scan(self, hs: HalfSpace) -> tuple[int, bool]:
        """(tight mask, whether some vertex violates) of one inequality."""
        key = hs.key()
        found = self._scans.get(key)
        if found is None:
            ints, bound, _ = self.row(hs)
            values = self.values(ints)
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

    def values(self, ints: tuple[int, ...]) -> list[int]:
        """dot(ints, point) for every scaled vertex, in vertex-id order."""
        values = [0] * self.count
        for a, column in zip(ints, self.columns):
            if a:
                values = list(map(add, values, map(mul, repeat(a), column)))
        return values


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
    raise_on_failure: bool = True,
    incidence: Incidence | None = None,
) -> CheckReport:
    """Membership and exact equality pattern for vertices vs inequalities.

    Each inequality is scanned over every vertex and its tight mask
    compared with the predicted one: sigma v_S is predicted tight iff sigma
    is in the inequality's coset of W_J, the standard parabolic of its
    flat's simple indices in ``vrep.weyl`` (the chamber inequality's coset
    is its sigma alone), and S holds its flat's decomposition members
    (``VRep.base_ids``).  No vertex may violate it.  Only a failing
    inequality is evaluated pair by pair, to report the failing pairs in
    (vertex, inequality) order; a violation outranks a mismatch on the same
    pair.
    """
    rs = building.rs
    if incidence is None:
        incidence = Incidence(rs, vrep)
    max_nested = vrep.max_nested
    m = len(max_nested)
    failures = []
    for hi, hs in enumerate(halfspaces):
        mask = simple_index_set(rs, hs.flat)
        base = vrep.base_ids(building.fund_decomposition(mask))
        if hs.kind == "chamber":
            sigmas = (hs.sigma_id,)
        else:
            sub = standard_parabolic(vrep.weyl, mask)
            sigmas = sub.cosets[sub.coset[hs.sigma_id]]
        expected = sum(base << sigma * m for sigma in sigmas)
        if incidence.scan(hs) == (expected, False):
            continue
        ints, bound, denominator = incidence.row(hs)
        for vi, value in enumerate(incidence.values(ints)):
            sigma, nested = vi // m, max_nested[vi % m]
            expect_tight = expected >> vi & 1 == 1
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


def nestohedron_check(
    building: BuildingSet, suitable: SuitableList, base: VRep
) -> CheckReport:
    """Certify the base points as the vertices of the chamber nestohedron
    Q = {(x, delta) = a, (x, delta_perp_A) <= a - eps_A, A proper member},
    one v_S per maximal nested set S, from three local facts.

    (a) v_S lies in the open chamber; (c) it is tight on the proper members
    of S and strictly inside every other one; (r) every ridge S - {A}, A a
    proper member of S, lies in exactly two listed maximal nested sets.
    The rows of S and (x, delta) = a fix v_S (``chamber_vertices`` solved
    them), so by (c) v_S is a simple vertex of Q and dropping A's row
    leaves the edge of Q from v_S along A.  The ridge partner S' of (S, A)
    puts v_S' on that edge, a vertex of Q other than v_S, as (c) puts it
    strictly inside A.  So every edge at a listed vertex is bounded and
    ends at a listed vertex; a polyhedron's graph is connected (Balinski,
    1961), and a pointed one whose vertices have only bounded edges is
    bounded, so the listed points are all of Q's vertices and Q lies in
    the open chamber.  Every nested-set complex is a sphere (Postnikov,
    arXiv:math/0507163), so (r) holds for every building set and guards
    the listing.  Points are read as stored, integers over ``base.scale``;
    ``checked`` counts V0 (k - 1) comparisons with a member's bound, each
    one integer cross-multiplication, and the distinct ridges.
    """
    rs = building.rs
    data = building.fund_data
    rhs = _chamber_rhs(building, suitable)
    proper = [f for f in building.fund if f != building.V]
    failures = []

    def excess(f: Flat, y) -> int:
        # the sign of (y / scale, delta_perp_f) minus its bound, in integers
        r, dot = rhs[f], sum(map(mul, data[f].gram_delta_perp, y))
        return dot * r.denominator - r.numerator * base.scale

    for s, y in sorted(zip(base.max_nested, base.vertices)):
        dims = tuple(g.dim for g in s)
        if any(c <= 0 for c in int_mat_vec(rs.int_gram, y)):
            failures.append(f"vertex of {dims} leaves the open chamber")
        for f in proper:
            if f in s:
                if excess(f, y) != 0:
                    failures.append(f"expected tightness fails on {f.describe(rs)}")
            elif excess(f, y) >= 0:
                failures.append(
                    f"vertex of {dims} not strictly inside member inequality "
                    f"of {f.describe(rs)}"
                )

    ridges = Counter(
        tuple(g for g in s if g != f)
        for s in base.max_nested
        for f in s
        if f != building.V
    )
    failures += [
        f"ridge of dims {tuple(g.dim for g in ridge)} lies in {seen} maximal "
        "nested sets, not 2"
        for ridge, seen in sorted(ridges.items())
        if seen != 2
    ]
    return CheckReport(
        "nestohedron vertex characterisation",
        not failures,
        len(base.vertices) * len(proper) + len(ridges),
        tuple(failures),
    )


def facet_vertex_sets(
    rs, halfspaces: list[HalfSpace], vrep: VRep, incidence: Incidence | None = None
) -> list[frozenset[int]]:
    """Vertex ids tight on each inequality, each scanned over every vertex:
    the oracle for ``chamber.facet_sets``.  Every one must be nonempty."""
    if incidence is None:
        incidence = Incidence(rs, vrep)
    return [frozenset(iter_bits(m)) for m in incidence.facet_masks(halfspaces)]


def euler_check(f_vector: tuple[int, ...]) -> bool:
    """Euler relation for the boundary: alternating sum of proper face
    counts equals 1 - (-1)^n."""
    n = len(f_vector) - 1
    total = sum((-1) ** d * f_vector[d] for d in range(n))
    return total == 1 - (-1) ** n
