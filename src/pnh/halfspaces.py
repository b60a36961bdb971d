"""Defining half-spaces of a permutonestohedron.

For a fundamental flat A, ``pi`` is the half-sum of the positive roots
lying in A and ``delta_perp = delta - pi`` is the orthogonal projection of
delta away from A (``flats.flat_data``, made once per building set as
``BuildingSet.fund_data``).  The polytope is cut out, inside the chamber
fan, by

* (x, delta)        <= a                      (one per chamber),
* (x, delta_perp_A) <= a - eps_{dim A}        for fundamental members A,
* (x, delta_perp_B) <= a - sum eps_{dim A_i}  for fundamental non-members B,

the last with A_1..A_k the maximal members inside B (pairwise orthogonal),
and delta_perp_B = delta - pi_{A_1} - ... - pi_{A_k}; all images under the
reflection group.  An inequality with flat J has one image per left coset
of the standard parabolic W_J, and ``all_halfspaces`` enumerates each orbit
by those cosets, one Coxeter step from an earlier coset's primitive
integer normal.  A ``HalfSpace`` stores that integer form, (x, prim) <= bound,
and one exact ratio per orbit that gives back the ``Fraction`` normal and
offset of the statement above; ``fundamental_halfspaces`` is the one place
that turns a ``Fraction`` normal into it.  The positive list
eps_1 < ... < eps_n = a must grow fast enough relative to the ratio table
below for the construction to close up; ``suitable_list`` builds such a
list and ``verify_epsilon_lemma`` checks the required inequalities
exhaustively.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .errors import LemmaViolated, NotBuilding, VerificationFailed
from .flats import (
    BuildingSet,
    Flat,
    fundamental_flats,
    iter_bits,
    simple_index_set,
)
from .linalg import Vec, primitive_vector, vsub
from .weyl import Subgroup, WeylGroup


class RatioTable:
    """Max/min coefficient ratios between nested fundamental members.

    For fundamental members B strictly inside A, the ratio of (A, B) is
    max simple-root coefficient of pi_A over min (support) coefficient of
    pi_B; only its maximum over each pair of dimensions is kept.  Missing
    dimension pairs default to 1.
    """

    def __init__(self, per_dim: dict):
        self.per_dim = per_dim

    def ratio(self, dim_a: int, dim_b: int) -> Fraction:
        return self.per_dim.get((dim_a, dim_b), Fraction(1))


def ratio_table(building: BuildingSet) -> RatioTable:
    data = building.fund_data
    stats: dict[Flat, tuple[Fraction, Fraction]] = {}
    for f in building.fund:
        support = [c for c in data[f].pi if c != 0]
        stats[f] = (max(data[f].pi), min(support))
    per_dim: dict[tuple[int, int], Fraction] = {}
    for a in building.fund:
        for b in building.fund:
            if b.dim >= a.dim or not a.contains(b) or a == b:
                continue
            r = stats[a][0] / stats[b][1]
            key = (a.dim, b.dim)
            if key not in per_dim or per_dim[key] < r:
                per_dim[key] = r
    return RatioTable(per_dim)


class SuitableList(namedtuple("SuitableList", "a eps")):
    """A strictly increasing positive list eps with eps_n = a."""

    __slots__ = ()

    def for_dim(self, d: int) -> Fraction:
        return self.eps[d - 1]


def check_increasing(table: RatioTable, eps, a) -> list[str]:
    """Violations of the growth conditions eps_i > 2 R_(i,i-1) eps_(i-1)."""
    problems = []
    n = len(eps)
    if any(e <= 0 for e in eps):
        problems.append("entries must be positive")
    if eps[-1] != a:
        problems.append(f"last entry {eps[-1]} != a = {a}")
    for i in range(1, n):
        bound = 2 * table.ratio(i + 1, i) * eps[i - 1]
        if eps[i] <= bound:
            problems.append(
                f"eps_{i + 1} = {eps[i]} must exceed 2*R({i + 1},{i})*eps_{i} = {bound}"
            )
    return problems


def suitable_list(building: BuildingSet, a=Fraction(1)) -> SuitableList:
    """Deterministic suitable list: each entry just past its lower bound.

    Integer seeds t_1 = 1, t_i = (2 R_(i,i-1) + 1) t_(i-1) are rescaled so
    the last entry is exactly ``a``.
    """
    a = Fraction(a)
    if a <= 0:
        raise ValueError("scale a must be positive")
    table = ratio_table(building)
    n = building.rs.rank
    seeds = [Fraction(1)]
    for i in range(2, n + 1):
        seeds.append((2 * table.ratio(i, i - 1) + 1) * seeds[-1])
    eps = tuple(a * t / seeds[-1] for t in seeds)
    problems = check_increasing(table, eps, a)
    if problems:
        raise LemmaViolated("; ".join(problems))
    return SuitableList(a, eps)


class LemmaReport(namedtuple("LemmaReport", "checked violations")):
    """Outcome of the exhaustive separation-inequality check."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.violations


def _decompositions(building: BuildingSet, target_mask: int):
    """Non-redundant families of >= 2 proper fundamental members summing to
    the fundamental flat with simple-index set ``target_mask``."""
    candidates = sorted(
        (f, m)
        for f, m in building.fund_index_sets.items()
        if m & ~target_mask == 0 and m != target_mask
    )
    results = []

    def extend(start: int, chosen: list, private: list, covered: int):
        # each member keeps its ``private`` indices to itself; private masks only
        # shrink, so a member adding none, or emptying another's, is redundant for good
        if covered == target_mask and len(chosen) >= 2:
            results.append(tuple(chosen))
        for k in range(start, len(candidates)):
            f, m = candidates[k]
            kept = [p & ~m for p in private] + [m & ~covered]
            if all(kept):
                extend(k + 1, chosen + [f], kept, covered | m)

    extend(0, [], [], 0)
    return results


def verify_epsilon_lemma(
    building: BuildingSet, suitable: SuitableList, raise_on_violation: bool = True
) -> LemmaReport:
    """For every fundamental member B and every non-redundant expression of
    B as a sum of >= 2 proper fundamental members B_i, require

        eps_{dim B} > sum_i R(dim B, dim B_i) * eps_{dim B_i}.
    """
    table = ratio_table(building)
    checked = 0
    violations = []
    for b in building.fund:
        mask = building.fund_index_sets[b]
        for parts in _decompositions(building, mask):
            checked += 1
            bound = sum(
                table.ratio(b.dim, p.dim) * suitable.for_dim(p.dim) for p in parts
            )
            if suitable.for_dim(b.dim) <= bound:
                violations.append((b, parts, suitable.for_dim(b.dim), bound))
    report = LemmaReport(checked, violations)
    if violations and raise_on_violation:
        b, parts, eps_b, bound = violations[0]
        raise LemmaViolated(
            f"eps_{b.dim} = {eps_b} <= {bound} for a sum of {len(parts)} members",
            witness=violations[0],
        )
    return report


class HalfSpace(namedtuple("HalfSpace", "prim bound ratio kind flat sigma_id")):
    """One defining inequality (x, prim) <= bound.

    ``prim`` is the primitive integer normal and ``bound`` the offset
    rescaled to it; ``ratio`` > 0 is the exact ratio of the inequality as
    the construction states it, (x, normal) <= offset with normal =
    ratio * prim and offset = ratio * bound.  The images of one fundamental
    inequality share its ``bound`` and ``ratio`` objects.  ``kind`` is
    "chamber" for images of the delta inequality, "member" for images of a
    fundamental-member inequality, "nonmember" for images of a fundamental
    non-member inequality.  ``flat`` is the fundamental flat of origin and
    ``sigma_id`` a group element mapping the fundamental inequality to this
    one (the least such id).
    """

    __slots__ = ()

    @property
    def normal(self) -> Vec:
        return tuple(self.ratio * p for p in self.prim)

    @property
    def offset(self) -> Fraction:
        return self.ratio * self.bound

    def key(self):
        """(primitive integer normal, offset rescaled to match), the exact key."""
        return self.prim, self.bound


def _fundamental(normal: Vec, offset, kind: str, flat: Flat) -> HalfSpace:
    """(x, normal) <= offset in the stored form, at the identity."""
    prim = primitive_vector(normal)
    ratio = next(Fraction(x) / p for p, x in zip(prim, normal) if p)
    return HalfSpace(prim, offset / ratio, ratio, kind, flat, 0)


def fundamental_halfspaces(
    building: BuildingSet, suitable: SuitableList
) -> list[HalfSpace]:
    """The defining inequalities attached to the fundamental chamber."""
    rs = building.rs
    data = building.fund_data
    out = [_fundamental(rs.delta, suitable.a, "chamber", building.V)]
    fund_members = set(building.fund)
    for f in building.fund:
        if f == building.V:
            continue
        offset = suitable.a - suitable.for_dim(f.dim)
        out.append(_fundamental(data[f].delta_perp, offset, "member", f))
    for b in fundamental_flats(rs):
        if b in fund_members:
            continue
        mask = simple_index_set(rs, b)
        parts = building.fund_decomposition(mask)
        for p, q in combinations(parts, 2):
            if not orthogonal_flats(rs, p, q):
                raise NotBuilding("decomposition members are not pairwise orthogonal")
        normal = rs.delta
        offset = suitable.a
        for p in parts:
            normal = vsub(normal, data[p].pi)
            offset -= suitable.for_dim(p.dim)
        coeffs = rs.omega_coefficients(normal)
        for s in range(rs.rank):
            inside = mask >> s & 1
            if inside and coeffs[s] != 0:
                raise VerificationFailed("nonmember normal has weight on its flat")
            if not inside and coeffs[s] <= 0:
                raise VerificationFailed(
                    "nonmember normal has nonpositive weight off its flat"
                )
        if offset <= 0:
            raise VerificationFailed(
                f"nonpositive offset {offset} for nonmember {b.describe(rs)}"
            )
        out.append(_fundamental(normal, offset, "nonmember", b))
    return out


def orthogonal_flats(rs, a: Flat, b: Flat) -> bool:
    """Every root of ``a`` is orthogonal to every root of ``b``, read off
    the roots' non-orthogonality bitmasks (``rs.non_orthogonal``)."""
    return all(rs.non_orthogonal[i] & b.bits == 0 for i in a.indices())


def all_halfspaces(
    building: BuildingSet,
    suitable: SuitableList,
    weyl: WeylGroup,
    label_subgroup,
) -> list[HalfSpace]:
    """W-orbit of the fundamental inequalities, one image per coset.

    The stabiliser of a fundamental inequality is the standard parabolic
    W_J of its flat (J is empty for the chamber inequality), so its images
    are indexed by the left cosets of W_J; each is named by the coset's
    least id and made by ``WeylGroup.orbit``, one Coxeter step per coset.
    W acts unimodularly, so the images of the primitive integer normal are
    primitive with no gcd; each shares its base's ``bound`` and ``ratio``.
    ``label_subgroup`` maps a tuple of flats to their label subgroup
    (``FaceContext.label_subgroup``); it is given the flat's decomposition,
    a member's being the member itself.

    Two checks pin the stabiliser down, each raising VerificationFailed:
    every simple reflection s_j, j in J, fixes the primitive normal (its
    delta_j is 0), so the stabiliser contains W_J; and the image keys of
    all inequalities are pairwise distinct, so it contains nothing more
    and no two orbits meet.
    """
    rs = building.rs
    out: list[HalfSpace] = []
    for base in fundamental_halfspaces(building, suitable):
        if base.bound <= 0:
            raise VerificationFailed(f"nonpositive offset in {base.kind} inequality")
        sub, sigmas = None, range(weyl.order)
        if base.kind != "chamber":
            mask = simple_index_set(rs, base.flat)
            sub = label_subgroup(building.fund_decomposition(mask))
            deltas = weyl.deltas(base.prim)
            for j in iter_bits(sub.mask):
                if deltas[j]:
                    raise VerificationFailed(
                        f"s_{j} moves the {base.kind} normal of "
                        f"{base.flat.describe(rs)}"
                    )
            sigmas = [ids[0] for ids in sub.cosets]
        out += [
            HalfSpace(image, base.bound, base.ratio, base.kind, base.flat, sigma)
            for image, sigma in zip(weyl.orbit([base.prim], sub), sigmas)
        ]
    out.sort(key=HalfSpace.key)
    for prev, hs in zip(out, out[1:]):
        if prev.key() == hs.key():
            raise VerificationFailed(
                f"{prev.kind} image of {prev.flat.describe(rs)} (sigma "
                f"{prev.sigma_id}) and {hs.kind} image of "
                f"{hs.flat.describe(rs)} (sigma {hs.sigma_id}) coincide"
            )
    return out


class HalfSpaceIndex(namedtuple("HalfSpaceIndex", "halfspaces orbits")):
    """Positions in an H-rep, by orbit coordinates.

    A fundamental inequality is named by its flat's simple-index mask (the
    full mask for the chamber inequality) and its images by the left cosets
    of its stabiliser W_J: ``orbits[mask]`` is W_J and the position in
    ``halfspaces`` of each coset's image.
    """

    __slots__ = ()

    def position(self, mask: int, sigma: int) -> int:
        """Position of sigma's image of the fundamental inequality ``mask``."""
        sub, positions = self.orbits[mask]
        return positions[sub.coset[sigma]]


def index_halfspaces(
    rs,
    halfspaces: list[HalfSpace],
    stabilisers: dict[Flat, Subgroup],
    trivial: Subgroup,
) -> HalfSpaceIndex:
    """Index an H-rep by (mask, coset of ``sigma_id``), with ``stabilisers``
    the W_J of each member or non-member flat and ``trivial`` the chamber
    inequality's.  Raises VerificationFailed unless each coset of each
    orbit holds exactly one inequality."""
    orbits: dict[int, tuple[Subgroup, list]] = {}
    for i, hs in enumerate(halfspaces):
        # the chamber inequality's flat is the whole space: the full mask
        sub = trivial if hs.kind == "chamber" else stabilisers[hs.flat]
        mask = simple_index_set(rs, hs.flat)
        slots = orbits.setdefault(mask, (sub, [None] * len(sub.reps)))[1]
        slots[sub.coset[hs.sigma_id]] = i
    # H inequalities filling H slots with none empty fill each slot once
    slots = [p for _, p in orbits.values()]
    if sum(map(len, slots)) != len(halfspaces) or any(None in p for p in slots):
        raise VerificationFailed("the inequalities do not fill each coset once")
    return HalfSpaceIndex(halfspaces, orbits)
