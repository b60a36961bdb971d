"""Nested sets of a building set, geometric and combinatorial.

All nested sets used geometrically are subsets of the *fundamental* part
of the building set (members spanned by simple roots) and contain the full
space V.  A set is nested when no antichain of two or more members sums to
a member of the building set.  Because a fundamental flat is determined by
its set of simple-root indices, all checks here run on index bitmasks.

The combinatorial side (ground set + family of index subsets) carries the
same notion for quotients: those faces factor through set-theoretic data
only.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import combinations

from .errors import MissingV, NotBuilding, TooManyNestedSets
from .flats import BuildingSet, Flat, iter_bits

DEFAULT_NESTED_CAP = 200_000


class NestedSet(namedtuple("NestedSet", "flats")):
    """A nested collection of fundamental flats, always containing V.

    No ``__slots__``: the instance dictionary holds ``flat_set``.  Iteration,
    length and membership are over ``flats``."""

    def __iter__(self):
        return iter(self.flats)

    def __len__(self):
        return len(self.flats)

    def __contains__(self, flat: Flat) -> bool:
        return flat in self.flat_set

    def __getnewargs__(self):
        # copy and pickle rebuild from the fields, not from the iteration
        return (self.flats,)

    @cached_property
    def flat_set(self) -> frozenset[Flat]:
        """The members as a set, built once; subset tests against another
        ``flat_set`` reuse the stored hashes."""
        return frozenset(self.flats)

    def minimal_elements(self) -> tuple[Flat, ...]:
        return tuple(
            f
            for f in self.flats
            if not any(g is not f and f.contains(g) for g in self.flats)
        )


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


def enumerate_nested_sets(
    building: BuildingSet, cap: int = DEFAULT_NESTED_CAP
) -> list[NestedSet]:
    """All nested subsets of the fundamental members containing V.

    Deterministic: members are considered in (dim, bits) order and the
    output is lexicographically sorted by construction.
    """
    proper = [f for f in building.fund if f != building.V]
    masks = [building.fund_index_sets[f] for f in proper]
    out: list[NestedSet] = []

    def extend(start: int, flats: list[Flat], chosen: list[int]):
        out.append(NestedSet(tuple(flats) + (building.V,)))
        if len(out) > cap:
            raise TooManyNestedSets(f"nested-set enumeration passed cap {cap}")
        for k in range(start, len(proper)):
            if _compatible(building, chosen, masks[k]):
                flats.append(proper[k])
                chosen.append(masks[k])
                extend(k + 1, flats, chosen)
                flats.pop()
                chosen.pop()

    extend(0, [], [])
    return out


def enumerate_maximal_nested_sets(building: BuildingSet) -> list[NestedSet]:
    """Nested sets of full cardinality (the rank of the ambient space)."""
    n = building.rs.rank
    return [s for s in enumerate_nested_sets(building) if len(s) == n]


class CombinatorialBuildingSet(
    namedtuple("CombinatorialBuildingSet", "ground members")
):
    """A building set of subsets of a finite ground set."""

    __slots__ = ()

    def validate(self) -> None:
        for m in self.members:
            if not m or not m <= self.ground:
                raise NotBuilding("members must be nonempty subsets of the ground set")
        for i in self.ground:
            if frozenset((i,)) not in self.members:
                raise NotBuilding(f"missing singleton {{{i}}}")
        for a in self.members:
            for b in self.members:
                if a & b and a | b not in self.members:
                    raise NotBuilding(f"union of overlapping members {set(a)}, {set(b)} missing")

    def maximal_members(self) -> list[frozenset[int]]:
        return sorted(
            (m for m in self.members if not any(m < o for o in self.members)),
            key=lambda m: sorted(m),
        )

    def nested_sets(self) -> list[frozenset[frozenset[int]]]:
        """Nested sets: contain every maximal member; any two members are
        comparable or disjoint; no union of an antichain of size >= 2 is a
        member."""
        required = frozenset(self.maximal_members())
        optional = sorted(
            (m for m in self.members if m not in required),
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
                    if union in self.members:
                        return False
            return True

        base = sorted(required, key=lambda m: (len(m), sorted(m)))
        for a, b in combinations(base, 2):
            if a & b:
                raise NotBuilding("maximal members must be disjoint")

        def extend(start: int, chosen: list[frozenset[int]]):
            out.append(frozenset(chosen) | required)
            for k in range(start, len(optional)):
                if ok_with(chosen + base, optional[k]):
                    chosen.append(optional[k])
                    extend(k + 1, chosen)
                    chosen.pop()

        extend(0, [])
        return sorted(out, key=lambda s: (len(s), sorted(sorted(m) for m in s)))


def quotient_building_set(building: BuildingSet, parts: tuple[Flat, ...]) -> CombinatorialBuildingSet:
    """Residual building set after collapsing the orthogonal flats ``parts``.

    Members are the nonempty sets I_C minus I_D, for C fundamental and D
    the union of the parts: quotient combinatorics of a crossing face.
    """
    removed = 0
    for p in parts:
        mask = building.fund_index_sets.get(p)
        if mask is None:
            raise NotBuilding("quotient parts must be fundamental members")
        removed |= mask
    ground = frozenset(i for i in range(building.rs.rank) if not removed >> i & 1)
    left = (mask & ~removed for mask in building.fund_index_sets.values())
    members = frozenset(frozenset(iter_bits(r)) for r in left if r)
    out = CombinatorialBuildingSet(ground, members)
    out.validate()
    return out

