"""Nested sets of a building set, geometric and combinatorial.

All nested sets used geometrically are subsets of the *fundamental* part
of the building set (members spanned by simple roots) and contain the full
space V.  A set is nested when no antichain of two or more members sums to
a member of the building set.  Because a fundamental flat is determined by
its set of simple-root indices, all checks here run on index bitmasks.

The listings grow a nested family F one member N at a time, and N may join
exactly when every member of F is comparable with N or disjoint from it, and
N is a maximal member inside T, the union of N and the members of F disjoint
from N (Postnikov, arXiv:math/0507163; Feichtner-Kozlov, Selecta Math. 10,
2004).  Proof: a bad antichain {N, A_1, ...} has its union, a member, inside
T and strictly above N.  Conversely, the maximal member of T above N is N
together with the maximal A's inside it, and those form a bad antichain.
Geometrically the maximal members inside T are ``fund_decomposition(T)``.

The combinatorial side (ground set + family of index subsets) carries the
same notion for quotients: those faces factor through set-theoretic data
only.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property
from itertools import combinations

from .errors import NotBuilding, TooManyNestedSets
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


def _extends(chosen_masks, new_mask: int, maximal_inside) -> bool:
    """Can the member ``new_mask`` join the nested family ``chosen_masks``?

    Every chosen member must be comparable with it or disjoint from it, and
    it must be one of ``maximal_inside(T)``, the maximal members inside T =
    ``new_mask`` together with the chosen members disjoint from it.
    """
    t = new_mask
    for m in chosen_masks:
        if not m & new_mask:
            t |= m
        elif m & ~new_mask and new_mask & ~m:
            return False
    return new_mask in maximal_inside(t)


def enumerate_nested_sets(
    building: BuildingSet, cap: int = DEFAULT_NESTED_CAP
) -> list[NestedSet]:
    """All nested subsets of the fundamental members containing V.

    Deterministic: members are considered in (dim, bits) order and the
    output is lexicographically sorted by construction.
    """
    index = building.fund_index_sets
    proper = [f for f in building.fund if f != building.V]
    masks = [index[f] for f in proper]
    out: list[NestedSet] = []

    def maximal_inside(t: int) -> list[int]:
        return [index[f] for f in building.fund_decomposition(t)]

    def extend(start: int, flats: list[Flat], chosen: list[int]):
        out.append(NestedSet(tuple(flats) + (building.V,)))
        if len(out) > cap:
            raise TooManyNestedSets(f"nested-set enumeration passed cap {cap}")
        for k in range(start, len(proper)):
            if _extends(chosen, masks[k], maximal_inside):
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
        """Nested sets: every maximal member, and members that each join
        the ones before them by ``_extends``, read as masks over the ground
        set numbered in sorted order."""
        bit = {g: 1 << i for i, g in enumerate(sorted(self.ground))}

        def mask(m: frozenset[int]) -> int:
            return sum(bit[g] for g in m)

        member_masks = [mask(m) for m in self.members]

        @cache
        def maximal_inside(t: int) -> frozenset[int]:
            inside = [m for m in member_masks if not m & ~t]
            return frozenset(
                m for m in inside if not any(o != m and not m & ~o for o in inside)
            )

        required = frozenset(self.maximal_members())
        optional = sorted(
            (m for m in self.members if m not in required),
            key=lambda m: (len(m), sorted(m)),
        )
        optional_masks = [mask(m) for m in optional]
        out: list[frozenset[frozenset[int]]] = []

        base = sorted(required, key=lambda m: (len(m), sorted(m)))
        for a, b in combinations(base, 2):
            if a & b:
                raise NotBuilding("maximal members must be disjoint")

        def extend(start: int, chosen: list[frozenset[int]], masks: list[int]):
            out.append(frozenset(chosen) | required)
            for k in range(start, len(optional)):
                if _extends(masks, optional_masks[k], maximal_inside):
                    chosen.append(optional[k])
                    masks.append(optional_masks[k])
                    extend(k + 1, chosen, masks)
                    chosen.pop()
                    masks.pop()

        extend(0, [], [mask(m) for m in base])
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

