"""Finite reflection groups acting in simple-root coordinates.

Group elements are integer matrices (tuples of row tuples) acting on
coordinate columns.  The group is enumerated once by breadth-first closure
over the simple reflections; elements are then referred to by their index
in that enumeration, which is deterministic.  The closure walks in integer
columns: right-multiplying M by s_g negates column g and subtracts
C[g][r] times column g from each column r of a Dynkin neighbour of g, and
leaves every other column as it is.  Label subgroups are standard
parabolics W_J, each stored as a map from elements to left cosets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from operator import itemgetter

from .errors import GroupTooLarge
from .flats import iter_bits, simple_index_set
from .linalg import (
    Mat,
    Vec,
    identity,
    int_mat_vec,
    mat_mul,
    primitive_vector,
    solve_columns,
)

DEFAULT_GROUP_CAP = 50_000


def expected_group_order(components) -> int | None:
    """Order of the reflection group, or None when the type is unknown."""
    if components is None:
        return None
    order = 1
    for letter, m in components:
        if letter == "A":
            order *= factorial(m + 1)
        elif letter in ("B", "C"):
            order *= 2**m * factorial(m)
        else:  # D
            order *= 2 ** (m - 1) * factorial(m)
    return order


def check_group_cap(components, cap: int) -> int | None:
    """The predicted group order; raises GroupTooLarge when it exceeds cap."""
    predicted = expected_group_order(components)
    if predicted is not None and predicted > cap:
        raise GroupTooLarge(f"|W| = {predicted} exceeds cap {cap}")
    return predicted


def simple_reflection_matrix(cartan, i: int) -> Mat:
    n = len(cartan)
    rows = []
    for r in range(n):
        if r == i:
            rows.append(tuple((1 if j == i else 0) - cartan[i][j] for j in range(n)))
        else:
            rows.append(tuple(1 if j == r else 0 for j in range(n)))
    return tuple(rows)


class WeylGroup:
    """The reflection group of a root system, fully enumerated."""

    def __init__(self, rs, cap: int = DEFAULT_GROUP_CAP):
        self.rs = rs
        predicted = check_group_cap(rs.components, cap)

        n = rs.rank
        # per generator g, (r, C[g][r]) for each Dynkin neighbour r of g
        neighbours = [
            [(r, c) for r, c in enumerate(row) if r != g and c]
            for g, row in enumerate(rs.cartan)
        ]
        start = identity(n)  # symmetric: its rows are its columns
        seen = {start: None}  # column tuples, in discovery order
        frontier = [start]
        while frontier:
            new = []
            for cols in frontier:
                for g, nbrs in enumerate(neighbours):
                    col_g = cols[g]
                    prod = list(cols)
                    prod[g] = tuple([-x for x in col_g])
                    for r, c in nbrs:
                        prod[r] = tuple([x - c * y for x, y in zip(cols[r], col_g)])
                    prod = tuple(prod)
                    if prod not in seen:
                        seen[prod] = None
                        new.append(prod)
            if len(seen) > cap:
                raise GroupTooLarge(f"group enumeration passed cap {cap}")
            frontier = new

        if predicted is not None and len(seen) != predicted:
            raise GroupTooLarge(
                f"enumerated {len(seen)} elements, expected {predicted}"
            )

        self.elements: tuple[Mat, ...] = tuple([tuple(zip(*cols)) for cols in seen])
        del seen
        self.index: dict[Mat, int] = {m: a for a, m in enumerate(self.elements)}
        self.order = len(self.elements)
        self.identity_id = 0
        self.generator_ids = tuple(
            self.index[simple_reflection_matrix(rs.cartan, g)] for g in range(n)
        )

        self._inverse: list[int | None] = [None] * self.order
        # per element a and index i, a·ω̂_i as its number in the orbit of ω̂_i,
        # and per element its place in the lexicographic order of the
        # matrices; both made by the first _standard_parabolic call
        self._weight_images: list[tuple[int, ...]] | None = None
        self._lex_rank: list[int] | None = None

    # -- arithmetic ------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.index[mat_mul(self.elements[a], self.elements[b])]

    def inv(self, a: int) -> int:
        got = self._inverse[a]
        if got is None:
            m = self.elements[a]
            n = self.rs.rank
            cols = solve_columns(m, [tuple(identity(n)[r]) for r in range(n)])
            inverse = tuple(
                tuple(int(cols[c][r]) for c in range(n)) for r in range(n)
            )
            got = self.index[inverse]
            self._inverse[a] = got
        return got


def enumerate_group(rs, cap: int = DEFAULT_GROUP_CAP) -> WeylGroup:
    return WeylGroup(rs, cap)


@dataclass(frozen=True)
class Subgroup:
    """A standard parabolic subgroup W_J and its left cosets.

    W_J is generated by the simple reflections s_j, j in J, and is the
    intersection of the stabilisers of the fundamental weights omega_i,
    i not in J (Humphreys, Reflection Groups and Coxeter Groups, 1.10-1.12).
    So a and b lie in the same left coset exactly when a omega_i = b omega_i
    for every i not in J.  The images of the primitive fundamental weights
    are made once per group, each numbered by its first appearance in its
    orbit, and one pass over them names every coset.  ``coset`` gives the
    coset number of each element, numbered by first appearance in id order
    (the identity's coset is 0); ``cosets`` holds each coset's member ids
    ascending, and ``reps`` its member with the lexicographically least
    matrix, found by each element's place in one sort of the matrices made
    per group.
    """

    mask: int
    coset: tuple[int, ...]
    cosets: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]

    @property
    def member_ids(self) -> tuple[int, ...]:
        return self.cosets[0]

    @property
    def order(self) -> int:
        return len(self.member_ids)

    def members(self) -> frozenset:
        return frozenset(self.member_ids)


def _standard_parabolic(weyl: WeylGroup, mask: int) -> Subgroup:
    """W_J for the simple-index set J given as a bitmask."""
    images = weyl._weight_images
    if images is None:
        weights = [primitive_vector(w) for w in weyl.rs.weights]
        orbits: list[dict[Vec, int]] = [{} for _ in weights]
        images = weyl._weight_images = [
            tuple([
                orbit.setdefault(int_mat_vec(m, w), len(orbit))
                for w, orbit in zip(weights, orbits)
            ])
            for m in weyl.elements
        ]
        weyl._lex_rank = [0] * weyl.order
        by_matrix = sorted(range(weyl.order), key=weyl.elements.__getitem__)
        for place, a in enumerate(by_matrix):
            weyl._lex_rank[a] = place
    kept = [i for i in range(weyl.rs.rank) if not mask >> i & 1]
    # with one kept index, itemgetter gives the number itself, not a 1-tuple
    keys = map(itemgetter(*kept), images) if kept else [()] * weyl.order
    number: dict[int | tuple[int, ...], int] = {}
    coset = [number.setdefault(key, len(number)) for key in keys]
    cosets: list[list[int]] = [[] for _ in number]
    for a, c in enumerate(coset):
        cosets[c].append(a)
    reps = tuple(min(ids, key=weyl._lex_rank.__getitem__) for ids in cosets)
    return Subgroup(mask, tuple(coset), tuple(map(tuple, cosets)), reps)


def parabolic_subgroup(weyl: WeylGroup, flat) -> Subgroup:
    """Subgroup generated by the reflections in all roots of ``flat``.

    ``flat`` must be spanned by simple roots; its group is then W_J for its
    simple-index set J.
    """
    mask = simple_index_set(weyl.rs, flat)
    if mask is None:
        raise ValueError(f"{flat.describe(weyl.rs)} is not spanned by simple roots")
    return _standard_parabolic(weyl, mask)


def subgroup_product(weyl: WeylGroup, parts: list[Subgroup]) -> Subgroup:
    """Internal direct product of standard parabolics on orthogonal index sets."""
    if len(parts) == 1:
        return parts[0]
    cartan = weyl.rs.cartan
    mask = 0
    for part in parts:
        if mask & part.mask:
            raise ValueError("subgroup product parts overlap")
        for i in iter_bits(mask):
            if any(cartan[i][j] for j in iter_bits(part.mask)):
                raise ValueError("subgroup product parts are not orthogonal")
        mask |= part.mask
    return _standard_parabolic(weyl, mask)


def canonical_coset_rep(a: int, sub: Subgroup) -> int:
    """Deterministic representative of a @ sub: lexicographically least matrix."""
    return sub.reps[sub.coset[a]]


def left_cosets(sub: Subgroup) -> list[int]:
    """Canonical representatives of all left cosets, ascending by id."""
    return sorted(sub.reps)
