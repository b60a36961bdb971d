"""Finite reflection groups acting in simple-root coordinates.

Group elements are integer matrices (tuples of row tuples) acting on
coordinate columns.  The group is enumerated once by breadth-first closure
over the simple reflections; elements are then referred to by their index
in that enumeration, which is deterministic.  Label subgroups are standard
parabolics W_J, each stored as a map from elements to left cosets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import GroupTooLarge
from .flats import iter_bits, simple_index_set
from .linalg import (
    Mat,
    Vec,
    identity,
    int_mat_vec,
    mat_mul,
    mat_vec,
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

        gens = [simple_reflection_matrix(rs.cartan, i) for i in range(rs.rank)]
        elements = [identity(rs.rank)]
        index = {elements[0]: 0}
        frontier = [elements[0]]
        while frontier:
            new = []
            for m in frontier:
                for g in gens:
                    prod = mat_mul(m, g)
                    if prod not in index:
                        index[prod] = len(elements)
                        elements.append(prod)
                        new.append(prod)
            if len(elements) > cap:
                raise GroupTooLarge(f"group enumeration passed cap {cap}")
            frontier = new

        if predicted is not None and len(elements) != predicted:
            raise GroupTooLarge(
                f"enumerated {len(elements)} elements, expected {predicted}"
            )

        self.elements: tuple[Mat, ...] = tuple(elements)
        self.index: dict[Mat, int] = index
        self.order = len(elements)
        self.identity_id = 0
        self.generator_ids = tuple(index[g] for g in gens)

        self._inverse: list[int | None] = [None] * self.order
        self._root_perm: list[tuple[int, ...] | None] = [None] * self.order

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

    # -- actions -----------------------------------------------------------

    def act_vec(self, a: int, x: Vec) -> Vec:
        return mat_vec(self.elements[a], x)

    def root_permutation(self, a: int) -> tuple[int, ...]:
        """Induced permutation of positive roots (signs dropped)."""
        got = self._root_perm[a]
        if got is None:
            images = []
            for root in self.rs.positive_roots:
                img = self.act_vec(a, root)
                if any(c < 0 for c in img):
                    img = tuple(-c for c in img)
                images.append(self.rs.root_index[img])
            got = tuple(images)
            self._root_perm[a] = got
        return got


def enumerate_group(rs, cap: int = DEFAULT_GROUP_CAP) -> WeylGroup:
    return WeylGroup(rs, cap)


@dataclass(frozen=True)
class Subgroup:
    """A standard parabolic subgroup W_J and its left cosets.

    W_J is generated by the simple reflections s_j, j in J, and is the
    stabiliser of x_J = sum of the fundamental weights omega_i, i not in J
    (Humphreys, Reflection Groups and Coxeter Groups, 1.12).  So a and b lie
    in the same left coset exactly when a x_J = b x_J, and one pass over the
    group names every coset.  ``coset`` gives the coset number of each
    element, numbered by first appearance in id order (the identity's coset
    is 0); ``cosets`` holds each coset's member ids ascending, and ``reps``
    its member with the lexicographically least matrix.
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
    rs = weyl.rs
    x = primitive_vector(
        tuple(
            sum(w[c] for i, w in enumerate(rs.weights) if not mask >> i & 1)
            for c in range(rs.rank)
        )
    )
    number: dict[Vec, int] = {}
    coset = []
    cosets: list[list[int]] = []
    for a, m in enumerate(weyl.elements):
        c = number.setdefault(int_mat_vec(m, x), len(number))
        if c == len(cosets):
            cosets.append([])
        cosets[c].append(a)
        coset.append(c)
    reps = tuple(min(ids, key=weyl.elements.__getitem__) for ids in cosets)
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


def canonical_coset_rep(weyl: WeylGroup, a: int, sub: Subgroup) -> int:
    """Deterministic representative of a @ sub: lexicographically least matrix."""
    return sub.reps[sub.coset[a]]


def left_cosets(weyl: WeylGroup, sub: Subgroup) -> list[int]:
    """Canonical representatives of all left cosets, ascending by id."""
    return sorted(sub.reps)
