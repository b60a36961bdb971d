"""Finite reflection groups acting in simple-root coordinates.

Group elements are integer matrices (tuples of row tuples) acting on
coordinate columns.  The group is enumerated once by breadth-first closure
over the simple reflections; elements are then referred to by their index
in that enumeration, which is deterministic.  The closure walks in integer
columns: right-multiplying M by s_g negates column g and subtracts
C[g][r] times column g from each column r of a Dynkin neighbour of g.  It
records each element sigma but the identity as one step tau s_g from an
earlier tau, and orbits follow those steps: s_g x = x + delta_g(x) alpha_g
with delta_g(x) = -(row g of C) . x (Humphreys, Reflection Groups and
Coxeter Groups, 1.10), so sigma x = tau x + delta_g(x) (column g of tau),
n multiply-adds, and is tau x itself when delta_g(x) = 0.  Label subgroups
are standard parabolics W_J, each stored as a map from elements to cosets;
their orders, |W|'s too, come from the root heights (``parabolic_order``).
"""

from __future__ import annotations

from collections import namedtuple
from math import prod
from operator import itemgetter, mul

from .errors import GroupTooLarge
from .flats import iter_bits, simple_index_set
from .linalg import (
    Mat,
    Vec,
    identity,
    mat_mul,
    primitive_vector,
    solve_columns,
)

DEFAULT_GROUP_CAP = 50_000


def parabolic_order(rs, mask: int) -> int:
    """|W_J| for the simple indices J in ``mask``, with no group: the product
    of (ht a + 1) / ht a over the positive roots a supported in J, ht a being
    a's coordinate sum (Kostant 1959; Macdonald, Math. Ann. 199, 1972)."""
    heights = [sum(r) for r, s in zip(rs.positive_roots, rs.supports) if not s & ~mask]
    return prod(h + 1 for h in heights) // prod(heights)


def check_group_cap(rs, cap: int) -> int:
    """|W| from the root heights; raises GroupTooLarge when it exceeds cap."""
    order = parabolic_order(rs, (1 << rs.rank) - 1)
    if order > cap:
        raise GroupTooLarge(f"|W| = {order} exceeds cap {cap}")
    return order


class WeylGroup:
    """The reflection group of a root system, fully enumerated."""

    def __init__(self, rs, cap: int = DEFAULT_GROUP_CAP):
        self.rs = rs
        predicted = check_group_cap(rs, cap)

        n = rs.rank
        # per generator g, (r, C[g][r]) for each Dynkin neighbour r of g
        neighbours = [
            [(r, c) for r, c in enumerate(row) if r != g and c]
            for g, row in enumerate(rs.cartan)
        ]
        start = identity(n)  # symmetric: its rows are its columns
        seen = {start: None}  # column tuples, in discovery order
        parent, letter = [None], [None]  # element a > 0 is parent[a] s_letter[a]
        frontier = [start]
        while frontier:
            new = []
            for tau, cols in enumerate(frontier, len(seen) - len(frontier)):
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
                        parent.append(tau)
                        letter.append(g)
            if len(seen) > cap:
                raise GroupTooLarge(f"group enumeration passed cap {cap}")
            frontier = new

        if len(seen) != predicted:
            raise GroupTooLarge(
                f"enumerated {len(seen)} elements, expected {predicted}"
            )

        self.elements: tuple[Mat, ...] = tuple([tuple(zip(*cols)) for cols in seen])
        del seen
        self.index: dict[Mat, int] = {m: a for a, m in enumerate(self.elements)}
        self.order = len(self.elements)
        self.parent, self.letter = tuple(parent), tuple(letter)
        self.identity_id = 0
        self.generator_ids = tuple(range(1, n + 1))  # the identity's children

        self._inverse: list[int | None] = [None] * self.order
        # per element a, a·ω̂_i numbered in the orbit of ω̂_i for each i, and
        # a's place in the lexicographic order of the matrices; both lazy
        self._weight_images: list[tuple[int, ...]] | None = None
        self._lex_rank: list[int] | None = None
        self._parabolics: dict[int, Subgroup] = {}

    # -- arithmetic ------------------------------------------------------

    def deltas(self, x) -> tuple[int, ...]:
        """delta_g(x) = -(row g of C) . x for each generator g: s_g fixes x
        exactly when it is 0, and otherwise adds it times alpha_g."""
        return tuple([-sum(map(mul, row, x)) for row in self.rs.cartan])

    def orbit(self, xs, sub: Subgroup | None = None) -> list[Vec]:
        """sigma x for each element sigma in id order and integer vector x
        in ``xs``, sigma x_k at sigma len(xs) + k; each is tau x + delta_g(x)
        (column g of tau), or tau x's tuple when delta_g(x) = 0, and keeps tau
        x's int objects where column g of tau is 0.  With ``sub`` a standard
        parabolic W_J fixing every x, one image per left coset, by coset
        number: a coset's least id steps from an earlier coset."""
        images = [tuple(x) for x in xs]
        m = len(images)
        by_letter = list(zip(*map(self.deltas, images)))
        elements, parent, letter = self.elements, self.parent, self.letter
        slot = sub.coset if sub else range(self.order)
        firsts = [ids[0] for ids in sub.cosets[1:]] if sub else range(1, self.order)
        for sigma in firsts:
            tau, g = parent[sigma], letter[sigma]
            mat = elements[tau]
            for k, d in enumerate(by_letter[g], slot[tau] * m):
                img = images[k]
                if d:
                    img = tuple([y + d * r[g] if r[g] else y for y, r in zip(img, mat)])
                images.append(img)
        return images

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


class Subgroup(namedtuple("Subgroup", "mask coset cosets reps")):
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

    __slots__ = ()

    @property
    def member_ids(self) -> tuple[int, ...]:
        return self.cosets[0]


def standard_parabolic(weyl: WeylGroup, mask: int) -> Subgroup:
    """W_J for the simple-index set J given as a bitmask, made once per J."""
    got = weyl._parabolics.get(mask)
    if got is not None:
        return got
    images = weyl._weight_images
    if images is None:
        numbers = []
        for w in weyl.rs.weights:
            orbit: dict[Vec, int] = {}
            numbers.append([
                orbit.setdefault(v, len(orbit))
                for v in weyl.orbit([primitive_vector(w)])
            ])
        images = weyl._weight_images = list(zip(*numbers))
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
    got = weyl._parabolics[mask] = Subgroup(
        mask, tuple(coset), tuple(map(tuple, cosets)), reps
    )
    return got


def parabolic_subgroup(weyl: WeylGroup, flat) -> Subgroup:
    """Subgroup generated by the reflections in all roots of ``flat``.

    ``flat`` must be spanned by simple roots; its group is then W_J for its
    simple-index set J.
    """
    mask = simple_index_set(weyl.rs, flat)
    if mask is None:
        raise ValueError(f"{flat.describe(weyl.rs)} is not spanned by simple roots")
    return standard_parabolic(weyl, mask)


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
    return standard_parabolic(weyl, mask)


def canonical_coset_rep(a: int, sub: Subgroup) -> int:
    """Deterministic representative of a @ sub: lexicographically least matrix."""
    return sub.reps[sub.coset[a]]


def left_cosets(sub: Subgroup) -> list[int]:
    """Canonical representatives of all left cosets, ascending by id."""
    return sorted(sub.reps)
