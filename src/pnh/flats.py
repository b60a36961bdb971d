"""Flats of the root arrangement and building sets of flats.

A *flat* is a subspace spanned by roots, represented by the bitset of the
positive roots it contains together with its dimension.  The bitset is
closed: beta lies in the span iff its bit is set, so subspace containment
is bitset containment and all the combinatorics below run on integers.

Every flat is W-conjugate to a standard parabolic flat span(alpha_j : j in
J) (Bourbaki, *Lie* VI, section 1.7, Prop. 24; Humphreys, *Reflection
Groups and Coxeter Groups*, section 1.12), so ``all_flats`` lists them as
the orbits of the 2^n - 1 standard flats under the simple reflections,
acting as permutations of the positive roots.  Irreducibility is a search
over the precomputed non-orthogonality bitmasks of the roots.

A *building set* is a reflection-stable family of flats, spanning the
whole space, such that every root-spanned subspace decomposes as the
direct sum of the maximal family members it contains.  The two standard
examples are the minimal one (irreducible flats plus the full space) and
the maximal one (all flats).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import (
    MissingV,
    NotBuilding,
    NotWInvariant,
    TooManyFlats,
    VerificationFailed,
)
from .linalg import Echelon, int_mat_vec, primitive_vector
from .roots import RootSystem, diagram_automorphisms

DEFAULT_FLAT_CAP = 2**20


def iter_bits(bits: int) -> Iterator[int]:
    """The positions of the set bits of ``bits``, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class Flat(namedtuple("Flat", "dim bits")):
    """A root-spanned subspace: (dimension, bitset of positive roots)."""

    __slots__ = ()

    def indices(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def contains(self, other: "Flat") -> bool:
        return other.bits & ~self.bits == 0

    def describe(self, rs: RootSystem) -> str:
        names = ",".join(str(i) for i in self.indices())
        return f"<dim {self.dim}: roots {names}>"


def flat_closure(rs: RootSystem, root_indices: Iterable[int]) -> Flat:
    """Smallest flat containing the given positive roots."""
    ech = Echelon()
    for i in root_indices:
        ech.add(rs.positive_roots[i])
    bits = 0
    for j, root in enumerate(rs.positive_roots):
        if ech.contains(root):
            bits |= 1 << j
    return Flat(ech.rank, bits)


def full_flat(rs: RootSystem) -> Flat:
    return Flat(rs.rank, (1 << len(rs.positive_roots)) - 1)


def line_flats(rs: RootSystem) -> list[Flat]:
    return [Flat(1, 1 << i) for i in range(len(rs.positive_roots))]


def _component_masks(rs: RootSystem, bits: int) -> list[int]:
    """The root bitsets of the classes of ``bits`` under the transitive
    closure of non-orthogonality, each found by a search over the bitmasks
    ``rs.non_orthogonal``; lowest root first."""
    masks = []
    while bits:
        comp = frontier = bits & -bits
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = rs.non_orthogonal[low.bit_length() - 1] & bits & ~comp
            comp |= new
            frontier |= new
        bits &= ~comp
        masks.append(comp)
    return masks


def is_irreducible(rs: RootSystem, flat: Flat) -> bool:
    return len(_component_masks(rs, flat.bits)) == 1


def standard_flat(rs: RootSystem, mask: int) -> Flat:
    """The standard parabolic flat span(alpha_j : j in ``mask``): the
    positive roots whose support lies in ``mask``, of dimension |mask|."""
    bits = 0
    for k, support in enumerate(rs.supports):
        if support & ~mask == 0:
            bits |= 1 << k
    return Flat(mask.bit_count(), bits)


def all_flats(rs: RootSystem, cap: int = DEFAULT_FLAT_CAP) -> list[Flat]:
    """Every root-spanned subspace, as the W-orbits of the standard flats.

    Every flat of a root arrangement is W-conjugate to a standard parabolic
    flat span(alpha_j : j in J) (Bourbaki, *Lie* VI, section 1.7, Prop. 24;
    Humphreys, *Reflection Groups and Coxeter Groups*, section 1.12), so the
    orbits of the 2^n - 1 standard flats are all of them.  Raises
    TooManyFlats as soon as more than ``cap`` flats are found."""
    return _orbits(rs, fundamental_flats(rs), cap)


def _orbits(rs: RootSystem, seeds: list[Flat], cap: int) -> list[Flat]:
    """The W-orbits of the flats ``seeds``, sorted: their closure under the
    n simple reflections, each acting on root bitsets through
    ``rs.simple_reflection_perms``.  Raises TooManyFlats as soon as more
    than ``cap`` flats are found."""
    found = {f.bits: f for f in seeds}
    frontier = list(found.values())
    if len(found) > cap:
        raise TooManyFlats(f"flat enumeration passed cap {cap}")
    while frontier:
        new = []
        for flat in frontier:
            for perm in rs.simple_reflection_perms:
                image = _image_bits(perm, flat.bits)
                if image not in found:
                    moved = found[image] = Flat(flat.dim, image)
                    new.append(moved)
                    if len(found) > cap:
                        raise TooManyFlats(f"flat enumeration passed cap {cap}")
        frontier = new
    return sorted(found.values())


def fundamental_flats(rs: RootSystem) -> list[Flat]:
    """Flats spanned by subsets of the simple roots (2^n - 1 of them)."""
    return sorted(standard_flat(rs, mask) for mask in range(1, 1 << rs.rank))


def simple_index_set(rs: RootSystem, flat: Flat) -> int | None:
    """Bitmask of simple roots inside ``flat``; None when not spanned by them."""
    mask = flat.bits & ((1 << rs.rank) - 1)
    return mask if mask.bit_count() == flat.dim else None


class FlatData(namedtuple("FlatData", "flat pi2 delta_perp2 gram_delta_perp ratio")):
    """Twice the half-sum pi of the roots of a flat and twice the complementary
    part delta_perp of delta, as integer vectors, with Gram times delta_perp
    as a primitive integer row and a positive ratio:
    (x, delta_perp) = ratio * dot(gram_delta_perp, x)."""

    __slots__ = ()

    @property
    def pi(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, 2) for c in self.pi2)

    @property
    def delta_perp(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, 2) for c in self.delta_perp2)


def flat_data(rs: RootSystem, flat: Flat) -> FlatData:
    """Exact pi and delta_perp for a fundamental flat (or the whole space).

    For the whole space the convention is pi = delta_perp = delta.  The
    computed data is checked: delta_perp vanishes against every root of the
    flat, and its weight-basis coefficients off the flat's simple indices
    are >= 1.  Both are read off row = int_gram (2 delta_perp), which is
    2 gram_scale Gram delta_perp.
    """
    roots = [rs.positive_roots[i] for i in flat.indices()]
    pi2 = tuple(map(sum, zip(*roots)))
    if flat.dim == rs.rank:
        if pi2 != rs.delta2:
            raise VerificationFailed("half-sum over the whole space is not delta")
        dperp2 = pi2
        row = int_mat_vec(rs.int_gram, pi2)
    else:
        dperp2 = tuple([d - p for d, p in zip(rs.delta2, pi2)])
        row = int_mat_vec(rs.int_gram, dperp2)
        if any(sum(map(mul, row, r)) for r in roots):
            raise VerificationFailed(
                f"delta_perp not orthogonal to flat {flat.describe(rs)}"
            )
        # weight coefficient s = 2 (dperp, alpha_s) / (alpha_s, alpha_s)
        #                      = row[s] / int_gram[s][s]
        simple_mask = simple_index_set(rs, flat)
        for s in range(rs.rank) if simple_mask is not None else ():
            inside = simple_mask >> s & 1
            if inside and row[s] != 0:
                raise VerificationFailed("delta_perp has weight on its own flat")
            if not inside and row[s] < rs.int_gram[s][s]:
                raise VerificationFailed(
                    "delta_perp weight-coefficient below 1 off the flat"
                )
    prim = primitive_vector(row)
    k = next(k for k, p in enumerate(prim) if p)
    ratio = Fraction(row[k], 2 * rs.gram_scale * prim[k])
    return FlatData(flat, pi2, dperp2, prim, ratio)


class BuildingSet:
    """A validated building set of flats over a root system."""

    def __init__(self, rs: RootSystem, flats: Iterable[Flat], kind: str = "custom"):
        self.rs = rs
        self.flats = frozenset(flats)
        self.kind = kind
        self.V = full_flat(rs)
        self.sorted_flats = tuple(sorted(self.flats))
        self.fund = tuple(
            f for f in self.sorted_flats if simple_index_set(rs, f) is not None
        )
        self.fund_index_sets = {
            f: simple_index_set(rs, f) for f in self.fund
        }
        self._fund_by_indices = {v: k for k, v in self.fund_index_sets.items()}
        self._fund_decomp_cache: dict[int, tuple[Flat, ...]] = {}
        self.preserved_diagram_automorphisms: tuple = ()
        self.contains_every_flat = False
        # the inequality list last acted on, as faces.aut_action_on_halfspaces
        # prepared it
        self.action_keys = None

    def __contains__(self, flat: Flat) -> bool:
        return flat in self.flats

    @cached_property
    def fund_data(self) -> dict[Flat, FlatData]:
        """``flat_data`` of each fundamental member, the whole space included:
        the one table that the epsilon list, the inequalities, the vertices
        and the nestohedron check of a model read."""
        return {f: flat_data(self.rs, f) for f in self.fund}

    def fund_flat_for_indices(self, mask: int) -> Flat | None:
        return self._fund_by_indices.get(mask)

    def g_decomposition(self, flat: Flat) -> tuple[Flat, ...]:
        """Maximal members contained in ``flat`` (the defining decomposition);
        a member's is the member itself, which contains every member inside
        it."""
        if flat in self.flats:
            return (flat,)
        inside = [g for g in self.sorted_flats if flat.contains(g)]
        return tuple(
            g for g in inside if not any(h is not g and h.contains(g) for h in inside)
        )

    def fund_decomposition(self, index_mask: int) -> tuple[Flat, ...]:
        """Maximal fundamental members inside the simple-index set ``index_mask``."""
        got = self._fund_decomp_cache.get(index_mask)
        if got is None:
            inside = [
                (f, m)
                for f, m in self.fund_index_sets.items()
                if m & ~index_mask == 0
            ]
            maximal = sorted(
                f
                for f, m in inside
                if not any(g is not f and m & ~mg == 0 for g, mg in inside)
            )
            covered = 0
            for f in maximal:
                mask = self.fund_index_sets[f]
                if covered & mask:
                    raise NotBuilding(
                        "fundamental decomposition members overlap"
                    )
                covered |= mask
            if covered != index_mask:
                raise NotBuilding("fundamental decomposition does not cover")
            got = tuple(maximal)
            self._fund_decomp_cache[index_mask] = got
        return got

    def __repr__(self):
        return (
            f"BuildingSet({self.kind}, {len(self.flats)} flats,"
            f" {len(self.fund)} fundamental)"
        )


def _image_bits(perm, bits: int) -> int:
    """The bitset image of the root bitset ``bits`` under the permutation
    ``perm`` of the positive roots."""
    image = 0
    for i in iter_bits(bits):
        image |= 1 << perm[i]
    return image


def _check_w_invariance(rs: RootSystem, flats: frozenset[Flat]) -> None:
    """Stability under W; the simple reflections generate it, so checking
    their root permutations ``rs.simple_reflection_perms`` suffices."""
    for i, perm in enumerate(rs.simple_reflection_perms):
        for f in flats:
            if Flat(f.dim, _image_bits(perm, f.bits)) not in flats:
                raise NotWInvariant(
                    f"simple reflection {i} moves flat {f.describe(rs)}"
                    " outside the family"
                )


def validate_building_set(
    rs: RootSystem, flats: Iterable[Flat], kind: str = "custom"
) -> BuildingSet:
    """Check the building-set axioms and return the validated family.

    Reads only the root system and lists no flats.  Raises MissingV /
    NotBuilding / NotWInvariant with a witness message.  W-invariance is
    checked on the simple reflections' root permutations.  Every flat is
    then W-conjugate to a standard flat, and W permutes the family, so the
    rest is read off the 2^n - 1 standard flats:
    - each one's maximal members sum directly to it, and span it exactly
      when their root bitsets cover it (every root lies on a line flat, and
      every line is a member);
    - a diagram symmetry, which permutes the standard flats, preserves the
      family iff it permutes the standard members' simple-index masks;
    - the family holds every flat iff it holds every standard one.
    """
    family = frozenset(flats)
    bs = BuildingSet(rs, family, kind=kind)
    if bs.V not in family:
        raise MissingV("building set must contain the whole space")
    for line in line_flats(rs):
        if line not in family:
            raise NotBuilding(f"missing line flat {line.describe(rs)}")
    _check_w_invariance(rs, family)
    for flat in fundamental_flats(rs):
        parts = bs.g_decomposition(flat)
        if sum(p.dim for p in parts) != flat.dim:
            raise NotBuilding(
                f"maximal members of {flat.describe(rs)} do not sum directly"
            )
        union = 0
        for p in parts:
            union |= p.bits
        if union != flat.bits:
            raise NotBuilding(
                f"maximal members of {flat.describe(rs)} do not span it"
            )
    masks = set(bs.fund_index_sets.values())
    bs.preserved_diagram_automorphisms = tuple(
        auto
        for auto in diagram_automorphisms(rs)
        if {_image_bits(auto.perm, m) for m in masks} == masks
    )
    bs.contains_every_flat = len(masks) == 2**rs.rank - 1
    return bs


def build_maximal(rs: RootSystem, weyl=None) -> BuildingSet:
    """Every flat.  ``weyl`` is accepted and ignored: validation reads only
    the root system, and ``perfbench/worker.py`` still passes its group."""
    return validate_building_set(rs, all_flats(rs), "maximal")


def build_minimal(rs: RootSystem, weyl=None) -> BuildingSet:
    """Irreducible flats, with the whole space adjoined when reducible: the
    W-orbits of the irreducible standard flats, and V, which W fixes.
    ``weyl`` is accepted and ignored, as in ``build_maximal``."""
    seeds = [f for f in fundamental_flats(rs) if is_irreducible(rs, f)]
    flats = _orbits(rs, seeds + [full_flat(rs)], DEFAULT_FLAT_CAP)
    return validate_building_set(rs, flats, "minimal")


def interval_building_set(n: int) -> BuildingSet:
    """Intervals of coordinate lines over the rank-n Boolean arrangement.

    The underlying root system is the n-fold product of rank-1 systems, so
    every subset of lines spans a flat; the family of interval subsets
    {i, i+1, ..., j} (plus the whole space) is a building set whose nested
    complex is the associahedron's.
    """
    rs = RootSystem.from_components(tuple([("A", 1)] * n))
    flats = []
    for lo in range(n):
        for hi in range(lo, n):
            flats.append(standard_flat(rs, ((1 << (hi - lo + 1)) - 1) << lo))
    v = full_flat(rs)
    if v not in flats:
        flats.append(v)
    return validate_building_set(rs, flats, kind="interval")


def restricted_building_set(building: BuildingSet, flat: Flat) -> BuildingSet:
    """The induced building set on the root system of the member ``flat``.

    ``flat`` must be a fundamental member span(alpha_j : j in J), and its
    root system is then the standard parabolic one, the Gram block of J
    (Humphreys, *Reflection Groups and Coxeter Groups*, section 1.10): its
    positive roots are the flat's, in their own order, since both orders
    sort by (height, coordinates) after the simple roots.  So each member
    inside keeps its root bitset, renumbered by ``within``.  Raises
    NotBuilding for a flat that is not a member or not fundamental.
    """
    if flat not in building:
        raise NotBuilding("restriction flat must belong to the building set")
    rs = building.rs
    mask = simple_index_set(rs, flat)
    if mask is None:
        raise NotBuilding(f"{flat.describe(rs)} is not spanned by simple roots")
    gram = rs.gram
    simple = list(iter_bits(mask))
    sub = RootSystem.from_gram([[gram[i][j] for j in simple] for i in simple])
    members = [within(flat, g) for g in building.sorted_flats if flat.contains(g)]
    return validate_building_set(sub, members, kind=f"{building.kind}-restricted")


def within(outer: Flat, inner: Flat) -> Flat:
    """The flat ``inner`` inside ``outer``, each of its roots renumbered by
    its position among the roots of ``outer``."""
    bits = 0
    for i in inner.indices():
        bits |= 1 << (outer.bits & ((1 << i) - 1)).bit_count()
    return Flat(inner.dim, bits)
