"""The face poset of a permutonestohedron.

Faces are in bijection with pairs (coset, labelled nested set): a nested
set S containing V, a subset L of its minimal elements carrying the
"reflection" label, and a left coset of the direct product of the
parabolic subgroups of the labelled flats.  The face dimension is
n - |S| + |L|; vertices are the pairs with S maximal and L empty, the
whole polytope is ({V} labelled, the full group).

``is_face_leq`` decides the face order combinatorially:

  p <= q  iff  S_q is a subset of S_p,
              every labelled flat of p lies inside a labelled flat of q,
              and p's coset is contained in q's.

``covering_edges`` finds the covers without comparing faces pairwise: the
first two conditions depend only on the type (S, L), and once they hold,
exactly one face of q's type contains p, found by one coset lookup.

``face_vertices`` lists a face's vertices from the pair description;
``support_masks`` names the fundamental inequalities whose images carry
it, which ``pnh.chamber`` checks against the pair description.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import reduce
from itertools import combinations, groupby
from operator import is_, mul, or_
from sys import byteorder

from .errors import (
    BuildingNotInvariant,
    EmptyFacet,
    NotCrossingFacet,
    VerificationFailed,
)
from .flats import BuildingSet, Flat, iter_bits
from .halfspaces import HalfSpace, orthogonal_flats
from .nested import NestedSet, enumerate_nested_sets
from .polytope import VRep
from .weyl import Subgroup, WeylGroup, left_cosets, parabolic_order, parabolic_subgroup
from .weyl import subgroup_product


class FacePair(namedtuple("FacePair", "rep nested labels")):
    """A face: canonical coset representative, nested set, labelled subset."""

    __slots__ = ()


def list_nested_sets(building: BuildingSet) -> tuple[NestedSet, ...]:
    """The nested sets the face types run over, in enumeration order (listed
    here, where perfbench/spans.py wraps ``enumerate_nested_sets``)."""
    return tuple(enumerate_nested_sets(building))


class FaceContext:
    """Shared machinery for face enumeration and comparison."""

    def __init__(self, building: BuildingSet, weyl: WeylGroup, nested_sets: tuple):
        self.building = building
        self.weyl = weyl
        self.nested_sets = nested_sets

    def parabolic(self, flat: Flat) -> Subgroup:
        return parabolic_subgroup(self.weyl, flat)

    def label_subgroup(self, labels: tuple[Flat, ...]) -> Subgroup:
        return subgroup_product(self.weyl, [self.parabolic(f) for f in labels])

    def dimension(self, face: FacePair) -> int:
        return self.building.rs.rank - len(face.nested) + len(face.labels)


def face_types(nested_sets, n) -> Iterator[tuple[NestedSet, tuple[Flat, ...], int]]:
    """Each face type (S, L, dimension) of rank n, in listing order: nested
    sets in the order given, then label sets by size and combination order."""
    for s in nested_sets:
        minimal = s.minimal_elements()
        for size in range(len(minimal) + 1):
            for labels in combinations(minimal, size):
                yield s, labels, n - len(s) + size


def enumerate_faces(ctx: FaceContext) -> list[FacePair]:
    """All faces, deterministically ordered: each type's cosets in turn."""
    return [
        FacePair(rep, s, labels)
        for s, labels, _ in face_types(ctx.nested_sets, ctx.building.rs.rank)
        for rep in left_cosets(ctx.label_subgroup(labels))
    ]


def label_mask(building: BuildingSet, labels) -> int:
    """The simple indices J of the labelled flats, W_L = W_J."""
    return reduce(or_, map(building.fund_index_sets.__getitem__, labels), 0)


def f_vector(building: BuildingSet, nested_sets) -> tuple[int, ...]:
    """Face counts by dimension, with no group: a type (S, L) has |W| / |W_L|
    faces, the orders read from the root heights once per label mask."""
    rs = building.rs
    order, index = parabolic_order(rs, (1 << rs.rank) - 1), {}
    counts = [0] * (rs.rank + 1)
    for _, labels, dim in face_types(nested_sets, rs.rank):
        mask = label_mask(building, labels)
        index[mask] = index.get(mask) or order // parabolic_order(rs, mask)
        counts[dim] += index[mask]
    return tuple(counts)


def _type_leq(p: FacePair, q: FacePair) -> bool:
    """The part of p <= q that ignores the cosets: S_q lies in S_p, and every
    labelled flat of p lies inside a labelled flat of q."""
    if not q.nested.flat_set <= p.nested.flat_set:
        return False
    return all(any(b.contains(a) for b in q.labels) for a in p.labels)


def is_face_leq(ctx: FaceContext, p: FacePair, q: FacePair) -> bool:
    if not _type_leq(p, q):
        return False
    # the labels of p lie inside those of q, so W_{J_p} is inside W_{J_q}
    hq = ctx.label_subgroup(q.labels)
    return hq.coset[p.rep] == hq.coset[q.rep]


def covering_edges(ctx: FaceContext, faces: list[FacePair]) -> list[list[int]]:
    """All [i, j] with face i inside face j and dim j = dim i + 1, sorted.

    ``faces`` must be listed as ``enumerate_faces`` lists them: each type
    (S, L) is one run with one face per left coset of W_L, representatives
    ascending.  Once the types of p and q compare, exactly one face of q's
    type contains p: the one whose coset of W_{L_q} holds p's representative.
    So the work is one type test per pair of types in adjacent dimensions
    and one lookup per edge.  Each found face's representative is checked
    against the coset's, so a change to the listing order cannot go unseen.
    """
    ids = list(range(len(faces)))
    runs_by_dim: dict[int, list] = {}
    for _, run in groupby(ids, key=lambda k: (faces[k].nested, faces[k].labels)):
        run = list(run)
        first = faces[run[0]]
        sub = ctx.label_subgroup(first.labels)
        if len(run) != len(sub.reps):
            raise VerificationFailed(
                f"a face type is listed with {len(run)} faces for "
                f"{len(sub.reps)} cosets"
            )
        # the k-th face of the run carries the k-th least representative
        at_coset = [0] * len(run)
        for j, c in zip(run, sorted(range(len(run)), key=sub.reps.__getitem__)):
            at_coset[c] = j
        runs_by_dim.setdefault(ctx.dimension(first), []).append(
            (first, run, sub, at_coset)
        )

    edges = []
    for d in sorted(runs_by_dim):
        uppers = runs_by_dim.get(d + 1, ())
        for low, run, _, _ in runs_by_dim[d]:
            above = [up for up in uppers if _type_leq(low, up[0])]
            for i in run:
                rep = faces[i].rep
                for _, _, sub, at_coset in above:
                    c = sub.coset[rep]
                    j = at_coset[c]
                    if faces[j].rep != sub.reps[c]:
                        raise VerificationFailed(
                            f"face {j} is not the listed face of its coset"
                        )
                    edges.append([i, j])
    return edges


def face_vertices(ctx: FaceContext, face: FacePair, vrep: VRep) -> frozenset[int]:
    """Vertex ids of a face from the pair description: the sigma v_T with
    sigma in the face's coset and T holding its nested set."""
    sub = ctx.label_subgroup(face.labels)
    base = list(iter_bits(vrep.base_ids(face.nested)))
    if not base:
        raise EmptyFacet(f"face {face} has no vertices")
    m = len(vrep.max_nested)
    coset = sub.cosets[sub.coset[face.rep]]
    return frozenset([sigma * m + k for sigma in coset for k in base])


def support_masks(building: BuildingSet, face: FacePair) -> list[int]:
    """Simple-index masks of the fundamental inequalities whose images by
    the face's coset representative carry the face.

    With labels A_1..A_k and D their sum: for k = 0 the chamber inequality
    (the full mask) and the inequality of every proper member of S; for
    k >= 1 the inequality of D and those of B + D over proper unlabelled B
    in S; none for the whole polytope.
    """
    proper = [f for f in face.nested if f != building.V]
    if face.labels == (building.V,):
        return []  # the whole polytope: no supporting hyperplane
    if not face.labels:
        masks = [(1 << building.rs.rank) - 1]
        return masks + [building.fund_index_sets[b] for b in proper]
    d_mask = label_mask(building, face.labels)
    if len(face.labels) >= 2:
        parts = building.fund_decomposition(d_mask)
        if parts != tuple(sorted(face.labels)):
            raise VerificationFailed(
                "label sum decomposes differently from the labels themselves"
            )
    return [d_mask] + [
        building.fund_index_sets[b] | d_mask for b in proper if b not in face.labels
    ]


def crossing_facet_parts(ctx: FaceContext, face: FacePair) -> tuple[Flat, ...]:
    """The labelled flats of a crossing facet (S = {V} + labels, all labelled)."""
    building = ctx.building
    if ctx.dimension(face) != building.rs.rank - 1:
        raise NotCrossingFacet("face is not a facet")
    expected = tuple(sorted(face.labels)) + (building.V,)
    if not face.labels or face.nested.flats != expected:
        raise NotCrossingFacet("facet is a nestohedron facet, not a crossing one")
    for a, b in combinations(face.labels, 2):
        if not orthogonal_flats(building.rs, a, b):
            raise VerificationFailed("crossing facet labels are not orthogonal")
    return tuple(sorted(face.labels))


class _PackedKeys:
    """An inequality list prepared for the symmetry action.

    (x, p) <= b is keyed by class(b) + c * sum_k (p_k + half) * base^k, with
    c bound classes, half = reach * max|p| and base = 2 half + 1: no image
    under an M whose rows have absolute sums <= reach aliases another key.
    The key is linear in p, so the lanes of ``fixed`` + sum_j ``columns[j]``
    * (sum_k ``powers[k]`` * M_kj), ``width`` bytes each, are the keys of
    the images.  ``reach`` is widened as far as 64-bit keys allow.
    """

    def __init__(self, halfspaces: list[HalfSpace], reach: int):
        self.halfspaces = tuple(halfspaces)
        h = len(self.halfspaces)
        columns = list(zip(*[hs.prim for hs in self.halfspaces]))
        bounds = [hs.bound for hs in self.halfspaces]
        # bounds are classed by exact value, each distinct object hashed
        # once: the orbit walk shares one per fundamental inequality
        ids = list(map(id, bounds))
        classes: dict = {}
        class_of = {
            k: classes.setdefault(b, len(classes))
            for k, b in dict(zip(ids, bounds)).items()
        }
        c, n = len(classes), len(columns)
        top = max(max(map(max, columns)), -min(map(min, columns)), 1)
        fit = ((1 << (64 - c.bit_length()) // n) - 1) // (2 * top)
        self.reach = reach = max(reach, fit)
        base = 2 * reach * top + 1
        self.width = width = max(8, ((c * base**n - 1).bit_length() + 7) // 8)
        self.powers = [c * base**k for k in range(n)]

        def pack(values: list[int]) -> int:  # each value below 2^(8 width)
            buf = bytearray(width * h)
            for k in range(0, max(values).bit_length(), 8):
                buf[k // 8 :: width] = [v >> k & 255 for v in values]
            return int.from_bytes(buf, "little")

        ones = int.from_bytes((b"\1" + bytes(width - 1)) * h, "little")
        self.columns = [pack([p + top for p in col]) - top * ones for col in columns]
        self.fixed = pack(list(map(class_of.__getitem__, ids)))
        self.fixed += reach * top * sum(self.powers) * ones
        self.position = dict(zip(self.keys(self.powers), range(h)))
        # w gamma is invertible, so distinct keys make the action injective
        self.distinct = len(self.position) == h

    def serves(self, halfspaces: list[HalfSpace], reach: int) -> bool:
        return (
            reach <= self.reach
            and len(halfspaces) == len(self.halfspaces)
            and all(map(is_, halfspaces, self.halfspaces))
        )

    def keys(self, weights: list[int]):
        """The keys of the images under the M with m_j = ``weights[j]``."""
        acc = self.fixed
        for column, m in zip(self.columns, weights):
            acc += column * m
        width = self.width
        data = acc.to_bytes(width * len(self.halfspaces), byteorder)
        if width == 8:
            return memoryview(data).cast("Q")
        return [data[k : k + width] for k in range(0, len(data), width)]


def aut_action_on_halfspaces(
    building: BuildingSet,
    weyl: WeylGroup,
    halfspaces: list[HalfSpace],
    w_id: int,
    gamma_matrix,
) -> tuple[int, ...]:
    """Permutation induced on the defining inequalities by x -> w(gamma x).

    Raises BuildingNotInvariant unless gamma is a diagram automorphism that
    validation recorded as preserving the building set.  w gamma is
    unimodular, so each primitive integer normal maps to the primitive
    normal of its image, looked up exactly with its bound's value class;
    with the injectivity check, a return proves the inequality set maps
    onto itself.

    The list is prepared once (``_PackedKeys``) and kept on the building
    set while the same inequality objects are passed and its keys are wide
    enough for w gamma; a call then makes every image key with n big-integer
    multiply-adds and looks each one up.
    """
    gamma_rows = tuple(tuple(row) for row in gamma_matrix)
    if all(a.matrix != gamma_rows for a in building.preserved_diagram_automorphisms):
        raise BuildingNotInvariant(
            "gamma is not a diagram automorphism preserving the building set"
        )
    if not halfspaces:
        return ()
    w_rows = weyl.elements[w_id]
    # the row sums of w gamma are at most those of w times those of gamma
    reach = max(sum(map(abs, row)) for row in w_rows) * max(
        sum(map(abs, row)) for row in gamma_rows
    )
    packed = building.action_keys
    if packed is None or not packed.serves(halfspaces, reach):
        packed = building.action_keys = _PackedKeys(halfspaces, reach)
    # m_j = sum_k powers_k (w gamma)_kj, with powers times w made first
    u = [sum(map(mul, packed.powers, col)) for col in zip(*w_rows)]
    weights = [sum(map(mul, u, col)) for col in zip(*gamma_rows)]
    try:
        perm = tuple(map(packed.position.__getitem__, packed.keys(weights)))
    except KeyError:
        raise VerificationFailed(
            "symmetry image of a defining inequality is not a defining inequality"
        ) from None
    if not packed.distinct:
        raise VerificationFailed("symmetry action on inequalities is not injective")
    return perm
