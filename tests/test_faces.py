import random
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import add, attrgetter, is_, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnh.errors import BuildingNotInvariant, NotCrossingFacet, VerificationFailed
from pnh.faces import (
    aut_action_on_halfspaces,
    covering_edges,
    crossing_facet_parts,
    enumerate_faces,
    support_masks,
)
from pnh.flats import build_minimal, interval_building_set, simple_index_set
from pnh.halfspaces import HalfSpace
from pnh.linalg import int_mat_vec, mat_mul, mat_vec, primitive_vector
from pnh.model import Permutonestohedron
from pnh.roots import build_root_system, diagram_automorphisms

from conftest import make_model, primitive_key
from materialised import key_positions, support_halfspaces


def test_face_enumeration_matches_f_vector(a2, a3_min):
    for model in (a2, a3_min):
        faces = model.faces
        fvec = model.f_vector
        assert len(faces) == sum(fvec)
        by_dim = {}
        for f in faces:
            by_dim.setdefault(model.face_ctx.dimension(f), 0)
            by_dim[model.face_ctx.dimension(f)] += 1
        assert tuple(by_dim[d] for d in range(len(fvec))) == fvec


def test_a7_f_vector_needs_no_group(monkeypatch):
    # the value the enumeration of W gives; here every order comes from the
    # root heights
    def unreachable(rs, cap):
        raise AssertionError("enumerated W")

    monkeypatch.setattr("pnh.model.enumerate_group", unreachable)
    model = Permutonestohedron(build_minimal(build_root_system("A7")))
    assert model.f_vector == (
        17297280, 70519680, 114488640, 93451680, 39581640, 7942032, 545834, 1
    )


def test_faces_have_canonical_reps(a2):
    ctx = a2.face_ctx
    for f in a2.faces:
        sub = ctx.label_subgroup(f.labels)
        assert f.rep == min(
            (a2.weyl.mul(f.rep, h) for h in sub.member_ids),
            key=lambda g: a2.weyl.elements[g],
        )


def test_order_relation_is_a_partial_order(a2):
    faces = a2.faces
    leq = a2.face_leq
    for p in faces:
        assert leq(p, p)
    for p in faces:
        for q in faces:
            if leq(p, q) and leq(q, p):
                assert p == q


def test_order_relation_equals_vertex_containment(a2):
    faces = a2.faces
    vsets = [a2.face_vertex_ids(f) for f in faces]
    for i, p in enumerate(faces):
        for j, q in enumerate(faces):
            assert a2.face_leq(p, q) == (vsets[i] <= vsets[j])


def test_covering_edges_reject_a_reordered_listing(a3_min):
    faces = list(a3_min.faces)
    # the first type, ({V}, no labels), listed with representatives descending
    run = [
        i for i, f in enumerate(faces) if f.nested == faces[0].nested and not f.labels
    ]
    first, stop = run[0], run[-1] + 1
    faces[first:stop] = faces[first:stop][::-1]
    with pytest.raises(VerificationFailed, match="listed face of its coset"):
        covering_edges(a3_min.face_ctx, faces)
    # a face type split in two runs
    faces = list(a3_min.faces)
    faces.append(faces.pop(first))
    with pytest.raises(VerificationFailed, match="faces for"):
        covering_edges(a3_min.face_ctx, faces)


def test_top_face_has_no_supporting_hyperplanes(a2):
    top = next(
        f
        for f in a2.faces
        if a2.face_ctx.dimension(f) == a2.rs.rank
    )
    assert support_masks(a2.building, top) == []


def test_vertices_match_supporting_hyperplanes(a2, b2):
    for model in (a2, b2):
        report = model._face_vertex_report()
        assert report.passed, report.line()


def test_simplicity(a3_min, a3_max, b3_min, b3_max):
    assert not a3_min.simple()
    assert a3_max.simple()
    assert not b3_min.simple()
    assert b3_max.simple()


def test_crossing_facet_detection(a3_min):
    facets = [
        f
        for f in a3_min.faces
        if a3_min.face_ctx.dimension(f) == a3_min.rs.rank - 1
    ]
    crossing, chamber = [], []
    for f in facets:
        try:
            crossing_facet_parts(a3_min.face_ctx, f)
            crossing.append(f)
        except NotCrossingFacet:
            chamber.append(f)
    assert len(crossing) == 50
    assert len(chamber) == 24
    # chamber facets carry no labels; crossing facets label everything proper
    assert all(not f.labels for f in chamber)
    assert all(f.labels for f in crossing)


def test_aut_action_permutes_halfspaces(a2):
    autos = diagram_automorphisms(a2.rs)
    flip = next(a for a in autos if a.perm != (0, 1))
    perm = aut_action_on_halfspaces(
        a2.building, a2.weyl, a2.halfspaces, a2.weyl.identity_id, flip.matrix
    )
    assert sorted(perm) == list(range(12))
    assert perm != tuple(range(12))
    # the identity symmetry induces the identity permutation
    ident = next(a for a in autos if a.perm == (0, 1))
    assert aut_action_on_halfspaces(
        a2.building, a2.weyl, a2.halfspaces, a2.weyl.identity_id, ident.matrix
    ) == tuple(range(12))


def test_aut_action_rejects_family_breaking_symmetry():
    building = interval_building_set(3)
    model = Permutonestohedron(building)
    autos = diagram_automorphisms(building.rs)
    # swapping the two outer lines preserves interval subsets
    ok = next(a for a in autos if a.perm == (2, 1, 0))
    aut_action_on_halfspaces(
        building, model.weyl, model.halfspaces, 0, ok.matrix
    )
    # swapping adjacent lines maps the interval {1,2} to the gap {0,2}
    bad = next(a for a in autos if a.perm == (1, 0, 2))
    with pytest.raises(BuildingNotInvariant):
        aut_action_on_halfspaces(
            building, model.weyl, model.halfspaces, 0, bad.matrix
        )


def test_every_crossing_facet_factorises(a3_min, a13_min, b3_max):
    # facets in every coset, so the factor maps see non-identity reps
    for model in (a3_min, a13_min, b3_max):
        reps = set()
        for f in model.faces:
            try:
                crossing_facet_parts(model.face_ctx, f)
            except NotCrossingFacet:
                continue
            fact = model.facet_factorisation(f)
            assert fact.verify_vertex_count().passed, f
            report = fact.verify_lattice()
            assert report.passed, report.line()
            reps.add(f.rep)
        assert len(reps) > 1


def _fraction_support_keys(model, face):
    """Exact keys of a face's supporting hyperplanes, each fundamental
    inequality translated by the face's representative in Fractions."""
    building = model.building
    by_mask = {
        simple_index_set(model.rs, hs.flat): hs for hs in model.fundamental_hs
    }
    proper = [f for f in face.nested if f != building.V]
    if face.labels == (building.V,):
        return []
    if not face.labels:
        masks = [(1 << model.rs.rank) - 1]
        masks += [building.fund_index_sets[b] for b in proper]
    else:
        d_mask = 0
        for a in face.labels:
            d_mask |= building.fund_index_sets[a]
        masks = [d_mask]
        masks += [
            building.fund_index_sets[b] | d_mask for b in proper if b not in face.labels
        ]
    fundamental = [by_mask[m] for m in masks]
    return [
        primitive_key(mat_vec(model.weyl.elements[face.rep], hs.normal), hs.offset)
        for hs in fundamental
    ]


def test_support_positions_equal_fraction_translation(
    a2, b2, a3_min, a3_max, b3_min, b3_max, a13_min
):
    for model in (a2, b2, a3_min, a3_max, b3_min, b3_max, a13_min):
        positions = key_positions(model.halfspaces)
        for face in model.faces:
            got = support_halfspaces(model, face, positions)
            keys = [model.halfspaces[i].key() for i in got]
            assert keys == _fraction_support_keys(model, face), face


def _fraction_key_action(building, weyl, halfspaces, w_id, gamma):
    """The symmetry action by root images and Fraction-keyed lookups."""
    rs = building.rs
    root_images = []
    for root in rs.positive_roots:
        img = mat_vec(gamma, root)
        if all(c <= 0 for c in img):
            img = tuple(-c for c in img)
        root_images.append(rs.root_index[img])
    flat_bits = {f.bits for f in building.flats}
    for f in building.flats:
        assert sum(1 << root_images[i] for i in f.indices()) in flat_bits
    matrix = mat_mul(weyl.elements[w_id], gamma)
    key_index = {hs.key(): i for i, hs in enumerate(halfspaces)}
    return tuple(
        key_index[(primitive_vector(mat_vec(matrix, prim)), off)]
        for prim, off in (hs.key() for hs in halfspaces)
    )


def _column_sum_action(building, weyl, halfspaces, w_id, gamma_matrix):
    """The symmetry action by integer column sums: the images of all normals
    made one pass over the listed normals per nonzero entry of w gamma,
    looked up by normal, with each bound's value class compared after."""
    gamma_rows = tuple(tuple(row) for row in gamma_matrix)
    if all(a.matrix != gamma_rows for a in building.preserved_diagram_automorphisms):
        raise BuildingNotInvariant(
            "gamma is not a diagram automorphism preserving the building set"
        )
    if not halfspaces:
        return ()
    matrix = mat_mul(weyl.elements[w_id], gamma_rows)
    prims, bounds = zip(*map(attrgetter("prim", "bound"), halfspaces))
    h = len(prims)
    position = dict(zip(prims, range(h)))
    columns = list(zip(*prims))
    rows = []
    for row in matrix:
        acc = None
        for m, col in zip(row, columns):
            if m == 0:
                continue
            if acc is not None and m == -1:
                acc = map(sub, acc, col)
                continue
            if m != 1:
                col = map(mul, col, repeat(m))
            acc = col if acc is None else map(add, acc, col)
        rows.append(acc)  # w gamma is invertible: no row is zero
    perm = list(map(position.get, zip(*rows)))
    ids = list(map(id, bounds))
    by_object = dict(zip(ids, bounds))
    classes = {}
    class_of = {k: classes.setdefault(v, len(classes)) for k, v in by_object.items()}
    bound_class = list(map(class_of.__getitem__, ids))
    if None in perm or list(map(bound_class.__getitem__, perm)) != bound_class:
        raise VerificationFailed(
            "symmetry image of a defining inequality is not a defining inequality"
        )
    if len(set(perm)) != h:
        raise VerificationFailed("symmetry action on inequalities is not injective")
    return tuple(perm)


def test_aut_action_equals_fraction_key_algorithm(a2, a3_min, a3_max, b3_max):
    a2xb2 = make_model("A2xB2", "minimal")
    for model in (a2, a3_min, a3_max, b3_max, a2xb2):
        for gamma in diagram_automorphisms(model.rs):
            for w in range(model.weyl.order):
                args = (model.building, model.weyl, model.halfspaces, w, gamma.matrix)
                got = aut_action_on_halfspaces(*args)
                assert got == _fraction_key_action(*args)
                assert got == _column_sum_action(*args)


def test_aut_action_equals_column_sums_on_every_d4_pair(d4_min):
    autos = diagram_automorphisms(d4_min.rs)
    pairs = [(w, g) for g in autos for w in range(d4_min.weyl.order)]
    assert len(pairs) == 1152
    for w, gamma in pairs:
        args = (d4_min.building, d4_min.weyl, d4_min.halfspaces, w, gamma.matrix)
        assert aut_action_on_halfspaces(*args) == _column_sum_action(*args)


def test_aut_action_equals_fraction_key_algorithm_on_d4(d4_min):
    weyl = d4_min.weyl
    autos = diagram_automorphisms(d4_min.rs)
    assert len(autos) == 6
    triality = next(a for a in autos if a.perm == (2, 1, 3, 0))
    rng = random.Random(10)
    pairs = [(weyl.identity_id, triality)]
    pairs += [(rng.randrange(weyl.order), g) for g in autos for _ in range(8)]
    # entries of +-2 in w gamma take the multiplying branch of the column sums
    assert any(
        abs(x) == 2
        for w, g in pairs
        for row in mat_mul(weyl.elements[w], g.matrix)
        for x in row
    )
    for w, gamma in pairs:
        args = (d4_min.building, weyl, d4_min.halfspaces, w, gamma.matrix)
        assert aut_action_on_halfspaces(*args) == _fraction_key_action(*args)


def _moved_by_a_reflection(model):
    """(reflection id, identity diagram matrix, an inequality position the
    reflection moves)."""
    weyl = model.weyl
    s0 = weyl.generator_ids[0]
    autos = diagram_automorphisms(model.rs)
    ident = next(a for a in autos if a.perm == tuple(range(model.rs.rank)))
    perm = aut_action_on_halfspaces(
        model.building, weyl, model.halfspaces, s0, ident.matrix
    )
    moved = next(i for i, j in enumerate(perm) if i != j)
    return s0, ident.matrix, moved


def test_aut_action_rejects_a_tampered_offset(a3_min):
    s0, ident, i = _moved_by_a_reflection(a3_min)
    halfspaces = list(a3_min.halfspaces)
    halfspaces[i] = halfspaces[i]._replace(bound=halfspaces[i].bound + 1)
    with pytest.raises(VerificationFailed, match="is not a defining inequality"):
        aut_action_on_halfspaces(a3_min.building, a3_min.weyl, halfspaces, s0, ident)


def test_aut_action_rejects_a_dropped_inequality(a3_min):
    s0, ident, i = _moved_by_a_reflection(a3_min)
    halfspaces = list(a3_min.halfspaces)
    del halfspaces[i]
    with pytest.raises(VerificationFailed, match="is not a defining inequality"):
        aut_action_on_halfspaces(a3_min.building, a3_min.weyl, halfspaces, s0, ident)


def test_aut_action_rejects_an_inequality_listed_twice(a3_min):
    s0, ident, i = _moved_by_a_reflection(a3_min)
    halfspaces = list(a3_min.halfspaces) + [a3_min.halfspaces[i]]
    with pytest.raises(VerificationFailed, match="not injective"):
        aut_action_on_halfspaces(a3_min.building, a3_min.weyl, halfspaces, s0, ident)


def test_aut_action_rejects_a_non_diagram_symmetry(a3_min):
    # a simple reflection permutes the roots up to sign and preserves every
    # W-invariant family, but it is not a diagram automorphism
    weyl = a3_min.weyl
    reflection = weyl.elements[weyl.generator_ids[0]]
    with pytest.raises(BuildingNotInvariant):
        aut_action_on_halfspaces(
            a3_min.building, weyl, a3_min.halfspaces, weyl.identity_id, reflection
        )


def test_aut_action_keeps_a_normal_listed_with_two_bounds_apart(a3_min):
    # (x, p) <= b and (x, p) <= b + 1 are two inequalities, and the identity
    # maps the list onto itself, as the Fraction reference finds; the column
    # sums looked normals up without their bounds and refused it
    first = a3_min.halfspaces[0]
    halfspaces = list(a3_min.halfspaces) + [first._replace(bound=first.bound + 1)]
    (ident,) = [
        a.matrix for a in a3_min.building.preserved_diagram_automorphisms
        if a.perm == (0, 1, 2)
    ]
    args = (a3_min.building, a3_min.weyl, halfspaces, a3_min.weyl.identity_id, ident)
    assert aut_action_on_halfspaces(*args) == tuple(range(len(halfspaces)))
    assert aut_action_on_halfspaces(*args) == _fraction_key_action(*args)
    with pytest.raises(VerificationFailed, match="is not a defining inequality"):
        _column_sum_action(*args)


def test_aut_action_refuses_a_list_mutated_in_place(a3_min):
    s0, ident, i = _moved_by_a_reflection(a3_min)
    halfspaces = list(a3_min.halfspaces)
    args = (a3_min.building, a3_min.weyl, halfspaces, s0, ident)
    assert aut_action_on_halfspaces(*args) == _fraction_key_action(*args)
    halfspaces[i] = halfspaces[i]._replace(bound=halfspaces[i].bound + 1)
    with pytest.raises(VerificationFailed, match="is not a defining inequality"):
        aut_action_on_halfspaces(*args)


def test_aut_action_alternating_lists_give_their_own_permutations(a3_min, a3_max):
    # the two lists list the same normals in the same order and differ in
    # 50 bounds; the reversed list holds A3 maximal's objects in another order
    lists = [
        (a3_min, a3_min.halfspaces),
        (a3_max, a3_max.halfspaces),
        (a3_max, a3_max.halfspaces[::-1]),
    ]
    assert len({len(hs) for _, hs in lists}) == 1
    flip = next(
        a.matrix for a in a3_min.building.preserved_diagram_automorphisms
        if a.perm != (0, 1, 2)
    )
    weyl = a3_min.weyl
    for w in (weyl.identity_id, *weyl.generator_ids, weyl.order - 1):
        for model, halfspaces in lists + lists[::-1]:
            expected = _fraction_key_action(
                model.building, weyl, halfspaces, w, flip
            )
            # on its own building set, and on one building set shared by all
            for building in (model.building, a3_min.building):
                got = aut_action_on_halfspaces(building, weyl, halfspaces, w, flip)
                assert got == expected
                assert all(map(is_, building.action_keys.halfspaces, halfspaces))


def test_aut_action_accepts_the_original_after_a_tampered_copy(a3_min):
    s0, ident, i = _moved_by_a_reflection(a3_min)
    args = (a3_min.building, a3_min.weyl, a3_min.halfspaces, s0, ident)
    expected = aut_action_on_halfspaces(*args)
    tampered = list(a3_min.halfspaces)
    tampered[i] = tampered[i]._replace(bound=tampered[i].bound + 1)
    with pytest.raises(VerificationFailed, match="is not a defining inequality"):
        aut_action_on_halfspaces(a3_min.building, a3_min.weyl, tampered, s0, ident)
    assert aut_action_on_halfspaces(*args) == expected


def test_aut_action_stays_exact_for_larger_row_sums(b3_max):
    weyl = b3_max.weyl
    (ident,) = b3_max.building.preserved_diagram_automorphisms
    w = next(
        w for w in range(weyl.order)
        if any(abs(x) == 2 for row in weyl.elements[w] for x in row)
    )
    for w_id in (weyl.identity_id, w):
        args = (b3_max.building, weyl, b3_max.halfspaces, w_id, ident.matrix)
        assert aut_action_on_halfspaces(*args) == _fraction_key_action(*args)


def _wide_orbit(model):
    """The W-orbit of a primitive normal with coordinates above 2^40, all
    sharing one bound: keys wider than 64 bits."""
    prim = (2**41 + 1, 2**40 + 3)
    assert gcd(*prim) == 1
    bound, ratio, flat = Fraction(7, 3), Fraction(1), model.halfspaces[0].flat
    orbit = {}
    for a, m in enumerate(model.weyl.elements):
        orbit.setdefault(int_mat_vec(m, prim), a)
    assert len(orbit) == model.weyl.order
    return [HalfSpace(p, bound, ratio, "chamber", flat, a) for p, a in orbit.items()]


def test_aut_action_on_keys_wider_than_64_bits():
    model = make_model("A2", "minimal")
    building, weyl = model.building, model.weyl
    halfspaces = _wide_orbit(model)
    (ident,) = [
        a.matrix for a in building.preserved_diagram_automorphisms if a.perm == (0, 1)
    ]
    # the identity first, then elements whose rows sum to 2 and more
    for w in range(weyl.order):
        args = (building, weyl, halfspaces, w, ident)
        got = aut_action_on_halfspaces(*args)
        assert building.action_keys.width > 8
        assert got == _fraction_key_action(*args) == _column_sum_action(*args)
    assert building.action_keys.reach >= 2
    s0 = weyl.generator_ids[0]
    with pytest.raises(VerificationFailed, match="is not a defining inequality"):
        aut_action_on_halfspaces(building, weyl, halfspaces[1:], s0, ident)


def _oracle_or_refusal(args):
    """``_fraction_key_action``'s tuple, or None where it finds no image or
    its images are not a permutation."""
    try:
        perm = _fraction_key_action(*args)
    except KeyError:
        return None
    return perm if sorted(perm) == list(range(len(args[2]))) else None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["a3_min", "b3_max"]), st.data())
def test_aut_action_on_tampered_lists_agrees_with_the_fraction_oracle(
    request, name, data
):
    model = request.getfixturevalue(name)
    halfspaces = list(model.halfspaces)
    h = len(halfspaces)
    i = data.draw(st.integers(0, h - 1))
    tamper = data.draw(
        st.sampled_from(["shift", "perturb", "drop", "duplicate", "swap"])
    )
    if tamper == "shift":
        delta = data.draw(st.sampled_from([-1, 1, Fraction(1, 2)]))
        halfspaces[i] = halfspaces[i]._replace(bound=halfspaces[i].bound + delta)
    elif tamper == "perturb":
        k = data.draw(st.integers(0, model.rs.rank - 1))
        delta = data.draw(st.sampled_from([-2, -1, 1, 2]))
        prim = list(halfspaces[i].prim)
        prim[k] += delta
        # a HalfSpace's normal is primitive
        g = gcd(*prim) or 1
        halfspaces[i] = halfspaces[i]._replace(prim=tuple(x // g for x in prim))
    elif tamper == "drop":
        del halfspaces[i]
    elif tamper == "duplicate":
        halfspaces.insert(data.draw(st.integers(0, h)), halfspaces[i])
    else:
        j = data.draw(st.integers(0, h - 1))
        halfspaces[i], halfspaces[j] = halfspaces[j], halfspaces[i]
    w = data.draw(st.integers(0, model.weyl.order - 1))
    gamma = data.draw(st.sampled_from(model.building.preserved_diagram_automorphisms))
    args = (model.building, model.weyl, halfspaces, w, gamma.matrix)
    try:
        got = aut_action_on_halfspaces(*args)
    except VerificationFailed:
        got = None
    assert got == _oracle_or_refusal(args)
