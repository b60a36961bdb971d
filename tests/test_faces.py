import random
from dataclasses import replace

import pytest

from pnh.errors import BuildingNotInvariant, NotCrossingFacet, VerificationFailed
from pnh.faces import (
    aut_action_on_halfspaces,
    covering_edges,
    crossing_facet_parts,
    enumerate_faces,
    support_halfspaces,
)
from pnh.flats import interval_building_set, simple_index_set
from pnh.linalg import mat_mul, mat_vec, primitive_vector
from pnh.model import Permutonestohedron
from pnh.roots import diagram_automorphisms

from conftest import make_model, primitive_key


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
    assert support_halfspaces(a2.face_ctx, top, a2.halfspace_index) == []


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
        primitive_key(model.weyl.act_vec(face.rep, hs.normal), hs.offset)
        for hs in fundamental
    ]


def test_support_positions_equal_fraction_translation(
    a2, b2, a3_min, a3_max, b3_min, b3_max, a13_min
):
    for model in (a2, b2, a3_min, a3_max, b3_min, b3_max, a13_min):
        for face in model.faces:
            got = support_halfspaces(model.face_ctx, face, model.halfspace_index)
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


def test_aut_action_equals_fraction_key_algorithm(a2, a3_min, a3_max, b3_max):
    a2xb2 = make_model("A2xB2", "minimal")
    for model in (a2, a3_min, a3_max, b3_max, a2xb2):
        for gamma in diagram_automorphisms(model.rs):
            for w in range(model.weyl.order):
                args = (model.building, model.weyl, model.halfspaces, w, gamma.matrix)
                assert aut_action_on_halfspaces(*args) == _fraction_key_action(*args)


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
    halfspaces[i] = replace(halfspaces[i], bound=halfspaces[i].bound + 1)
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
