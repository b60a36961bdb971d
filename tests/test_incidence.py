"""The integer incidence kernel against the Fraction loops it replaced."""

from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import make_model
from pnh.errors import EmptyFacet
from pnh.faces import face_vertices_geometric, support_halfspaces
from pnh.flats import simple_index_set
from pnh.linalg import mat_vec
from pnh.polytope import (
    Incidence,
    Vertex,
    VRep,
    facet_vertex_sets,
    verify_hrep_vrep,
)


def _values(model, normal):
    """Exact (x, normal) at every vertex, in Fractions."""
    gn = mat_vec(model.rs.gram, normal)
    return [sum(a * b for a, b in zip(gn, v.point)) for v in model.vrep.vertices]


def _tight(model, normal, offset):
    return frozenset(i for i, x in enumerate(_values(model, normal)) if x == offset)


def _moved(vrep, factor=Fraction(1001, 1000)):
    """A copy of ``vrep`` with vertex 0 pushed outward by a small rational."""
    v = vrep.vertices[0]
    moved = Vertex(tuple(c * factor for c in v.point), v.sigma_id, v.nested)
    return VRep((moved,) + vrep.vertices[1:], vrep.max_nested, vrep.coincidences)


def test_facet_sets_match_fraction_reference(
    a2, b2, a3_min, a3_max, b3_min, b3_max, a13_min
):
    for model in (a2, b2, a3_min, a3_max, b3_min, b3_max, a13_min):
        expected = [_tight(model, hs.normal, hs.offset) for hs in model.halfspaces]
        assert model.facet_sets == expected


def test_face_vertices_geometric_match_fraction_reference(a2, b2, a3_min, a13_min):
    for model in (a2, b2, a3_min, a13_min):
        index = model.halfspace_index
        for face in model.faces:
            expected = frozenset(range(model.vertex_count))
            for i in support_halfspaces(model.face_ctx, face, index):
                hs = model.halfspaces[i]
                expected &= _tight(model, hs.normal, hs.offset)
            got = face_vertices_geometric(
                model.face_ctx, face, model.vrep, index, model.incidence
            )
            assert got == expected, face
    for face in a2.faces:
        assert face_vertices_geometric(
            a2.face_ctx, face, a2.vrep, a2.halfspace_index
        ) == a2.face_vertex_ids(face)


def test_hrep_vrep_matches_fraction_reference(a3_min):
    model = a3_min
    weyl = model.weyl
    subgroups = model.subgroups_by_flat()
    members = {flat: sub.members() for flat, sub in subgroups.items()}

    def predicted(hs, vert):
        # the tightness pattern, decided by group products
        if hs.kind == "chamber":
            return hs.sigma_id == vert.sigma_id
        if hs.kind == "member":
            parts = (hs.flat,)
        else:
            mask = simple_index_set(model.rs, hs.flat)
            parts = model.building.fund_decomposition(mask)
        rel = weyl.mul(weyl.inv(hs.sigma_id), vert.sigma_id)
        return all(p in vert.nested for p in parts) and rel in members[hs.flat]

    incidence = model.incidence
    passed = True
    for hs in model.halfspaces:
        ints, bound, denominator = incidence.row(hs.normal, hs.offset)
        assert Fraction(bound, denominator) == hs.offset
        for vert, value, point in zip(
            model.vrep.vertices, _values(model, hs.normal), zip(*incidence.columns)
        ):
            assert Fraction(sum(a * b for a, b in zip(ints, point)), denominator) == value
            tight = value == hs.offset
            passed = passed and value <= hs.offset and tight == predicted(hs, vert)
    report = verify_hrep_vrep(
        model.building, model.halfspaces, model.vrep, subgroups
    )
    pairs = model.vertex_count * model.facet_count
    assert (report.passed, report.checked, report.sampled) == (passed, pairs, False)


def test_moved_vertex_fails_with_exact_values(a2):
    factor = Fraction(1001, 1000)
    moved = _moved(a2.vrep, factor)
    report = verify_hrep_vrep(
        a2.building,
        a2.halfspaces,
        moved,
        a2.subgroups_by_flat(),
        raise_on_failure=False,
    )
    assert not report.passed
    on_vertex = [hs for hs, tight in zip(a2.halfspaces, a2.facet_sets) if 0 in tight]
    assert on_vertex
    for hs in on_vertex:
        text = f": {hs.offset * factor} > {hs.offset}"
        assert any(line.endswith(text) for line in report.details), text

    fresh = make_model("A2", "minimal")
    fresh.vrep = moved
    assert not fresh._face_vertex_report().passed


def test_shifted_inequality_raises_empty_facet(a2):
    shifted = list(a2.halfspaces)
    shifted[3] = replace(shifted[3], offset=shifted[3].offset + 1)
    with pytest.raises(EmptyFacet):
        facet_vertex_sets(a2.rs, shifted, a2.vrep)
    # a plane the shared cache has never seen is scanned, not assumed
    with pytest.raises(EmptyFacet):
        facet_vertex_sets(a2.rs, shifted, a2.vrep, a2.incidence)
    fresh = make_model("A2", "minimal")
    fresh.halfspaces = shifted
    with pytest.raises(EmptyFacet):
        fresh.simple()


def test_sampled_incidence_is_seeded_and_skips_the_mask_pass(a3_min, monkeypatch):
    def no_mask_pass(*args):
        raise AssertionError("the sampled check scanned a whole hyperplane")

    rows = []
    row = Incidence.row

    def counted_row(self, normal, offset):
        rows.append(normal)
        return row(self, normal, offset)

    monkeypatch.setattr(Incidence, "_tight", no_mask_pass)
    monkeypatch.setattr(Incidence, "row", counted_row)
    args = (
        a3_min.building,
        a3_min.halfspaces,
        a3_min.vrep,
        a3_min.subgroups_by_flat(),
    )
    first = verify_hrep_vrep(*args, limit=500, seed=7)
    assert (first.sampled, first.seed, first.checked, first.passed) == (
        True,
        7,
        500,
        True,
    )
    assert verify_hrep_vrep(*args, limit=500, seed=7) == first
    # only the inequalities drawn are scaled to integers
    rows.clear()
    assert verify_hrep_vrep(*args, limit=10, seed=7).checked == 10
    assert len(rows) <= 10 < len(a3_min.halfspaces)
