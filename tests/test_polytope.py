from collections import Counter
from fractions import Fraction

import pytest

from conftest import make_model
from pnh.errors import NotInChamber, VerificationFailed
from pnh.flats import build_minimal
from pnh.halfspaces import SuitableList, suitable_list
from pnh.linalg import mat_vec
from pnh.nested import enumerate_maximal_nested_sets
from pnh.polytope import all_vertices, chamber_vertices, euler_check, vertex
from pnh.roots import build_root_system
from pnh.weyl import enumerate_group


def test_chamber_vertex_a2():
    rs = build_root_system("A2")
    b = build_minimal(rs)
    s = suitable_list(b)
    nested = enumerate_maximal_nested_sets(b)
    points = {vertex(rs, n, s, building=b) for n in nested}
    assert (Fraction(7, 15), Fraction(8, 15)) in points
    assert (Fraction(8, 15), Fraction(7, 15)) in points


def test_vertex_rejects_chamber_escape():
    rs = build_root_system("A2")
    b = build_minimal(rs)
    # far too large a first entry pushes the solution through a wall
    bad = SuitableList(Fraction(1), (Fraction(9, 10), Fraction(1)))
    nested = enumerate_maximal_nested_sets(b)
    with pytest.raises(NotInChamber):
        for n in nested:
            vertex(rs, n, bad, building=b)


def test_vertex_counts(a2, b2, a3_min, a3_max, b3_min, b3_max, a13_min):
    assert a2.vertex_count == 12
    assert b2.vertex_count == 16
    assert a3_min.vertex_count == 120
    assert a3_max.vertex_count == 144
    assert b3_min.vertex_count == 240
    assert b3_max.vertex_count == 288
    assert a13_min.vertex_count == 24


@pytest.mark.parametrize(
    "name", ["a2", "b2", "a3_min", "a3_max", "b3_min", "b3_max", "a13_min"]
)
def test_integer_orbit_equals_the_fraction_action(name, request):
    model = request.getfixturevalue(name)
    rs, weyl = model.rs, model.weyl
    nested = enumerate_maximal_nested_sets(model.building)
    points = [vertex(rs, s, model.suitable, building=model.building) for s in nested]
    expected = [
        (mat_vec(weyl.elements[sigma], p), sigma, s)
        for sigma in range(weyl.order)
        for s, p in zip(nested, points)
    ]
    vrep = model.vrep
    m = len(vrep.max_nested)
    got = [
        (tuple(Fraction(c, vrep.scale) for c in point), i // m, vrep.max_nested[i % m])
        for i, point in enumerate(vrep.vertices)
    ]
    assert got == expected


def test_vertices_are_distinct_group_orbit(a3_min):
    vr = a3_min.vrep
    assert not vr.coincidences
    assert len(set(vr.vertices)) == len(vr.vertices)
    assert len(vr.vertices) == a3_min.weyl.order * len(vr.max_nested)


def test_f_vectors(a2, b2, a3_min, a3_max, b3_min, b3_max, a13_min):
    assert a2.f_vector == (12, 12, 1)
    assert b2.f_vector == (16, 16, 1)
    assert a3_min.f_vector == (120, 192, 74, 1)
    assert a3_max.f_vector == (144, 216, 74, 1)
    assert b3_min.f_vector == (240, 384, 146, 1)
    assert b3_max.f_vector == (288, 432, 146, 1)
    assert a13_min.f_vector == (24, 48, 26, 1)
    for m in (a2, b2, a3_min, a3_max, b3_min, b3_max, a13_min):
        assert euler_check(m.f_vector)


def test_facet_polygon_sizes(a3_min, a3_max, a13_min):
    sizes = Counter(len(s) for s in a3_min.facet_sets)
    assert sizes == {5: 24, 4: 42, 12: 8}
    sizes = Counter(len(s) for s in a3_max.facet_sets)
    assert sizes == {6: 24, 4: 36, 12: 8, 8: 6}
    sizes = Counter(len(s) for s in a13_min.facet_sets)
    assert sizes == {3: 8, 4: 18}


def test_full_battery_passes_fast(a2, b3_min):
    for model in (a2, b3_min):
        reports = model.verify(level="fast")
        assert all(r.passed for r in reports), [r.line() for r in reports]


def test_full_battery_passes_full():
    # fresh models: the session fixtures may already hold their face lists
    for model in (make_model("A3", "minimal"), make_model("A3", "maximal")):
        reports = model.verify(level="full")
        assert all(r.passed for r in reports), [r.line() for r in reports]
        incidence = next(r for r in reports if "incidence" in r.name)
        assert incidence.checked == model.vertex_count * model.facet_count
        # one face per type is checked, and the face list is never made
        faces = next(r for r in reports if r.name.startswith("face vertices"))
        assert faces.checked == sum(model.f_vector)
        assert "faces" not in model.__dict__


def test_verify_rejects_an_unknown_level(a2):
    with pytest.raises(ValueError, match="'fast' or 'full', not 'ful'"):
        a2.verify("ful")


def test_coinciding_vertices_reported():
    rs = build_root_system("A2")
    b = build_minimal(rs)
    w = enumerate_group(rs)
    # eps = 1/4 parks both chamber vertices on the bisector point (1/2, 1/2):
    # inside the open chamber, so only the coincidence detector can object
    bad = SuitableList(Fraction(1), (Fraction(1, 4), Fraction(1)))
    base = chamber_vertices(b, bad, enumerate_maximal_nested_sets(b))
    assert base.coincidences
    with pytest.raises(VerificationFailed):
        all_vertices(base, w)
