"""The integer incidence kernel against the Fraction loops it replaced."""

from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import make_model
from pnh.errors import EmptyFacet, VerificationFailed
from pnh.faces import face_vertices_geometric, support_halfspaces
from pnh.flats import simple_index_set
from pnh.linalg import mat_vec
from pnh.polytope import Vertex, VRep, facet_vertex_sets, verify_hrep_vrep


def _values(model, normal, vertices=None):
    """Exact (x, normal) at every vertex, in Fractions."""
    gn = mat_vec(model.rs.gram, normal)
    vertices = model.vrep.vertices if vertices is None else vertices
    return [sum(a * b for a, b in zip(gn, v.point)) for v in vertices]


def _tight(model, normal, offset):
    return frozenset(i for i, x in enumerate(_values(model, normal)) if x == offset)


def _predictor(model):
    """The tightness pattern, decided by group products."""
    weyl = model.weyl
    subgroups = model.subgroups_by_flat()
    members = {flat: sub.members() for flat, sub in subgroups.items()}

    def predicted(hs, vert):
        if hs.kind == "chamber":
            return hs.sigma_id == vert.sigma_id
        if hs.kind == "member":
            parts = (hs.flat,)
        else:
            mask = simple_index_set(model.rs, hs.flat)
            parts = model.building.fund_decomposition(mask)
        rel = weyl.mul(weyl.inv(hs.sigma_id), vert.sigma_id)
        return all(p in vert.nested for p in parts) and rel in members[hs.flat]

    return predicted


def _details(model, halfspaces, vertices):
    """The incidence report's lines, pair by pair in (vertex, inequality)
    order, from Fraction values and group products."""
    rs = model.rs
    predicted = _predictor(model)
    values = [_values(model, hs.normal, vertices) for hs in halfspaces]
    lines = []
    for vi, vert in enumerate(vertices):
        for hs, row in zip(halfspaces, values):
            value, expect = row[vi], predicted(hs, vert)
            if value > hs.offset:
                lines.append(
                    f"vertex (sigma={vert.sigma_id}) violates {hs.kind} inequality "
                    f"of {hs.flat.describe(rs)} (sigma={hs.sigma_id}): "
                    f"{value} > {hs.offset}"
                )
            elif (value == hs.offset) != expect:
                lines.append(
                    f"equality mismatch: vertex (sigma={vert.sigma_id}, dims "
                    f"{tuple(f.dim for f in vert.nested)}) vs {hs.kind} of "
                    f"{hs.flat.describe(rs)} (sigma={hs.sigma_id}): tight="
                    f"{value == hs.offset}, predicted={expect}"
                )
    return lines


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
    predicted = _predictor(model)
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
        model.building, model.halfspaces, model.vrep, model.subgroups_by_flat()
    )
    pairs = model.vertex_count * model.facet_count
    assert (report.passed, report.checked, report.sampled) == (passed, pairs, False)


def test_relabelled_inequality_fails_with_equality_mismatch(a3_min):
    # same hyperplanes, so the cached scans are unchanged; a sigma outside
    # its coset moves only the predicted pattern.  Two are relabelled, so the
    # report interleaves their vertices
    model = a3_min
    halfspaces = list(model.halfspaces)
    members = [i for i, h in enumerate(halfspaces) if h.kind == "member"]
    for i in (members[0], members[-1]):
        hs = halfspaces[i]
        sub = model.subgroups_by_flat()[hs.flat]
        other = next(
            x
            for x in range(model.weyl.order)
            if sub.coset[x] != sub.coset[hs.sigma_id]
        )
        halfspaces[i] = replace(hs, sigma_id=other)
    report = verify_hrep_vrep(
        model.building,
        halfspaces,
        model.vrep,
        model.subgroups_by_flat(),
        raise_on_failure=False,
        incidence=model.incidence,
    )
    assert not report.passed
    assert report.checked == model.vertex_count * model.facet_count
    assert all(line.startswith("equality mismatch: ") for line in report.details)
    assert list(report.details) == _details(model, halfspaces, model.vrep.vertices)
    assert any("tight=True, predicted=False" in line for line in report.details)
    assert any("tight=False, predicted=True" in line for line in report.details)


def test_moved_vertex_fails_with_exact_values(a2):
    # the small push leaves vertex 0's own planes only; doubling also crosses
    # planes it was never tight on, which only the violation flag catches
    for factor in (Fraction(1001, 1000), Fraction(2)):
        moved = _moved(a2.vrep, factor)
        report = verify_hrep_vrep(
            a2.building,
            a2.halfspaces,
            moved,
            a2.subgroups_by_flat(),
            raise_on_failure=False,
        )
        assert not report.passed
        on_vertex = [
            hs for hs, tight in zip(a2.halfspaces, a2.facet_sets) if 0 in tight
        ]
        assert on_vertex
        for hs in on_vertex:
            text = f": {hs.offset * factor} > {hs.offset}"
            assert any(line.endswith(text) for line in report.details), text
        assert list(report.details) == _details(a2, a2.halfspaces, moved.vertices)
    assert len(report.details) > len(on_vertex)

    fresh = make_model("A2", "minimal")
    fresh.vrep = _moved(a2.vrep)
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


def test_shifted_inequality_fails_the_incidence_report(a2):
    # an empty tight set is a reported mismatch here, not an EmptyFacet
    shifted = list(a2.halfspaces)
    shifted[3] = replace(shifted[3], offset=shifted[3].offset + 1)
    args = (a2.building, shifted, a2.vrep, a2.subgroups_by_flat())
    report = verify_hrep_vrep(*args, raise_on_failure=False, incidence=a2.incidence)
    assert not report.passed
    assert report.details
    assert list(report.details) == _details(a2, shifted, a2.vrep.vertices)
    with pytest.raises(VerificationFailed) as raised:
        verify_hrep_vrep(*args)
    assert raised.value.report == report
