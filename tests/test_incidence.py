"""The integer incidence kernel against the Fraction loops it replaced, and
the materialised oracle (``verify_hrep_vrep`` and ``materialised.py``),
every inequality over every vertex, against the chamber certificate on
eight types and against the Fraction per-pair reference on broken copies."""

from copy import copy
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import materialised
from conftest import make_model, simple_reflection_matrix
from materialised import (
    face_vertices_geometric,
    key_positions,
    member_ids,
    support_halfspaces,
)
from pnh.errors import EmptyFacet, VerificationFailed
from pnh.flats import simple_index_set
from pnh.linalg import identity, int_mat_vec, mat_mul, mat_vec
from pnh.polytope import all_vertices, facet_vertex_sets, verify_hrep_vrep
from pnh.weyl import standard_parabolic


def _values(model, normal, vrep=None):
    """Exact (x, normal) at every vertex, in Fractions."""
    gn = mat_vec(model.rs.gram, normal)
    vrep = model.vrep if vrep is None else vrep
    return [
        sum(a * Fraction(c, vrep.scale) for a, c in zip(gn, point))
        for point in vrep.vertices
    ]


def _tight(model, normal, offset):
    return frozenset(i for i, x in enumerate(_values(model, normal)) if x == offset)


def _predictor(model):
    """The tightness pattern, decided by group products."""
    weyl = model.weyl
    members = {
        hs.flat: frozenset(
            member_ids(standard_parabolic(weyl, simple_index_set(model.rs, hs.flat)))
        )
        for hs in model.fundamental_hs
        if hs.kind != "chamber"
    }

    def predicted(hs, sigma, nested):
        if hs.kind == "chamber":
            return hs.sigma_id == sigma
        if hs.kind == "member":
            parts = (hs.flat,)
        else:
            mask = simple_index_set(model.rs, hs.flat)
            parts = model.building.fund_decomposition(mask)
        rel = weyl.mul(weyl.inv(hs.sigma_id), sigma)
        return all(p in nested for p in parts) and rel in members[hs.flat]

    return predicted


def _details(model, halfspaces, vrep, ids=None):
    """The incidence report's lines, pair by pair in (vertex, inequality)
    order, from Fraction values and group products, over the vertex ids
    ``ids`` (every vertex by default); vertex i is labelled
    (i // m, max_nested[i % m])."""
    rs = model.rs
    predicted = _predictor(model)
    ids = range(len(vrep.vertices)) if ids is None else ids
    chosen = vrep._replace(vertices=[vrep.vertices[vi] for vi in ids])
    values = [_values(model, hs.normal, chosen) for hs in halfspaces]
    m = len(vrep.max_nested)
    lines = []
    for k, vi in enumerate(ids):
        sigma, nested = vi // m, vrep.max_nested[vi % m]
        for hs, row in zip(halfspaces, values):
            value, expect = row[k], predicted(hs, sigma, nested)
            if value > hs.offset:
                lines.append(
                    f"vertex (sigma={sigma}) violates {hs.kind} inequality "
                    f"of {hs.flat.describe(rs)} (sigma={hs.sigma_id}): "
                    f"{value} > {hs.offset}"
                )
            elif (value == hs.offset) != expect:
                lines.append(
                    f"equality mismatch: vertex (sigma={sigma}, dims "
                    f"{tuple(f.dim for f in nested)}) vs {hs.kind} of "
                    f"{hs.flat.describe(rs)} (sigma={hs.sigma_id}): tight="
                    f"{value == hs.offset}, predicted={expect}"
                )
    return lines


def _moved(vrep, factor=Fraction(1001, 1000), index=0):
    """A copy of ``vrep`` with vertex ``index`` pushed outward by a rational:
    every point is scaled by the factor's denominator, that one by its
    numerator, and the common denominator by the factor's denominator."""
    vertices = [tuple(c * factor.denominator for c in v) for v in vrep.vertices]
    vertices[index] = tuple(c * factor.numerator for c in vrep.vertices[index])
    return vrep._replace(
        vertices=tuple(vertices), scale=vrep.scale * factor.denominator
    )


def _hrep(model):
    report = verify_hrep_vrep(
        model.building,
        model.halfspaces,
        model.vrep,
        raise_on_failure=False,
        incidence=model.incidence,
    )
    return report.passed, report.checked, list(report.details)


def _faces(model):
    report = materialised.face_vertex_report(model)
    return report.passed, report.checked, report.details


def test_base_decisions_match_the_all_pairs_path(
    a2, b2, a3_min, a3_max, b3_min, b3_max, a13_min
):
    # the chamber certificate's decisions on the base vertices are those of
    # the oracle over every vertex, inequality and face
    a2xb2 = make_model("A2xB2", "minimal")
    for model in (a2, b2, a3_min, a3_max, b3_min, b3_max, a13_min, a2xb2):
        hrep = _hrep(model)
        assert hrep == (True, len(model.vrep.vertices) * len(model.halfspaces), [])
        report = model.chamber.incidence_report()
        assert (report.passed, report.checked, list(report.details)) == hrep
        assert materialised.simple(model) == model.simple()
        assert _faces(model) == model._face_vertex_report()[1:]
        assert _faces(model)[0]


def _outcome(check, model):
    """The check's result, or the message of the EmptyFacet it raised."""
    try:
        return check(model)
    except EmptyFacet as exc:
        return str(exc)


def _check_mutant(model):
    """The oracle fails a broken copy, with the Fraction reference's lines."""
    hrep = _hrep(model)
    assert hrep[2] == _details(model, model.halfspaces, model.vrep)
    assert not hrep[0]
    faces = _outcome(_faces, model)
    assert isinstance(faces, str) or not faces[0]


def test_moved_non_base_vertex_fails_the_oracle():
    model = make_model("A3", "minimal")
    vi = len(model.vrep.max_nested) + 3
    model.vrep = _moved(model.vrep, index=vi)
    _check_mutant(model)


def test_swapped_vertex_points_fail_the_oracle():
    # two vertices of one nested set swap their points: every point is
    # still listed once, but neither is M(sigma) v_S at its position
    model = make_model("A3", "minimal")
    m = len(model.vrep.max_nested)
    i, j = m + 2, 5 * m + 2
    vertices = list(model.vrep.vertices)
    vertices[i], vertices[j] = vertices[j], vertices[i]
    model.vrep = model.vrep._replace(vertices=tuple(vertices))
    _check_mutant(model)


def test_vertices_walked_with_a_non_isometric_generator_fail_the_oracle():
    # the walk reads s_0 through row 0 of the Cartan matrix, here broken to
    # an involution that moves alpha_2 to alpha_0 + alpha_2, and reads its
    # columns from the matrices, here the products of the broken generators
    # along each element's steps; so each vertex is still M(sigma) v_S, but
    # sigma no longer acts by an isometry
    model = make_model("A3", "minimal")
    broken = copy(model.weyl)
    broken.rs = copy(model.rs)
    broken.rs.cartan = ((2, -1, -1),) + model.rs.cartan[1:]
    gens = [simple_reflection_matrix(broken.rs.cartan, g) for g in range(3)]
    elements = [identity(3)]
    for tau, g in zip(broken.parent[1:], broken.letter[1:]):
        elements.append(mat_mul(elements[tau], gens[g]))
    broken.elements = tuple(elements)
    vrep = all_vertices(model.chamber_vertices, broken)
    m = len(vrep.max_nested)
    base = vrep.vertices[:m]
    assert all(
        point == int_mat_vec(broken.elements[i // m], base[i % m])
        for i, point in enumerate(vrep.vertices)
    )
    model.vrep = vrep
    _check_mutant(model)


def test_inequality_normal_from_another_coset_fails_the_oracle():
    # a member inequality takes the normal of another coset's image of the
    # same fundamental inequality, keeping its own sigma label
    model = make_model("A3", "minimal")
    halfspaces = list(model.halfspaces)
    member = next(h.flat for h in halfspaces if h.kind == "member")
    orbit = [i for i, h in enumerate(halfspaces) if h.flat == member]
    p, q = orbit[1], orbit[2]
    halfspaces[p] = halfspaces[p]._replace(prim=halfspaces[q].prim)
    model.halfspaces = halfspaces
    _check_mutant(model)


def test_facet_sets_match_fraction_reference(
    a2, b2, a3_min, a3_max, b3_min, b3_max, a13_min
):
    for model in (a2, b2, a3_min, a3_max, b3_min, b3_max, a13_min):
        expected = [_tight(model, hs.normal, hs.offset) for hs in model.halfspaces]
        assert model.facet_sets == expected


def test_face_vertices_geometric_match_fraction_reference(a2, b2, a3_min, a13_min):
    for model in (a2, b2, a3_min, a13_min):
        positions = key_positions(model.halfspaces)
        for face in model.faces:
            expected = frozenset(range(model.vertex_count))
            for i in support_halfspaces(model, face, positions):
                hs = model.halfspaces[i]
                expected &= _tight(model, hs.normal, hs.offset)
            got = face_vertices_geometric(model, face, model.incidence, positions)
            assert got == expected, face
    for face in a2.faces:
        assert face_vertices_geometric(a2, face) == a2.face_vertex_ids(face)


def test_hrep_vrep_matches_fraction_reference(a3_min):
    model = a3_min
    predicted = _predictor(model)
    incidence = model.incidence
    vrep = model.vrep
    m = len(vrep.max_nested)
    passed = True
    for hs in model.halfspaces:
        ints, bound, denominator = incidence.row(hs)
        assert Fraction(bound, denominator) == hs.bound
        for vi, (value, point) in enumerate(
            zip(_values(model, hs.normal), zip(*incidence.columns))
        ):
            dot = sum(a * b for a, b in zip(ints, point))
            assert hs.ratio * Fraction(dot, denominator) == value
            tight = value == hs.offset
            expect = predicted(hs, vi // m, vrep.max_nested[vi % m])
            passed = passed and value <= hs.offset and tight == expect
    report = verify_hrep_vrep(model.building, model.halfspaces, model.vrep)
    pairs = model.vertex_count * model.facet_count
    assert (report.passed, report.checked) == (passed, pairs)


def test_relabelled_inequality_fails_with_equality_mismatch(a3_min):
    # same hyperplanes, so the cached scans are unchanged; a sigma outside
    # its coset moves only the predicted pattern.  Two are relabelled, so the
    # report interleaves their vertices
    model = a3_min
    halfspaces = list(model.halfspaces)
    members = [i for i, h in enumerate(halfspaces) if h.kind == "member"]
    for i in (members[0], members[-1]):
        hs = halfspaces[i]
        sub = standard_parabolic(model.weyl, simple_index_set(model.rs, hs.flat))
        other = next(
            x
            for x in range(model.weyl.order)
            if sub.coset[x] != sub.coset[hs.sigma_id]
        )
        halfspaces[i] = hs._replace(sigma_id=other)
    report = verify_hrep_vrep(
        model.building,
        halfspaces,
        model.vrep,
        raise_on_failure=False,
        incidence=model.incidence,
    )
    assert not report.passed
    assert report.checked == model.vertex_count * model.facet_count
    assert all(line.startswith("equality mismatch: ") for line in report.details)
    assert list(report.details) == _details(model, halfspaces, model.vrep)
    assert any("tight=True, predicted=False" in line for line in report.details)
    assert any("tight=False, predicted=True" in line for line in report.details)


def test_moved_vertex_fails_with_exact_values(a2):
    # the small push leaves vertex 0's own planes only; doubling also crosses
    # planes it was never tight on, which only the violation flag catches
    for factor in (Fraction(1001, 1000), Fraction(2)):
        moved = _moved(a2.vrep, factor)
        report = verify_hrep_vrep(
            a2.building, a2.halfspaces, moved, raise_on_failure=False
        )
        assert not report.passed
        on_vertex = [
            hs for hs, tight in zip(a2.halfspaces, a2.facet_sets) if 0 in tight
        ]
        assert on_vertex
        for hs in on_vertex:
            text = f": {hs.offset * factor} > {hs.offset}"
            assert any(line.endswith(text) for line in report.details), text
        assert list(report.details) == _details(a2, a2.halfspaces, moved)
    assert len(report.details) > len(on_vertex)

    fresh = make_model("A2", "minimal")
    fresh.vrep = _moved(a2.vrep)
    assert not materialised.face_vertex_report(fresh).passed


def test_shifted_inequality_raises_empty_facet(a2):
    shifted = list(a2.halfspaces)
    shifted[3] = shifted[3]._replace(bound=shifted[3].bound + 1)
    with pytest.raises(EmptyFacet):
        facet_vertex_sets(a2.rs, shifted, a2.vrep)
    # a plane the shared cache has never seen is scanned, not assumed
    with pytest.raises(EmptyFacet):
        facet_vertex_sets(a2.rs, shifted, a2.vrep, a2.incidence)
    fresh = make_model("A2", "minimal")
    fresh.halfspaces = shifted
    with pytest.raises(EmptyFacet):
        materialised.simple(fresh)


def test_shifted_inequality_fails_the_incidence_report(a2):
    # an empty tight set is a reported mismatch here, not an EmptyFacet
    shifted = list(a2.halfspaces)
    shifted[3] = shifted[3]._replace(bound=shifted[3].bound + 1)
    args = (a2.building, shifted, a2.vrep)
    report = verify_hrep_vrep(*args, raise_on_failure=False, incidence=a2.incidence)
    assert not report.passed
    assert report.details
    assert list(report.details) == _details(a2, shifted, a2.vrep)
    with pytest.raises(VerificationFailed) as raised:
        verify_hrep_vrep(*args)
    assert raised.value.report == report


@cache
def _reference_passes(model) -> bool:
    return not _details(model, model.halfspaces, model.vrep)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["a2", "a3_min", "b3_max"]), st.data())
def test_one_moved_vertex_or_shifted_bound_fails_with_the_reference_lines(
    request, name, data
):
    # any vertex, base or not, and any inequality: no orbit fact is assumed.
    # The reference passes the unchanged model and a change to one vertex
    # or one inequality changes only its own pairs, so the reference's lines
    # are those of that vertex or inequality
    model = request.getfixturevalue(name)
    halfspaces, vrep, incidence = model.halfspaces, model.vrep, model.incidence
    pairs = len(vrep.vertices) * len(halfspaces)
    assert _hrep(model) == (True, pairs, [])
    assert _reference_passes(model)
    rational = st.fractions(-30, 30, max_denominator=30).filter(bool)
    if data.draw(st.booleans(), label="move"):
        vi = data.draw(st.integers(0, len(vrep.vertices) - 1), label="vertex")
        factor = data.draw(rational.filter(lambda f: f != 1), label="factor")
        vrep, incidence = _moved(vrep, factor, vi), None
        expected = _details(model, halfspaces, vrep, [vi])
    else:
        hi = data.draw(st.integers(0, len(halfspaces) - 1), label="inequality")
        shift = data.draw(rational, label="shift")
        halfspaces = list(halfspaces)
        halfspaces[hi] = halfspaces[hi]._replace(bound=halfspaces[hi].bound + shift)
        expected = _details(model, halfspaces[hi : hi + 1], vrep)
    report = verify_hrep_vrep(
        model.building,
        halfspaces,
        vrep,
        raise_on_failure=False,
        incidence=incidence,
    )
    assert not report.passed
    assert report.checked == pairs
    assert list(report.details) == expected
