"""The certificate on the dominant chamber (``pnh.chamber``) against the
materialised path it replaced in ``verify``: ``verify_hrep_vrep`` over the
V-rep and H-rep, and the simplicity test and face report kept in
``materialised.py``; the OFF export's facet sets against the all-pairs
``facet_vertex_sets``; the nestohedron certificate against the family scan
it replaced and a brute-force vertex enumeration, on the matrix, mutants
and random eps lists; tampering with each input of the certificate fails
it.  The epsilon lemma's pruned search lists what the unpruned one did.
Each fundamental inequality has one image per coset of its flat's W_J, and
a run lists the nested sets once."""

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import materialised
import pnh.cli
import pnh.faces
import pnh.model
import pnh.nested
from conftest import make_model
from pnh.chamber import Chamber, dominant, face_vertices_geometric
from pnh.errors import EmptyFacet, PnhError, SingularSystem, VerificationFailed
from pnh.exports import building_from_json, off_text
from pnh.faces import FacePair, face_types
from pnh.flats import (
    all_flats,
    build_minimal,
    interval_building_set,
    is_irreducible,
    simple_index_set,
)
from pnh.halfspaces import (
    SuitableList,
    _decompositions,
    check_increasing,
    orthogonal_flats,
    ratio_table,
)
from pnh.linalg import int_mat_vec, mat_vec
from pnh.model import Permutonestohedron, build_model
from pnh.nested import enumerate_maximal_nested_sets
from pnh.polytope import (
    _chamber_rhs,
    _chamber_solve,
    chamber_vertices,
    facet_vertex_sets,
    nestohedron_check,
    verify_hrep_vrep,
)
from pnh.roots import build_root_system
from pnh.weyl import enumerate_group, standard_parabolic

MATRIX = [
    ("A2", "minimal"),
    ("B2", "minimal"),
    ("A3", "minimal"),
    ("A3", "maximal"),
    ("B3", "minimal"),
    ("B3", "maximal"),
    ("C3", "minimal"),
    ("C3", "maximal"),
    ("D4", "minimal"),
    ("D4", "maximal"),
    ("B4", "minimal"),
    ("A2xB2", "minimal"),
    ("A1^4", "interval"),
    ("B3", "file"),
]


def _file_building(rs):
    """B3 minimal and the reducible planes, loaded as a ``file:`` family is:
    neither of the two standard families."""
    flats = set(build_minimal(rs).flats)
    flats |= {f for f in all_flats(rs) if f.dim == 2 and not is_irreducible(rs, f)}
    doc = {
        "roots": [list(r) for r in rs.positive_roots],
        "flats": [list(f.indices()) for f in sorted(flats)],
    }
    return building_from_json(rs, doc)


@cache
def _model(spec: str, kind: str) -> Permutonestohedron:
    if kind == "interval":
        building = interval_building_set(4)
    elif kind == "file":
        building = _file_building(build_root_system(spec))
    else:
        return make_model(spec, kind)
    return Permutonestohedron(building, weyl=enumerate_group(building.rs))


def _failed(reports) -> list[str]:
    return [r.name for r in reports if not r.passed]


@pytest.mark.parametrize("spec, kind", MATRIX)
def test_certificate_equals_the_materialised_path(spec, kind):
    model = _model(spec, kind)
    chamber = model.chamber
    pairs = model.vertex_count * model.facet_count
    hrep = verify_hrep_vrep(
        model.building,
        model.halfspaces,
        model.vrep,
        raise_on_failure=False,
        incidence=model.incidence,
    )
    report = chamber.incidence_report()
    assert (report.passed, report.checked, report.details) == (True, pairs, ())
    assert (hrep.passed, hrep.checked, hrep.details) == (True, pairs, ())
    assert model._face_vertex_report() == materialised.face_vertex_report(model)
    assert model._face_vertex_report().passed
    assert model.simple() == materialised.simple(model)
    assert chamber.vertex_count == len(model.vrep.vertices)
    assert chamber.facet_count == len(model.halfspaces)
    # the base vertices are the V-rep's first m, over its scale
    m = len(chamber.vertices)
    assert chamber.vertices == model.vrep.vertices[:m]
    assert chamber.base.scale == model.vrep.scale
    # per fundamental inequality: dominant, its base tight mask that of its
    # identity image in the H-rep, found by key, and its stabiliser the W_J
    # of its flat (J empty for the chamber inequality)
    positions = materialised.key_positions(model.halfspaces)
    for h, hs in enumerate(model.fundamental_hs):
        image = model.halfspaces[positions[hs.key()]]
        assert (image.kind, image.flat, image.sigma_id) == (hs.kind, hs.flat, 0)
        assert chamber.plus[h] == hs.prim
        assert chamber.tight[h] == chamber.top[h]
        assert chamber.tight[h] == model.incidence.scan(image)[0] & chamber.kernel.full
        j = 0 if hs.kind == "chamber" else simple_index_set(model.rs, hs.flat)
        assert chamber.stabiliser[h] == j
        assert not chamber.violated[h]


@pytest.mark.parametrize("spec, kind", MATRIX)
def test_each_inequality_has_one_image_per_coset_of_its_stabiliser(spec, kind):
    # the sigma_ids of a fundamental inequality's images are the least ids
    # of the left cosets of W_J, J its flat's simple indices (none for the
    # chamber inequality), one image per coset, each that sigma's image
    model = _model(spec, kind)
    weyl = model.weyl
    orbits = {}
    for hs in model.halfspaces:
        orbits.setdefault((hs.kind, hs.flat), []).append(hs)
    assert len(orbits) == len(model.fundamental_hs)
    for fund in model.fundamental_hs:
        j = 0 if fund.kind == "chamber" else simple_index_set(model.rs, fund.flat)
        least = [ids[0] for ids in standard_parabolic(weyl, j).cosets]
        orbit = orbits[fund.kind, fund.flat]
        assert sorted(hs.sigma_id for hs in orbit) == sorted(least)
        for hs in orbit:
            assert hs.prim == int_mat_vec(weyl.elements[hs.sigma_id], fund.prim)
            assert (hs.bound, hs.ratio) == (fund.bound, fund.ratio)


@pytest.mark.parametrize(
    "spec, kind", MATRIX + [(s, k) for s in ("A5", "A6") for k in ("minimal", "maximal")]
)
def test_decompositions_equal_the_unpruned_search(spec, kind):
    # the same families in the same order, for every fundamental member
    # (A6 maximal has 10,064 of them)
    building = _model(spec, kind).building
    for mask in building.fund_index_sets.values():
        assert _decompositions(building, mask) == materialised.decompositions(
            building, mask
        )


@pytest.mark.parametrize("spec, kind", MATRIX[:8] + MATRIX[11:])
def test_face_types_equal_the_materialised_faces(spec, kind):
    # the vertices on the supporting hyperplanes of each type's face, over
    # all of V, are the sigma v_T with sigma in W_J and T in the base ids
    model = _model(spec, kind)
    ctx, chamber, m = model.face_ctx, model.chamber, len(model.chamber.vertices)
    positions = materialised.key_positions(model.halfspaces)
    for s, labels, _ in face_types(model.nested_sets, model.rs.rank):
        face = FacePair(ctx.label_subgroup(labels).reps[0], s, labels)
        j, tight = face_vertices_geometric(model.building, face, chamber)
        expected = materialised.face_vertices_geometric(
            model, face, model.incidence, positions
        )
        members = materialised.member_ids(standard_parabolic(model.weyl, j))
        assert expected == {sigma * m + k for sigma in members for k in tight}
        assert expected == model.face_vertex_ids(face)


@pytest.mark.parametrize(
    "spec, kind", [("A3", "minimal"), ("B3", "maximal"), ("A2xB2", "minimal")]
)
def test_verify_makes_neither_the_v_rep_nor_the_h_rep(spec, kind):
    model = make_model(spec, kind)
    for level in ("fast", "full"):
        assert not _failed(model.verify(level))
        made = {"vrep", "halfspaces", "incidence", "faces"} & set(model.__dict__)
        assert not made, level


@pytest.mark.parametrize("spec, kind", MATRIX)
def test_facet_sets_equal_the_scan(spec, kind):
    # the scans were cached by the certificate test's verify_hrep_vrep
    model = _model(spec, kind)
    scan = facet_vertex_sets(model.rs, model.halfspaces, model.vrep, model.incidence)
    assert model.facet_sets == scan


@pytest.mark.parametrize("spec, kind", [("A3", "minimal"), ("B3", "maximal")])
def test_off_export_builds_no_all_vertex_incidence(spec, kind):
    model = make_model(spec, kind)
    assert off_text(model).startswith("OFF\n")
    assert "incidence" not in vars(model)


def test_the_base_vertices_are_solved_once_per_model(monkeypatch):
    solve = pnh.model.chamber_vertices
    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(pnh.model, "chamber_vertices", counted)
    for run in (lambda model: model.verify("full"), off_text):
        calls.clear()
        run(make_model("A3", "minimal"))
        assert len(calls) == 1


def test_the_nested_sets_are_listed_once_per_run(monkeypatch, tmp_path):
    listing = pnh.nested.enumerate_nested_sets
    calls = []

    def counted(building, *args):
        calls.append(building)
        return listing(building, *args)

    # replaced under every name a caller looks it up by
    for module in (pnh.nested, pnh.faces):
        monkeypatch.setattr(module, "enumerate_nested_sets", counted)
    out = str(tmp_path / "out")
    for run in (
        lambda: make_model("A3", "minimal").verify("full"),
        lambda: pnh.cli.run(["build", "--type", "A3", "--output", out]),
    ):
        calls.clear()
        run()
        assert len(calls) == 1


def _verdicts(building, suitable) -> tuple:
    """The family scan's, the certificate's and the vertex enumeration's
    verdicts: each a pass flag, or the type of the PnhError it raised."""
    out = []
    try:
        out.append(materialised.family_nestohedron_check(building, suitable).passed)
    except PnhError as exc:
        out.append(type(exc))
    try:
        base = chamber_vertices(
            building, suitable, enumerate_maximal_nested_sets(building)
        )
        out.append(nestohedron_check(building, suitable, base).passed)
        out.append(materialised.vertex_enumeration(building, suitable, base))
    except PnhError as exc:
        out += [type(exc)] * 2
    return tuple(out)


@pytest.mark.parametrize("spec, kind", MATRIX)
def test_nestohedron_certificate_equals_its_oracles(spec, kind):
    model = _model(spec, kind)
    base = model.chamber_vertices
    assert _verdicts(model.building, model.suitable) == (True, True, True)
    # V0 (k - 1) comparisons and the ridges: n - 1 per vertex, each twice
    n, proper = model.rs.rank, len(model.building.fund) - 1
    m = len(base.vertices)
    report = nestohedron_check(model.building, model.suitable, base)
    assert report.checked == m * proper + m * (n - 1) // 2


def _mutants(model):
    """(name, suitable, base) with one input of the certificate broken: a
    maximal nested set dropped, eps_1 shifted, a base coordinate moved."""
    suitable, base = model.suitable, model.chamber_vertices
    k = len(base.vertices) // 2
    moved = list(base.vertices)
    moved[k] = (moved[k][0] + 1,) + moved[k][1:]
    shifted = (suitable.eps[0] + Fraction(1, 1000),) + suitable.eps[1:]
    return [
        (
            "dropped",
            suitable,
            base._replace(
                vertices=base.vertices[:k] + base.vertices[k + 1 :],
                max_nested=base.max_nested[:k] + base.max_nested[k + 1 :],
            ),
        ),
        ("shifted", suitable._replace(eps=shifted), base),
        ("moved", suitable, base._replace(vertices=tuple(moved))),
    ]


@pytest.mark.parametrize(
    "spec, kind", [("A3", "minimal"), ("B3", "maximal"), ("D4", "minimal")]
)
def test_nestohedron_mutants_fail(spec, kind):
    model = _model(spec, kind)
    n = model.rs.rank
    for name, suitable, base in _mutants(model):
        report = nestohedron_check(model.building, suitable, base)
        assert not report.passed, name
        assert not materialised.vertex_enumeration(model.building, suitable, base)
        ridges = [line for line in report.details if line.startswith("ridge")]
        if name == "dropped":
            # each of the dropped set's n - 1 ridges is left in one set
            assert len(ridges) == n - 1 == len(report.details)
            once = "in 1 maximal nested sets, not 2"
            assert all(line.endswith(once) for line in ridges)
        else:
            assert not ridges
            assert any("tightness fails" in line for line in report.details)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(MATRIX[2:6]), st.data())
def test_random_eps_lists_agree_with_the_vertex_enumeration(spec_kind, data):
    # each proper dimension's eps scaled by a factor in [1/40, 40]: about
    # half raise NotInChamber, and of the rest some fail
    model = _model(*spec_kind)
    a, eps = model.suitable
    factor = st.fractions(Fraction(1, 40), Fraction(40), max_denominator=40)
    drawn = [e * data.draw(factor) for e in eps[:-1]]
    suitable = SuitableList(a, (*drawn, eps[-1]))
    old, new, brute = _verdicts(model.building, suitable)
    assert new == brute
    if old is True or isinstance(old, type) or isinstance(new, type):
        assert new == old
    elif old != new:
        # the family scan failed a nestohedron: verify fails on the growth
        # conditions all the same, so its exit code is the scan's
        assert check_increasing(ratio_table(model.building), suitable.eps, a)


def _a3_min_with(fundamental=None, base=None) -> Permutonestohedron:
    model = make_model("A3", "minimal")
    fundamental = list(model.fundamental_hs if fundamental is None else fundamental)
    model.fundamental_hs = fundamental
    if base is not None:
        model.chamber = Chamber(model.building, base, fundamental)
    return model


def _member(model, dim: int) -> int:
    return next(
        h
        for h, hs in enumerate(model.fundamental_hs)
        if hs.kind == "member" and hs.flat.dim == dim
    )


def test_tampered_fundamental_normal_fails():
    model = make_model("A3", "minimal")
    kinds = [(hs.kind, hs.flat.dim) for hs in model.fundamental_hs]
    planes = [h for h, k in enumerate(kinds) if k == ("member", 2)]
    middle = next(
        h for h, hs in enumerate(model.fundamental_hs) if hs.flat.bits == 0b10
    )
    # the two member planes swap normals (the diagram symmetry's images, so
    # each is still tight on some vertex), and the middle line takes the
    # non-member plane's normal, which some vertex exceeds
    for h, other, violated in (
        (planes[0], planes[1], False),
        (middle, kinds.index(("nonmember", 2)), True),
    ):
        fundamental = list(model.fundamental_hs)
        fundamental[h] = fundamental[h]._replace(prim=fundamental[other].prim)
        tampered = _a3_min_with(fundamental)
        assert tampered.chamber.violated[h] == violated
        failed = _failed(tampered.verify("full"))
        assert "vertex/halfspace incidence" in failed
        assert "face vertices vs supporting hyperplanes" in failed


def test_planted_non_dominant_normal_is_reduced_and_fails():
    model = make_model("A3", "minimal")
    rs, weyl = model.rs, model.weyl
    fundamental = list(model.fundamental_hs)
    h = _member(model, 2)
    mu = fundamental[h].prim
    j = next(i for i, c in enumerate(int_mat_vec(rs.int_gram, mu)) if c > 0)
    moved = int_mat_vec(weyl.elements[weyl.generator_ids[j]], mu)
    assert moved != mu and dominant(rs, moved)[0] == mu
    fundamental[h] = fundamental[h]._replace(prim=moved)
    tampered = _a3_min_with(fundamental)
    assert tampered.chamber.plus[h] == mu
    report = tampered.chamber.incidence_report()
    assert not report.passed
    assert any("is not dominant" in line for line in report.details)
    assert "face vertices vs supporting hyperplanes" in _failed(tampered.verify("full"))
    # the facet sets rest on the normal being dominant: none are given
    with pytest.raises(VerificationFailed, match="is not dominant"):
        tampered.facet_sets
    assert "facet_sets" not in vars(tampered)


def test_dominant_reduction_inverts_every_group_element():
    for model in (_model("B3", "maximal"), _model("A2xB2", "minimal")):
        rs = model.rs
        for hs in model.fundamental_hs:
            row = int_mat_vec(rs.int_gram, hs.prim)
            assert dominant(rs, hs.prim) == (hs.prim, row)
            for w in model.weyl.elements:
                assert dominant(rs, int_mat_vec(w, hs.prim)) == (hs.prim, row)


def test_tampered_offset_fails():
    model = make_model("A3", "minimal")
    h = _member(model, 2)
    for shift, failing in ((-Fraction(1, 1000), True), (Fraction(1), False)):
        fundamental = list(model.fundamental_hs)
        fundamental[h] = fundamental[h]._replace(bound=fundamental[h].bound + shift)
        tampered = _a3_min_with(fundamental)
        assert not tampered.chamber.incidence_report().passed
        if failing:
            # inside by a little: the vertices it was tight on now exceed it
            assert tampered.chamber.violated[h]
            failed = _failed(tampered.verify("full"))
            assert "vertex/halfspace incidence" in failed
            assert "face vertices vs supporting hyperplanes" in failed
            with pytest.raises(VerificationFailed, match="exceeds its bound"):
                tampered.facet_sets
        else:
            # moved off every vertex: no vertex is on it
            with pytest.raises(EmptyFacet):
                tampered.simple()
            with pytest.raises(EmptyFacet, match="touches no vertex"):
                tampered.facet_sets
        assert "facet_sets" not in vars(tampered)


def _rescaled(base, k: int, factor: Fraction):
    """``base`` with point k scaled by ``factor``, every point kept over a
    common denominator."""
    points = [tuple(c * factor.denominator for c in p) for p in base.vertices]
    points[k] = tuple(c * factor.numerator for c in base.vertices[k])
    return base._replace(vertices=tuple(points), scale=base.scale * factor.denominator)


def test_tampered_base_point_fails():
    base = make_model("A3", "minimal").chamber.base
    for factor in (Fraction(1001, 1000), Fraction(999, 1000)):
        tampered = _a3_min_with(base=_rescaled(base, 3, factor))
        assert "vertex/halfspace incidence" in _failed(tampered.verify("full"))
    same = _a3_min_with(base=_rescaled(base, 3, Fraction(1)))
    assert not _failed(same.verify("full"))


def test_tampered_face_label_set_fails(monkeypatch):
    # the type (S, L) = ({line 0, V}, {line 0}) is given the label of line 1
    model = make_model("A3", "minimal")
    lines = sorted(f for f in model.building.fund if f.dim == 1)

    def relabelled(nested_sets, n):
        for s, labels, dim in face_types(nested_sets, n):
            if labels == (lines[0],) and len(s) == 2:
                labels = (lines[1],)
            yield s, labels, dim

    monkeypatch.setattr(pnh.model, "face_types", relabelled)
    report = model._face_vertex_report()
    assert not report.passed and len(report.details) == 1
    assert report.details[0].endswith(
        "pair description gives 4 vertices, supporting hyperplanes give 2"
    )


def test_tampered_decomposition_label_set_fails(monkeypatch):
    # the non-member plane of lines 0 and 2 is predicted with line 0 alone
    model = make_model("A3", "minimal")
    building = model.building
    assert model.chamber.incidence_report().passed
    decompose = building.fund_decomposition
    monkeypatch.setattr(
        building,
        "fund_decomposition",
        lambda mask: decompose(mask)[:1] if mask == 0b101 else decompose(mask),
    )
    report = model.chamber.incidence_report()
    assert not report.passed
    assert any("labels give [0]" in line for line in report.details)


def test_coinciding_base_points_raise_like_the_v_rep():
    # eps = 1/4 parks both chamber vertices of A2 on one point
    rs = build_root_system("A2")
    model = build_model(build_minimal(rs), epsilons=[Fraction(1, 4), Fraction(1)])
    with pytest.raises(VerificationFailed) as chamber_error:
        model.verify("fast")
    with pytest.raises(VerificationFailed) as vrep_error:
        model.vrep
    assert str(chamber_error.value) == str(vrep_error.value)
    assert str(vrep_error.value).startswith("6 coinciding vertex pairs")


def test_integer_chamber_solve_equals_the_fraction_solve():
    for spec, kind in (("A3", "minimal"), ("B3", "maximal"), ("D4", "minimal")):
        model = _model(spec, kind)
        building, suitable, rs = model.building, model.suitable, model.rs
        data, rhs = building.fund_data, _chamber_rhs(building, suitable)
        proper = [f for f in building.fund if f != building.V]
        for combo in combinations(proper, rs.rank - 1):
            rows = [data[f].gram_delta_perp for f in (building.V, *combo)]
            eps = [suitable.for_dim(f.dim) for f in combo]
            targets = [suitable.a] + [suitable.a - e for e in eps]
            ratios = [data[f].ratio for f in (building.V, *combo)]
            try:
                x = materialised.solve_linear_system(
                    rows, [t / r for t, r in zip(targets, ratios)]
                )
            except SingularSystem:
                with pytest.raises(SingularSystem):
                    _chamber_solve(building, rhs, combo)
                continue
            y, d, g = _chamber_solve(building, rhs, combo)
            assert d > 0 and gcd(d, *y) == 1
            assert tuple(Fraction(c, d) for c in y) == x
            gram_x = mat_vec(rs.gram, x)
            assert [(c > 0) - (c < 0) for c in g] == [(c > 0) - (c < 0) for c in gram_x]


def test_orthogonal_flats_equals_the_gram_products():
    for spec in ("A3", "B3", "D4", "A2xB2"):
        rs = build_root_system(spec)
        flats = all_flats(rs)
        for a in flats:
            for b in flats:
                expected = all(
                    rs.inner(rs.positive_roots[i], rs.positive_roots[j]) == 0
                    for i in a.indices()
                    for j in b.indices()
                )
                assert orthogonal_flats(rs, a, b) == expected
