from fractions import Fraction
from math import gcd

import pytest

from conftest import primitive_key
from pnh.cli import run
from pnh.errors import LemmaViolated, VerificationFailed
from pnh.flats import (
    build_maximal,
    build_minimal,
    flat_closure,
    flat_data,
    full_flat,
    simple_index_set,
)
from pnh.halfspaces import (
    SuitableList,
    all_halfspaces,
    check_increasing,
    fundamental_halfspaces,
    orthogonal_flats,
    ratio_table,
    suitable_list,
    verify_epsilon_lemma,
)
from pnh.linalg import mat_vec
from pnh.roots import build_root_system
from pnh.weyl import parabolic_subgroup


def test_flat_data_a2(
    a2, b2, a3_min, a3_max, a4_min, b3_min, b3_max, a13_min, d4_min
):
    rs = build_root_system("A2")
    line = flat_closure(rs, [0])
    data = flat_data(rs, line)
    assert data.pi == (Fraction(1, 2), 0)
    assert data.delta_perp == (Fraction(1, 2), 1)
    # orthogonal to the flat's roots
    assert rs.inner(data.delta_perp, rs.positive_roots[0]) == 0
    v = full_flat(rs)
    vd = flat_data(rs, v)
    assert vd.pi == rs.delta == vd.delta_perp
    # the stored row is primitive, and its ratio times it is Gram times
    # delta_perp, for every fundamental member
    for model in (a2, b2, a3_min, a3_max, a4_min, b3_min, b3_max, a13_min, d4_min):
        for data in model.building.fund_data.values():
            assert data.ratio > 0 and gcd(*data.gram_delta_perp) == 1
            assert all(type(x) is int for x in data.gram_delta_perp)
            assert tuple(data.ratio * x for x in data.gram_delta_perp) == mat_vec(
                model.rs.gram, data.delta_perp
            )


@pytest.mark.parametrize(
    "argv, members",
    [
        (["build", "--type", "A4"], 10),
        (["verify", "--level", "full", "--type", "A3"], 6),
        (["verify", "--level", "full", "--type", "B3", "--building", "maximal"], 7),
    ],
)
def test_flat_data_runs_once_per_fundamental_member(
    argv, members, monkeypatch, tmp_path
):
    # every layer of a model reads the building set's one table
    made = []

    def counted(rs, flat):
        made.append(flat)
        return flat_data(rs, flat)

    monkeypatch.setattr("pnh.flats.flat_data", counted)
    assert run(argv + ["--output", str(tmp_path / "out")]) == 0
    assert len(made) == len(set(made)) == members


def test_a6_maximal_epsilon_lemma_count():
    # 2.49 M recursive calls before the private-mask pruning
    building = build_maximal(build_root_system("A6"))
    report = verify_epsilon_lemma(building, suitable_list(building))
    assert (report.checked, report.violations) == (10_064, [])


def test_ratio_table_a3_minimal():
    b = build_minimal(build_root_system("A3"))
    table = ratio_table(b)
    assert table.ratio(2, 1) == 2
    assert table.ratio(3, 2) == 2
    assert table.ratio(3, 1) == 4
    # unknown pairs fall back to the neutral value
    assert table.ratio(1, 1) == 1


def test_generated_lists():
    cases = [
        ("A2", (Fraction(1, 5), Fraction(1))),
        ("A3", (Fraction(1, 25), Fraction(1, 5), Fraction(1))),
        ("B2", (Fraction(1, 9), Fraction(1))),
    ]
    for spec, expected in cases:
        b = build_minimal(build_root_system(spec))
        s = suitable_list(b, a=Fraction(1))
        assert s.eps == expected
        assert s.a == 1
        assert not check_increasing(ratio_table(b), s.eps, s.a)


def test_generated_list_scales_with_a():
    b = build_minimal(build_root_system("A2"))
    s = suitable_list(b, a=Fraction(3, 2))
    assert s.eps == (Fraction(3, 10), Fraction(3, 2))


def test_planted_list_fails_growth_and_lemma():
    b = build_minimal(build_root_system("A2"))
    bad = SuitableList(Fraction(1), (Fraction(1, 3), Fraction(1)))
    problems = check_increasing(ratio_table(b), bad.eps, bad.a)
    assert problems, "growth condition should reject eps=(1/3, 1)"
    report = verify_epsilon_lemma(b, bad, raise_on_violation=False)
    assert not report.passed
    member, parts, eps_val, bound = report.violations[0]
    assert member.dim == 2 and eps_val == 1 and bound == Fraction(4, 3)
    with pytest.raises(LemmaViolated):
        verify_epsilon_lemma(b, bad, raise_on_violation=True)


def test_lemma_passes_for_generated_lists():
    for spec in ["A2", "A3", "B3", "A1^3"]:
        b = build_minimal(build_root_system(spec))
        report = verify_epsilon_lemma(b, suitable_list(b))
        assert report.passed and report.checked > 0


def test_fundamental_halfspaces_a3_minimal():
    rs = build_root_system("A3")
    b = build_minimal(rs)
    s = suitable_list(b)
    hs = fundamental_halfspaces(b, s)
    kinds = [h.kind for h in hs]
    assert kinds.count("chamber") == 1
    assert kinds.count("member") == 5
    assert kinds.count("nonmember") == 1
    nm = next(h for h in hs if h.kind == "nonmember")
    # normal: full half-sum minus both orthogonal line half-sums
    assert nm.normal == (1, 2, 1)
    assert nm.offset == Fraction(23, 25)
    assert nm.flat == flat_closure(rs, [0, 2])
    ch = next(h for h in hs if h.kind == "chamber")
    assert ch.normal == rs.delta and ch.offset == 1


def test_orthogonality_predicate():
    rs = build_root_system("A3")
    l0 = flat_closure(rs, [0])
    l1 = flat_closure(rs, [1])
    l2 = flat_closure(rs, [2])
    assert orthogonal_flats(rs, l0, l2)
    assert not orthogonal_flats(rs, l0, l1)


def test_halfspace_key_dedup(a2, a3_min, a3_max, b2, b3_min, b3_max):
    for model, count in [
        (a2, 12),
        (b2, 16),
        (a3_min, 74),
        (a3_max, 74),
        (b3_min, 146),
        (b3_max, 146),
    ]:
        hs = model.halfspaces
        assert len(hs) == count
        keys = {h.key() for h in hs}
        assert len(keys) == count
        assert all(h.offset > 0 for h in hs)


def _orbit_over_all_of_w(model):
    """The H-rep the way it was made before the coset walk: every element of
    W acting on each fundamental normal in Fractions, the least sigma kept
    per exact key, sorted by key."""
    seen = {}
    for base in fundamental_halfspaces(model.building, model.suitable):
        for sigma in range(model.weyl.order):
            normal = mat_vec(model.weyl.elements[sigma], base.normal)
            seen.setdefault(
                primitive_key(normal, base.offset),
                (normal, base.offset, base.kind, base.flat, sigma),
            )
    return [seen[key] for key in sorted(seen)]


@pytest.mark.parametrize(
    "name", ["a2", "b2", "a3_min", "a3_max", "b3_min", "b3_max", "a13_min"]
)
def test_coset_orbits_equal_the_walk_over_all_of_w(name, request):
    model = request.getfixturevalue(name)
    # ratio * prim is the normal that W's Fraction action gives
    got = [
        (h.normal, h.offset, h.kind, h.flat, h.sigma_id) for h in model.halfspaces
    ]
    assert got == _orbit_over_all_of_w(model)
    # the stored form made by the integer action is the one derived from scratch
    assert all(h.key() == primitive_key(h.normal, h.offset) for h in model.halfspaces)
    assert all(gcd(*h.prim) == 1 and h.ratio > 0 for h in model.halfspaces)
    # one bound object and one ratio object per orbit, a flat naming each
    shared = {}
    for h in model.halfspaces:
        shared.setdefault(h.flat, set()).add((id(h.bound), id(h.ratio)))
    assert len(shared) == len(model.fundamental_hs)
    assert all(len(ids) == 1 for ids in shared.values())


def _member_subgroups(model, change):
    """``label_subgroup`` with each member inequality's subgroup replaced by
    ``change(flat, its true subgroup)``."""
    members = {h.flat for h in model.fundamental_hs if h.kind == "member"}

    def label_subgroup(flats):
        sub = model.face_ctx.label_subgroup(flats)
        if len(flats) == 1 and flats[0] in members:
            return change(flats[0], sub)
        return sub

    return label_subgroup


def test_a_stabiliser_one_index_too_large_moves_the_normal(a3_min):
    rs = a3_min.rs

    def grown(flat, sub):
        extra = next(i for i in range(rs.rank) if not sub.mask >> i & 1)
        indices = [i for i in range(rs.rank) if (sub.mask | 1 << extra) >> i & 1]
        bigger = parabolic_subgroup(a3_min.weyl, flat_closure(rs, indices))
        assert bigger.mask == simple_index_set(rs, flat) | 1 << extra
        return bigger

    with pytest.raises(VerificationFailed, match="moves the member normal"):
        all_halfspaces(
            a3_min.building,
            a3_min.suitable,
            a3_min.weyl,
            _member_subgroups(a3_min, grown),
        )


def test_a_trivial_stabiliser_repeats_a_key(a3_min):
    trivial = a3_min.face_ctx.label_subgroup(())
    assert len(trivial.member_ids) == 1
    with pytest.raises(VerificationFailed, match="coincide"):
        all_halfspaces(
            a3_min.building,
            a3_min.suitable,
            a3_min.weyl,
            _member_subgroups(a3_min, lambda flat, sub: trivial),
        )
