"""The set-up of a model in scaled integers against the ``Fraction`` set-up it
replaced (``materialised.py``): the root system's Cartan matrix, weights and
delta, ``flat_data``, the ratio table and ``fundamental_halfspaces`` are
equal, and of equal type where they reach an export, on every conftest
model, on the G2, F4 and E6 Gram matrices and on a Gram matrix scaled by
1/3.  Each rewritten check still raises its typed error.  The epsilon
lemma, with one bound per dimension key, reports what the per-family sums
reported.  One CLI parser serves every call of a process."""

from fractions import Fraction

import pytest

import materialised
import pnh.cli
from pnh.errors import LemmaViolated, UnsupportedType, VerificationFailed
from pnh.flats import (
    build_maximal,
    build_minimal,
    flat_data,
    full_flat,
    standard_flat,
)
from pnh.halfspaces import (
    SuitableList,
    fundamental_halfspaces,
    ratio_table,
    suitable_list,
    verify_epsilon_lemma,
)
from pnh.roots import RootSystem, build_root_system
from test_weyl import _E_EDGES, _simply_laced

CONFTEST_MODELS = [
    "a2", "b2", "a3_min", "a3_max", "a4_min", "b3_min", "b3_max", "a13_min", "d4_min",
]

_THIRD = Fraction(1, 3)
GRAMS = {
    "G2": [[2, -3], [-3, 6]],
    "F4": [[4, -2, 0, 0], [-2, 4, -2, 0], [0, -2, 2, -1], [0, 0, -1, 2]],
    "E6": _simply_laced(6, _E_EDGES[:5]),
    "A3/3": [
        [2 * _THIRD, -_THIRD, 0],
        [-_THIRD, 2 * _THIRD, -_THIRD],
        [0, -_THIRD, 2 * _THIRD],
    ],
}


def _assert_setup_equals_oracle(building):
    rs = building.rs
    cartan, weights, delta = materialised.fraction_weights_and_delta(rs)
    assert (rs.cartan, rs.weights, rs.delta) == (cartan, weights, delta)
    assert all(type(x) is Fraction for w in (*rs.weights, rs.delta) for x in w)
    assert all(type(x) is Fraction for row in rs.gram for x in row)
    for f in building.fund:
        got = building.fund_data[f]
        assert (got.flat, got.pi, got.delta_perp, got.gram_delta_perp, got.ratio) == (
            materialised.fraction_flat_data(rs, f)
        )
        assert type(got.ratio) is Fraction
        assert all(type(x) is int for x in got.gram_delta_perp)
    per_dim = ratio_table(building).per_dim
    assert per_dim == materialised.fraction_ratio_table(building)
    assert all(type(r) is Fraction for r in per_dim.values())
    suitable = suitable_list(building)
    assert all(type(e) is Fraction for e in suitable.eps)
    got = fundamental_halfspaces(building, suitable)
    want = materialised.fraction_fundamental_halfspaces(building, suitable)
    assert got == want
    for g, w in zip(got, want):
        assert type(g.ratio) is type(w.ratio) is Fraction
        assert type(g.bound) is type(w.bound) is Fraction
        assert all(type(p) is int for p in g.prim)


@pytest.mark.parametrize("name", CONFTEST_MODELS)
def test_integer_setup_equals_the_fraction_oracle_on_the_conftest_models(name, request):
    _assert_setup_equals_oracle(request.getfixturevalue(name).building)


@pytest.mark.parametrize(
    "name, builder",
    [
        ("G2", build_minimal),
        ("G2", build_maximal),
        ("F4", build_minimal),
        ("F4", build_maximal),
        ("E6", build_minimal),
        ("A3/3", build_minimal),
        ("A3/3", build_maximal),
    ],
)
def test_integer_setup_equals_the_fraction_oracle_on_gram_matrices(name, builder):
    rs = RootSystem.from_gram(GRAMS[name])
    assert rs.gram_scale == (3 if name == "A3/3" else 1)
    _assert_setup_equals_oracle(builder(rs))


def test_a_gram_matrix_scaled_by_a_third_scales_only_the_ratios():
    third = build_minimal(RootSystem.from_gram(GRAMS["A3/3"]))
    a3 = build_minimal(build_root_system("A3"))
    assert third.rs.int_gram == a3.rs.int_gram and third.rs.gram_scale == 3
    for f, g in zip(third.fund, a3.fund):
        mine, theirs = third.fund_data[f], a3.fund_data[g]
        assert mine.pi == theirs.pi and mine.delta_perp == theirs.delta_perp
        assert mine.ratio == theirs.ratio / 3


@pytest.mark.parametrize(
    "gram, message",
    [
        ([[2, -1], [-1, 3]], "Gram matrix is not crystallographic"),
        ([[2, 0], [0, -2]], "Gram matrix is not positive on the diagonal"),
        ([[0, 0], [0, 2]], "Gram matrix is not positive on the diagonal"),
    ],
)
def test_unsupported_gram_matrices_raise_unsupported_type(gram, message):
    with pytest.raises(UnsupportedType, match=f"^{message}$"):
        RootSystem.from_gram(gram)


def test_corrupted_weights_or_delta_fail_the_root_system_check(monkeypatch):
    rs = build_root_system("B3")
    ys, d = rs.weights2
    rs.weights2 = ((ys[0][0] + 1, *ys[0][1:]), *ys[1:]), d
    with pytest.raises(UnsupportedType, match="^fundamental weights fail their defining"):
        rs._check()
    rs = build_root_system("B3")
    rs.delta2 = (rs.delta2[0] + 2, *rs.delta2[1:])
    with pytest.raises(UnsupportedType, match="^half-sum of positive roots != sum of"):
        rs._check()
    # through the constructor: the weights it solved for are corrupted
    good = RootSystem._fundamental_weights

    def scaled_up(self):
        ys, d = good(self)
        return ys, 2 * d

    monkeypatch.setattr(RootSystem, "_fundamental_weights", scaled_up)
    with pytest.raises(UnsupportedType, match="^fundamental weights fail their defining"):
        build_root_system("A3")


def test_corrupted_delta_fails_flat_data():
    rs = build_root_system("A3")
    line, plane = standard_flat(rs, 0b001), standard_flat(rs, 0b011)
    good, plane_pi2 = rs.delta2, flat_data(rs, plane).pi2
    # delta moved off the hyperplane orthogonal to alpha_0
    rs.delta2 = (good[0], good[1] + 2, good[2])
    with pytest.raises(VerificationFailed, match="^delta_perp not orthogonal to flat"):
        flat_data(rs, line)
    with pytest.raises(VerificationFailed, match="^half-sum over the whole space is"):
        flat_data(rs, full_flat(rs))
    # delta = pi of the plane: delta_perp = 0 is orthogonal, but weightless off it
    rs.delta2 = plane_pi2
    with pytest.raises(VerificationFailed, match="^delta_perp weight-coefficient below 1"):
        flat_data(rs, plane)


@pytest.mark.parametrize(
    "pi2, message",
    [
        ((2, 0, 0), "nonmember normal has weight on its flat"),
        ((3, 4, 2), "nonmember normal has nonpositive weight off its flat"),
    ],
)
def test_a_nonmember_normal_with_weight_where_it_must_have_none_fails(pi2, message):
    # A3 minimal: the standard flat {alpha_0, alpha_2} is no member, and its
    # normal is 2 delta - 2 pi_0 - 2 pi_2 = (2, 4, 2)
    building = build_minimal(build_root_system("A3"))
    suitable = suitable_list(building)
    line = standard_flat(building.rs, 0b001)
    data = building.fund_data
    assert data[line].pi2 == (1, 0, 0)
    data[line] = data[line]._replace(pi2=pi2)
    with pytest.raises(VerificationFailed, match=f"^{message}$"):
        fundamental_halfspaces(building, suitable)


@pytest.mark.parametrize(
    "name, eps",
    [
        ("a3_max", None),
        ("b3_max", None),
        ("d4_min", None),
        ("a3_max", (Fraction(1, 9), Fraction(1, 3), Fraction(1))),
        ("b3_max", (Fraction(1, 4), Fraction(1, 2), Fraction(1))),
        ("a4_min", (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1))),
        ("d4_min", (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(1))),
    ],
)
def test_epsilon_lemma_bounds_per_key_equal_the_per_family_sums(name, eps, request):
    building = request.getfixturevalue(name).building
    suitable = suitable_list(building) if eps is None else SuitableList(Fraction(1), eps)
    report = verify_epsilon_lemma(building, suitable, raise_on_violation=False)
    checked, violations = materialised.epsilon_lemma_by_family(building, suitable)
    assert (report.checked, report.violations) == (checked, violations)
    assert all(type(v[3]) is Fraction for v in report.violations)
    assert report.passed == (eps is None)
    if violations:
        b, parts, eps_b, bound = violations[0]
        with pytest.raises(LemmaViolated) as info:
            verify_epsilon_lemma(building, suitable)
        assert info.value.witness == violations[0]
        assert str(info.value) == (
            f"eps_{b.dim} = {eps_b} <= {bound} for a sum of {len(parts)} members"
        )


def test_one_parser_serves_every_call_with_no_default_leaking(tmp_path, capsys):
    assert pnh.cli._parser() is pnh.cli._parser()
    common = ["--type", "A2"]
    assert pnh.cli.run(["verify", "--level", "fast", *common]) == 0
    fast = capsys.readouterr().out.splitlines()
    assert pnh.cli.run(["verify", *common]) == 0
    full = capsys.readouterr().out.splitlines()
    assert len(full) > len(fast) and set(fast) < set(full)
    off, js = tmp_path / "b3.off", tmp_path / "b3.json"
    assert pnh.cli.run(["export", "--format", "off", "--type", "B3",
                        "--output", str(off)]) == 0
    assert off.read_text().startswith("OFF")
    assert pnh.cli.run(["export", "--type", "B3", "--output", str(js)]) == 0
    assert js.read_text().startswith("{")
    assert pnh.cli.run(["verify", "--type", "A2", "--level", "slow"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert pnh.cli.run(["--version"]) == 0
    assert capsys.readouterr().out.startswith("pnh ")
    assert pnh.cli.run(["verify", "--type", "A2", "--level", "slow"]) == 2
    assert pnh.cli.run(["--version"]) == 0
