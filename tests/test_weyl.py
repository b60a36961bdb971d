from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generator_root_perms, make_model, simple_reflection_matrix
from pnh.errors import GroupTooLarge
from pnh.flats import build_minimal, flat_closure, standard_flat
from pnh.halfspaces import fundamental_halfspaces
from pnh.linalg import identity, int_mat_vec, mat_mul, mat_vec, primitive_vector
from pnh.roots import RootSystem, build_root_system
from pnh.weyl import (
    canonical_coset_rep,
    check_group_cap,
    enumerate_group,
    left_cosets,
    parabolic_order,
    parabolic_subgroup,
    standard_parabolic,
    subgroup_product,
)

ORACLE_TYPES = [
    "A1", "A2", "B2", "A3", "B3", "C3", "A4", "B4", "D4", "A2xA1", "A2xB2", "A1^4",
]


def _product_walk(rs):
    """Reference enumeration: the breadth-first closure by full matrix
    products M @ s_g, generators in index order."""
    gens = [simple_reflection_matrix(rs.cartan, i) for i in range(rs.rank)]
    elements = [identity(rs.rank)]
    index = {elements[0]: 0}
    frontier = [elements[0]]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(m, g)
                if prod not in index:
                    index[prod] = len(elements)
                    elements.append(prod)
                    new.append(prod)
        frontier = new
    return tuple(elements), index, tuple(index[g] for g in gens)


def _orbit_point_cosets(w, mask):
    """Reference coset pass: a named by a x_J, x_J = sum of the fundamental
    weights omega_i, i not in J, which W_J fixes."""
    rs = w.rs
    x = primitive_vector(
        tuple(
            sum(wt[c] for i, wt in enumerate(rs.weights) if not mask >> i & 1)
            for c in range(rs.rank)
        )
    )
    number = {}
    coset = []
    cosets = []
    for a, m in enumerate(w.elements):
        c = number.setdefault(mat_vec(m, x), len(number))
        if c == len(cosets):
            cosets.append([])
        cosets[c].append(a)
        coset.append(c)
    reps = tuple(min(ids, key=w.elements.__getitem__) for ids in cosets)
    return tuple(coset), tuple(map(tuple, cosets)), reps


@pytest.mark.parametrize("spec", ORACLE_TYPES)
def test_column_walk_matches_product_walk(spec):
    rs = build_root_system(spec)
    w = enumerate_group(rs)
    elements, index, generator_ids = _product_walk(rs)
    assert w.elements == elements
    assert w.index == index
    assert w.generator_ids == generator_ids
    assert w.order == len(elements) and w.identity_id == 0


@pytest.mark.parametrize("spec", ORACLE_TYPES)
def test_weight_image_cosets_match_orbit_point_cosets(spec):
    rs = build_root_system(spec)
    w = enumerate_group(rs)
    for mask in range(1 << rs.rank):
        sub = parabolic_subgroup(w, standard_flat(rs, mask))
        assert sub.mask == mask
        assert (sub.coset, sub.cosets, sub.reps) == _orbit_point_cosets(w, mask)


WALK_TYPES = ["A2", "B2", "A3", "B3", "C3", "D4", "B4", "A2xB2", "A1^4"]


@pytest.mark.parametrize("spec", WALK_TYPES)
def test_each_recorded_step_is_a_right_multiplication_by_a_generator(spec):
    rs = build_root_system(spec)
    w = enumerate_group(rs)
    gens = [simple_reflection_matrix(rs.cartan, g) for g in range(rs.rank)]
    assert (w.parent[0], w.letter[0]) == (None, None)
    for sigma in range(1, w.order):
        tau, g = w.parent[sigma], w.letter[sigma]
        assert tau < sigma
        assert w.elements[sigma] == mat_mul(w.elements[tau], gens[g])
    assert [w.elements[a] for a in w.generator_ids] == gens


def _matrix_orbit(w, xs, sub=None):
    """Reference orbit: every element's matrix times every vector, or the
    matrix of each coset's least id with ``sub``."""
    sigmas = range(w.order) if sub is None else [ids[0] for ids in sub.cosets]
    return [int_mat_vec(w.elements[sigma], x) for sigma in sigmas for x in xs]


def _check_walk(w, xs, sub=None):
    got = w.orbit(xs, sub)
    assert got == _matrix_orbit(w, xs, sub)
    assert len(got) == len(xs) * (w.order if sub is None else len(sub.cosets))
    for x in xs:
        for g, d in enumerate(w.deltas(x)):
            moved = int_mat_vec(w.elements[w.generator_ids[g]], x)
            assert moved == tuple(c + d * (i == g) for i, c in enumerate(x))


@pytest.mark.parametrize("spec", WALK_TYPES)
def test_walked_orbits_are_the_matrix_images(spec):
    # the base vertices together, then each fundamental primitive normal
    # alone and over the cosets of its stabiliser W_J(mu), J(mu) = {j :
    # delta_j(mu) = 0}, and each primitive fundamental weight
    model = make_model(spec, "minimal")
    w = model.weyl
    _check_walk(w, model.chamber_vertices.vertices)
    for hs in fundamental_halfspaces(model.building, model.suitable):
        _check_walk(w, [hs.prim])
        mask = sum(1 << j for j, d in enumerate(w.deltas(hs.prim)) if not d)
        _check_walk(w, [hs.prim], standard_parabolic(w, mask))
    for weight in model.rs.weights:
        _check_walk(w, [primitive_vector(weight)])


@cache
def _group(spec):
    return enumerate_group(build_root_system(spec))


@pytest.mark.parametrize("spec", WALK_TYPES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_walked_orbits_of_drawn_vectors_are_the_matrix_images(spec, data):
    w = _group(spec)
    n = w.rs.rank
    vec = st.tuples(*[st.integers(-60, 60)] * n)
    _check_walk(w, data.draw(st.lists(vec, min_size=1, max_size=3)))
    # sum_i c_i omega_i over i outside J, each primitive: W_J fixes it
    mask = data.draw(st.integers(0, (1 << n) - 1))
    x = [0] * n
    for i, weight in enumerate(w.rs.weights):
        if not mask >> i & 1:
            c = data.draw(st.integers(-4, 4))
            x = [a + c * b for a, b in zip(x, primitive_vector(weight))]
    _check_walk(w, [tuple(x)], standard_parabolic(w, mask))


def test_walk_cap_fires_without_a_predicted_order(monkeypatch):
    monkeypatch.setattr("pnh.weyl.parabolic_order", lambda rs, mask: 1)
    with pytest.raises(GroupTooLarge, match="passed cap 10"):
        enumerate_group(build_root_system("A3"), cap=10)


def test_group_orders():
    for spec, order in [
        ("A2", 6),
        ("B2", 8),
        ("A3", 24),
        ("B3", 48),
        ("C3", 48),
        ("D4", 192),
        ("A1^3", 8),
        ("A2xA1", 12),
    ]:
        assert enumerate_group(build_root_system(spec)).order == order


@pytest.mark.parametrize(
    "spec", ["A2", "B2", "A3", "B3", "C3", "D4", "A1^3", "A2xA1", "A2xB2"]
)
def test_parabolic_orders_equal_the_enumerated_ones(spec):
    rs = build_root_system(spec)
    w = enumerate_group(rs)
    full = (1 << rs.rank) - 1
    assert parabolic_order(rs, full) == w.order
    for mask in range(full + 1):
        assert parabolic_order(rs, mask) == len(standard_parabolic(w, mask).member_ids)


def _simply_laced(n: int, edges) -> list[list[int]]:
    gram = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = -1
    return gram


# Bourbaki's numbering: the chain 1-3-4-5-..., with 2 joined to 4
_E_EDGES = [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]


@pytest.mark.parametrize(
    "gram, order",
    [
        ([[2, -3], [-3, 6]], 12),
        ([[4, -2, 0, 0], [-2, 4, -2, 0], [0, -2, 2, -1], [0, 0, -1, 2]], 1_152),
        (_simply_laced(6, _E_EDGES[:5]), 51_840),
        (_simply_laced(7, _E_EDGES[:6]), 2_903_040),
        (_simply_laced(8, _E_EDGES), 696_729_600),
    ],
    ids=["G2", "F4", "E6", "E7", "E8"],
)
def test_exceptional_group_orders_need_no_group(gram, order):
    # no enumeration: E8's group alone would hold 696,729,600 matrices
    rs = RootSystem.from_gram(gram)
    assert parabolic_order(rs, (1 << rs.rank) - 1) == order
    assert check_group_cap(rs, order) == order
    with pytest.raises(GroupTooLarge, match=f"^\\|W\\| = {order} exceeds cap"):
        check_group_cap(rs, order - 1)


def test_group_cap_enforced():
    with pytest.raises(GroupTooLarge):
        enumerate_group(build_root_system("A3"), cap=10)


def test_inverse_and_multiplication():
    rs = build_root_system("A3")
    w = enumerate_group(rs)
    e = w.identity_id
    for g in range(w.order):
        gi = w.inv(g)
        assert w.mul(g, gi) == e
        assert w.mul(gi, g) == e
    # associativity spot-check on generators
    a, b = w.generator_ids[0], w.generator_ids[1]
    for g in range(w.order):
        assert w.mul(w.mul(a, g), b) == w.mul(a, w.mul(g, b))


def test_action_preserves_inner_products():
    rs = build_root_system("B2")
    w = enumerate_group(rs)
    x, y = (1, 2), (4, -1)
    for g in range(w.order):
        m = w.elements[g]
        assert rs.inner(mat_vec(m, x), mat_vec(m, y)) == rs.inner(x, y)


def test_root_permutation_is_a_permutation():
    for spec in ("A3", "B3", "C3", "D4", "A2xB2"):
        rs = build_root_system(spec)
        n = len(rs.positive_roots)
        for perm in rs.simple_reflection_perms:
            assert sorted(perm) == list(range(n)), spec
        assert list(rs.simple_reflection_perms) == generator_root_perms(
            rs, enumerate_group(rs)
        ), spec


def test_parabolic_subgroups_and_cosets():
    rs = build_root_system("A3")
    w = enumerate_group(rs)
    building = build_minimal(rs)
    # stabilizer of a rank-2 subsystem inside the rank-3 group
    a2_flat = next(f for f in building.fund if f.dim == 2)
    sub = parabolic_subgroup(w, a2_flat)
    assert len(sub.member_ids) == 6
    cosets = left_cosets(sub)
    assert len(cosets) == 4
    for g in range(w.order):
        rep = canonical_coset_rep(g, sub)
        assert rep in cosets
        # idempotent and constant on the coset
        assert canonical_coset_rep(rep, sub) == rep


def test_subgroup_product_of_orthogonal_lines():
    rs = build_root_system("A3")
    w = enumerate_group(rs)
    # lines through the two outer simple roots commute elementwise
    l0 = flat_closure(rs, [0])
    l2 = flat_closure(rs, [2])
    prod = subgroup_product(w, [parabolic_subgroup(w, f) for f in (l0, l2)])
    assert len(prod.member_ids) == 4


def _closure(w, gens):
    members = {w.identity_id}
    frontier = [w.identity_id]
    while frontier:
        frontier = [
            b
            for b in {w.mul(a, g) for a in frontier for g in gens}
            if b not in members
        ]
        members.update(frontier)
    return members


def test_label_subgroups_match_generated_closure(a2, b2, a3_min, b3_max, a13_min):
    for model in (a2, b2, a3_min, b3_max, a13_min):
        w, rs = model.weyl, model.rs
        for labels in sorted({f.labels for f in model.faces}):
            sub = model.face_ctx.label_subgroup(labels)
            simple = {i for f in labels for i in range(rs.rank) if f.bits >> i & 1}
            closure = _closure(w, [w.generator_ids[j] for j in sorted(simple)])
            assert sub.member_ids == tuple(sorted(closure)), labels
            assert len(sub.member_ids) == len(closure)
            for a in range(w.order):
                coset = {w.mul(a, h) for h in closure}
                assert set(sub.cosets[sub.coset[a]]) == coset
                lex_least = min(coset, key=lambda b: w.elements[b])
                assert sub.reps[sub.coset[a]] == lex_least
                assert canonical_coset_rep(a, sub) == lex_least
            assert left_cosets(sub) == sorted(sub.reps)


def test_non_standard_subgroups_are_rejected():
    rs = build_root_system("A3")
    w = enumerate_group(rs)
    l0 = flat_closure(rs, [0])
    l1 = flat_closure(rs, [1])
    # the lines through alpha_0 and alpha_1 are not orthogonal
    with pytest.raises(ValueError):
        subgroup_product(w, [parabolic_subgroup(w, f) for f in (l0, l1)])
    # positive root 3 is alpha_1 + alpha_2: its line is not spanned by simple roots
    assert rs.positive_roots[3] == (0, 1, 1)
    with pytest.raises(ValueError):
        parabolic_subgroup(w, flat_closure(rs, [3]))
