import pytest

from pnh.errors import GroupTooLarge
from pnh.flats import build_minimal, flat_closure, standard_flat
from pnh.linalg import identity, mat_mul, mat_vec, primitive_vector
from pnh.roots import build_root_system
from pnh.weyl import (
    canonical_coset_rep,
    enumerate_group,
    left_cosets,
    parabolic_subgroup,
    simple_reflection_matrix,
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


def test_walk_cap_fires_without_a_predicted_order(monkeypatch):
    monkeypatch.setattr("pnh.weyl.expected_group_order", lambda components: None)
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


def test_act_vec_matches_matrix():
    rs = build_root_system("B2")
    w = enumerate_group(rs)
    x = (3, 5)
    for g in range(w.order):
        m = w.elements[g]
        expected = tuple(
            sum(m[i][j] * x[j] for j in range(2)) for i in range(2)
        )
        assert w.act_vec(g, x) == expected


def test_action_preserves_inner_products():
    rs = build_root_system("B2")
    w = enumerate_group(rs)
    x, y = (1, 2), (4, -1)
    for g in range(w.order):
        assert rs.inner(w.act_vec(g, x), w.act_vec(g, y)) == rs.inner(x, y)


def test_root_permutation_is_a_permutation():
    rs = build_root_system("A3")
    w = enumerate_group(rs)
    n = len(rs.positive_roots)
    for g in range(w.order):
        perm = w.root_permutation(g)
        assert sorted(perm) == list(range(n))


def test_parabolic_subgroups_and_cosets():
    rs = build_root_system("A3")
    w = enumerate_group(rs)
    building = build_minimal(rs, w)
    # stabilizer of a rank-2 subsystem inside the rank-3 group
    a2_flat = next(f for f in building.fund if f.dim == 2)
    sub = parabolic_subgroup(w, a2_flat)
    assert len(sub.member_ids) == 6
    cosets = left_cosets(w, sub)
    assert len(cosets) == 4
    for g in range(w.order):
        rep = canonical_coset_rep(w, g, sub)
        assert rep in cosets
        # idempotent and constant on the coset
        assert canonical_coset_rep(w, rep, sub) == rep


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
            assert sub.order == len(closure)
            for a in range(w.order):
                coset = {w.mul(a, h) for h in closure}
                assert set(sub.cosets[sub.coset[a]]) == coset
                lex_least = min(coset, key=lambda b: w.elements[b])
                assert sub.reps[sub.coset[a]] == lex_least
                assert canonical_coset_rep(w, a, sub) == lex_least
            assert left_cosets(w, sub) == sorted(sub.reps)


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
