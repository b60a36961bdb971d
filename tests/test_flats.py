from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnh.errors import MissingV, NotBuilding, NotWInvariant, TooManyFlats
from pnh.flats import (
    Flat,
    all_flats,
    build_maximal,
    build_minimal,
    flat_closure,
    full_flat,
    fundamental_flats,
    interval_building_set,
    is_irreducible,
    iter_bits,
    line_flats,
    restricted_building_set,
    simple_index_set,
    standard_flat,
    validate_building_set,
    _component_masks,
    _validated,
)
from conftest import generator_root_perms
from pnh.linalg import Echelon
from pnh.roots import build_root_system
from pnh.weyl import enumerate_group

ORACLE_TYPES = (
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4",
    "D4", "D5", "A2xB2", "A3xA1", "A1^4",
)
# and one system given by its Gram matrix alone, cut out of B4
ORACLE_NAMES = ORACLE_TYPES + ("B4-restricted",)


# -- helpers that only the tests use


def flat_sum(rs, a, b):
    return flat_closure(rs, iter_bits(a.bits | b.bits))


def irreducible_components(rs, flat):
    """Orthogonal irreducible pieces of the root system inside ``flat``.

    Each piece is a closed root subsystem with the positive roots it holds;
    its dimension is its number of simple roots, the positive roots of the
    piece that are not the sum of two others."""
    out = []
    for comp in _component_masks(rs, flat.bits):
        roots = [rs.positive_roots[i] for i in iter_bits(comp)]
        inside = set(roots)
        dim = sum(
            1
            for r in roots
            if not any(tuple(a - b for a, b in zip(r, s)) in inside for s in roots)
        )
        out.append(Flat(dim, comp))
    return sorted(out)


# -- the geometric references: closures of joins and Fraction inner products


def reference_all_flats(rs):
    """Every flat, as the closure under joins with lines, each join closed
    by an exact echelon span test of every positive root."""
    lines = line_flats(rs)
    found = {f.bits: f for f in lines}
    frontier = list(lines)
    closure_cache = {}
    while frontier:
        new = []
        for flat in frontier:
            for line in lines:
                if line.bits & flat.bits:
                    continue
                union = flat.bits | line.bits
                joined = closure_cache.get(union)
                if joined is None:
                    joined = closure_cache[union] = flat_closure(rs, iter_bits(union))
                if joined.bits not in found:
                    found[joined.bits] = joined
                    new.append(joined)
        frontier = new
    return sorted(found.values())


def reference_components(rs, flat):
    """The classes of the flat's roots under non-orthogonality, found with
    Fraction inner products, each with its echelon rank."""
    remaining = set(flat.indices())
    components = []
    while remaining:
        comp = {min(remaining)}
        frontier = list(comp)
        while frontier:
            gri = rs.positive_roots[frontier.pop()]
            for j in list(remaining - comp):
                if rs.inner(gri, rs.positive_roots[j]) != 0:
                    comp.add(j)
                    frontier.append(j)
        remaining -= comp
        ech = Echelon()
        for i in comp:
            ech.add(rs.positive_roots[i])
        components.append(Flat(ech.rank, sum(1 << i for i in comp)))
    return sorted(components)


@cache
def oracle_system(name):
    if name != "B4-restricted":
        return build_root_system(name)
    # the long-root A3 spanned by a non-fundamental member flat
    b4 = build_minimal(build_root_system("B4"))
    flat = next(f for f in b4.sorted_flats if f.dim == 3 and f not in b4.fund)
    return restricted_building_set(b4, flat).rs


@cache
def reference_flats(name):
    return reference_all_flats(oracle_system(name))


@cache
def reference_component_lists(name):
    rs = oracle_system(name)
    return [reference_components(rs, f) for f in reference_flats(name)]


def test_flat_counts():
    for spec, count in [("A2", 4), ("B2", 5), ("A3", 14), ("B3", 23), ("D4", 71)]:
        assert len(all_flats(build_root_system(spec))) == count


def test_flat_cap():
    # below the 15 standard flats of D4, so the seeds alone pass it
    with pytest.raises(TooManyFlats):
        all_flats(build_root_system("D4"), cap=10)
    b4 = build_root_system("B4")
    assert len(all_flats(b4, cap=115)) == 115
    with pytest.raises(TooManyFlats):
        all_flats(b4, cap=114)


def test_closure_adds_spanned_roots():
    rs = build_root_system("A2")
    f = flat_closure(rs, [0, 1])
    assert f.dim == 2
    assert set(f.indices()) == {0, 1, 2}


def test_flat_sum_is_closed():
    rs = build_root_system("A3")
    l0 = flat_closure(rs, [0])
    l1 = flat_closure(rs, [1])
    s = flat_sum(rs, l0, l1)
    assert s.dim == 2
    assert s == flat_closure(rs, [0, 1])


def test_irreducibility():
    rs = build_root_system("A3")
    assert is_irreducible(rs, flat_closure(rs, [0, 1]))
    reducible = flat_closure(rs, [0, 2])
    assert not is_irreducible(rs, reducible)
    comps = irreducible_components(rs, reducible)
    assert sorted(c.dim for c in comps) == [1, 1]


def test_building_set_shapes():
    rs = build_root_system("A3")
    mn = build_minimal(rs)
    mx = build_maximal(rs)
    assert (len(mn.flats), len(mn.fund)) == (11, 6)
    assert (len(mx.flats), len(mx.fund)) == (14, 7)
    assert full_flat(rs) in mn and full_flat(rs) in mx
    # D4: three branch pairs and three length-3 subdiagrams are irreducible
    rsd = build_root_system("D4")
    mnd = build_minimal(rsd)
    assert (len(mnd.flats), len(mnd.fund)) == (41, 11)


def test_fundamental_flats_are_simple_spanned():
    rs = build_root_system("B3")
    for f in fundamental_flats(rs):
        assert simple_index_set(rs, f) is not None
    assert len(fundamental_flats(rs)) == 7


def test_validation_rejects_missing_v():
    rs = build_root_system("A2")
    with pytest.raises(MissingV):
        validate_building_set(rs, line_flats(rs))


def test_validation_rejects_missing_line():
    rs = build_root_system("A2")
    with pytest.raises(NotBuilding):
        validate_building_set(rs, [line_flats(rs)[0], full_flat(rs)])


def test_validation_rejects_non_invariant_family():
    rs = build_root_system("A3")
    # adding a single reducible plane breaks group invariance
    family = list(build_minimal(rs).flats) + [flat_closure(rs, [0, 2])]
    with pytest.raises(NotWInvariant):
        validate_building_set(rs, family)


def a3_without_outer_plane():
    """Every flat of A3 except span(alpha_1, alpha_3): each flat still sums
    directly from its maximal members, but s_2 (simple index 1) moves the
    plane span(alpha_1 + alpha_2, alpha_2 + alpha_3), roots 3 and 4, onto it."""
    rs = build_root_system("A3")
    outer = standard_flat(rs, 0b101)
    return rs, [f for f in all_flats(rs) if f != outer]


def test_validation_without_a_group_checks_invariance():
    rs, family = a3_without_outer_plane()
    witness = "simple reflection 1 moves flat <dim 2: roots 3,4>"
    with pytest.raises(NotWInvariant, match=witness):
        validate_building_set(rs, family)


def test_fund_decomposition():
    rs = build_root_system("A3")
    b = build_minimal(rs)
    mask = 0b101  # the two orthogonal outer lines
    parts = b.fund_decomposition(mask)
    assert sorted(p.dim for p in parts) == [1, 1]
    interval = interval_building_set(3)
    whole = interval.fund_decomposition(0b111)
    assert len(whole) == 1 and whole[0].dim == 3


def test_interval_building_set():
    b = interval_building_set(3)
    assert len(b.flats) == 6
    assert all(simple_index_set(b.rs, f) is not None for f in b.flats)


def test_restricted_building_set():
    rs = build_root_system("A3")
    b = build_minimal(rs)
    a2_flat = next(f for f in b.fund if f.dim == 2)
    sub = restricted_building_set(b, a2_flat)
    assert len(sub.rs.positive_roots) == 3
    assert len(sub.flats) == 4  # three lines and the plane itself
    assert sub.parent_flat == a2_flat


def test_preserved_diagram_automorphisms_recorded():
    mn = build_minimal(build_root_system("D4"))
    assert len(mn.preserved_diagram_automorphisms) == 6


def test_flats_enumerated_once_per_builder(monkeypatch):
    import pnh.flats as flats_module
    from pnh.model import Permutonestohedron

    calls = []
    every = flats_module.all_flats

    def counted(rs, *args, **kwargs):
        calls.append(rs)
        return every(rs, *args, **kwargs)

    monkeypatch.setattr(flats_module, "all_flats", counted)
    rs = build_root_system("A3")
    w = enumerate_group(rs)
    mn = build_minimal(rs)
    mx = build_maximal(rs)
    assert len(calls) == 2
    # the record replaces a third enumeration in the verification battery
    assert (mn.contains_every_flat, mx.contains_every_flat) == (False, True)
    for building, maximal in ((mn, False), (mx, True)):
        model = Permutonestohedron(building, weyl=w)
        assert model.is_maximal_building is maximal
        assert all(r.passed for r in model.verify("full"))
    assert len(calls) == 2
    # a custom family holding every flat is recorded as such
    assert validate_building_set(rs, every(rs)).contains_every_flat
    assert len(calls) == 3


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_all_flats_equals_closure_of_joins(name):
    rs = oracle_system(name)
    assert all_flats(rs) == reference_flats(name)
    assert fundamental_flats(rs) == sorted(
        flat_closure(rs, iter_bits(mask)) for mask in range(1, 1 << rs.rank)
    )


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_irreducibility_equals_inner_product_search(name):
    rs = oracle_system(name)
    for flat, components in zip(
        reference_flats(name), reference_component_lists(name)
    ):
        assert irreducible_components(rs, flat) == components
        assert is_irreducible(rs, flat) == (len(components) == 1)


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_builders_equal_reference_families(name):
    rs = oracle_system(name)
    every = reference_flats(name)
    irreducible = [
        f
        for f, components in zip(every, reference_component_lists(name))
        if len(components) == 1
    ]
    if full_flat(rs) not in irreducible:
        irreducible.append(full_flat(rs))
    for built, family in (
        (build_minimal(rs), irreducible),
        (build_maximal(rs), every),
    ):
        expected = _validated(rs, family, every, built.kind)
        assert built.sorted_flats == expected.sorted_flats
        assert built.preserved_diagram_automorphisms == (
            expected.preserved_diagram_automorphisms
        )
        assert built.contains_every_flat == expected.contains_every_flat


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORACLE_NAMES), st.data())
def test_closure_of_any_roots_is_listed(name, data):
    rs = oracle_system(name)
    every = all_flats(rs)
    roots = st.integers(0, len(rs.positive_roots) - 1)
    subset = data.draw(st.sets(roots, min_size=1))
    assert flat_closure(rs, subset) in every
    flat = data.draw(st.sampled_from(every))
    ech = Echelon()
    for i in flat.indices():
        ech.add(rs.positive_roots[i])
    assert flat.dim == ech.rank


# -- building-set validation against the group-matrix reference


def reference_validation_error(rs, family):
    """The exception type that validating ``family`` must raise, or None,
    by the checks in the validator's order: W-invariance from the enumerated
    group's generator matrices acting on the roots, signs dropped, and each
    flat's span decided by ``flat_closure``."""
    family = frozenset(family)
    if full_flat(rs) not in family:
        return MissingV
    if not family.issuperset(line_flats(rs)):
        return NotBuilding
    for perm in generator_root_perms(rs, enumerate_group(rs)):
        for f in family:
            if flat_closure(rs, [perm[i] for i in f.indices()]) not in family:
                return NotWInvariant
    for flat in reference_all_flats(rs):
        inside = [g for g in family if flat.contains(g)]
        maximal = [
            g for g in inside if not any(h != g and h.contains(g) for h in inside)
        ]
        if sum(g.dim for g in maximal) != flat.dim:
            return NotBuilding
        union = [i for g in maximal for i in g.indices()]
        if flat_closure(rs, union) != flat:
            return NotBuilding
    return None


@cache
def family_pool(name):
    """(root system, the flats every drawn family holds, the W-orbits of the
    other flats) for the random families of the property test."""
    rs = build_root_system(name)
    fixed = line_flats(rs) + [full_flat(rs)]
    perms = generator_root_perms(rs, enumerate_group(rs))
    others = [f for f in reference_all_flats(rs) if f not in fixed]
    orbits = []
    for f in others:
        if any(f in orbit for orbit in orbits):
            continue
        orbit, frontier = {f}, [f]
        while frontier:
            g = frontier.pop()
            for perm in perms:
                moved = flat_closure(rs, [perm[i] for i in g.indices()])
                if moved not in orbit:
                    orbit.add(moved)
                    frontier.append(moved)
        orbits.append(sorted(orbit))
    return rs, fixed, orbits


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["A3", "B3"]), st.data())
def test_validation_agrees_with_group_matrix_reference(name, data):
    """V, every line, a union of W-orbits of the other flats, and a few of
    those flats toggled, so that invariant, non-invariant and
    non-decomposing families are all drawn."""
    rs, fixed, orbits = family_pool(name)
    chosen = data.draw(st.sets(st.sampled_from(range(len(orbits)))))
    family = set(fixed).union(*(orbits[k] for k in chosen))
    toggled = data.draw(
        st.sets(st.sampled_from([f for orbit in orbits for f in orbit]), max_size=3)
    )
    family ^= toggled
    expected = reference_validation_error(rs, family)
    if expected is None:
        assert validate_building_set(rs, family).flats == frozenset(family)
    else:
        with pytest.raises(expected):
            validate_building_set(rs, family)
