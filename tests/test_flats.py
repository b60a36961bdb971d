import time
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
)
from conftest import generator_root_perms
from materialised import antichain_nested_sets, general_restriction
from pnh.linalg import Echelon, int_mat_vec
from pnh.nested import enumerate_nested_sets
from pnh.roots import RootSystem, build_root_system, diagram_automorphisms
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


def reference_recorded_facts(rs, family, every):
    """The diagram symmetries that preserve ``family`` and whether it holds
    every flat of ``every``: each symmetry's permutation of the positive
    roots applied to every member, and the family against every flat."""
    family = frozenset(family)
    preserved = []
    for auto in diagram_automorphisms(rs):
        perm = [rs.root_index[int_mat_vec(auto.matrix, r)] for r in rs.positive_roots]
        if all(
            Flat(f.dim, sum(1 << perm[i] for i in f.indices())) in family
            for f in family
        ):
            preserved.append(auto)
    return tuple(preserved), family.issuperset(every)


@cache
def oracle_system(name):
    if name != "B4-restricted":
        return build_root_system(name)
    # the long-root A3 spanned by a non-fundamental member flat of B4 minimal
    return RootSystem.from_gram(((4, -2, 0), (-2, 4, -2), (0, -2, 4)))


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


def scanned_decomposition(building, flat):
    """The maximal members inside ``flat``, found by scanning every member:
    the reference for ``BuildingSet.g_decomposition``."""
    inside = [g for g in building.sorted_flats if flat.contains(g)]
    return tuple(
        sorted(
            g
            for g in inside
            if not any(h is not g and h.contains(g) for h in inside)
        )
    )


@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "A2xB2"])
@pytest.mark.parametrize("builder", [build_minimal, build_maximal])
def test_g_decomposition_equals_member_scan(spec, builder):
    rs = build_root_system(spec)
    building = builder(rs)
    for flat in all_flats(rs):
        got = building.g_decomposition(flat)
        assert got == scanned_decomposition(building, flat)
        if flat in building:
            assert got == (flat,)


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


def test_restriction_refuses_a_member_not_spanned_by_simple_roots():
    b4 = build_minimal(build_root_system("B4"))
    flat = next(f for f in b4.sorted_flats if f.dim == 3 and f not in b4.fund)
    with pytest.raises(NotBuilding, match="is not spanned by simple roots$"):
        restricted_building_set(b4, flat)
    # the general restriction reads it as the long-root A3 of oracle_system
    system = general_restriction(b4, flat)[0]
    oracle = oracle_system("B4-restricted")
    assert (system.int_gram, system.positive_roots) == (
        oracle.int_gram,
        oracle.positive_roots,
    )


def test_preserved_diagram_automorphisms_recorded():
    mn = build_minimal(build_root_system("D4"))
    assert len(mn.preserved_diagram_automorphisms) == 6


def test_only_build_maximal_lists_every_flat(monkeypatch):
    """With ``all_flats`` made to raise, the minimal builder, validation
    (direct and from a file), the interval and restricted families and a
    full verify still succeed; ``build_maximal`` lists the flats once."""
    import pnh.flats as flats_module
    from pnh.exports import building_from_json
    from pnh.model import Permutonestohedron

    rs = build_root_system("A3")
    every = all_flats(rs)
    doc = {
        "roots": [list(r) for r in rs.positive_roots],
        "flats": [list(f.indices()) for f in every],
    }

    def refused(*args, **kwargs):
        raise AssertionError("all_flats called")

    monkeypatch.setattr(flats_module, "all_flats", refused)
    mn = build_minimal(rs)
    assert not mn.contains_every_flat
    assert validate_building_set(rs, every).contains_every_flat
    assert building_from_json(rs, doc).contains_every_flat
    assert len(interval_building_set(3).flats) == 6
    plane = next(f for f in mn.fund if f.dim == 2)
    assert len(restricted_building_set(mn, plane).flats) == 4
    model = Permutonestohedron(mn)
    assert not model.is_maximal_building
    assert all(r.passed for r in model.verify("full"))

    calls = []

    def counted(rs, *args, **kwargs):
        calls.append(rs)
        return all_flats(rs, *args, **kwargs)

    monkeypatch.setattr(flats_module, "all_flats", counted)
    assert build_maximal(rs).contains_every_flat
    assert calls == [rs]


def test_build_minimal_lists_only_its_members():
    # listing every flat of these takes seconds; their members alone do not
    for spec, count in (("A8", 502), ("B7", 1213), ("D7", 1185)):
        rs = build_root_system(spec)
        start = time.perf_counter()
        building = build_minimal(rs)
        elapsed = time.perf_counter() - start
        assert len(building.flats) == count
        assert elapsed < 1.0, (spec, elapsed)


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
        assert built.sorted_flats == tuple(sorted(family))
        assert (
            built.preserved_diagram_automorphisms,
            built.contains_every_flat,
        ) == reference_recorded_facts(rs, family, every)


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
    other flats, every flat) for the random families of the property
    test."""
    rs = build_root_system(name)
    fixed = line_flats(rs) + [full_flat(rs)]
    perms = generator_root_perms(rs, enumerate_group(rs))
    every = reference_all_flats(rs)
    others = [f for f in every if f not in fixed]
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
    return rs, fixed, orbits, every


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["A3", "B3", "D4"]), st.data())
def test_validation_agrees_with_group_matrix_reference(name, data):
    """V, every line, a union of W-orbits of the other flats, and a few of
    those flats toggled, so that invariant, non-invariant and
    non-decomposing families are all drawn.  An accepted family also
    records the reference's diagram symmetries (D4 has six, triality
    among them) and maximality flag, and lists the nested sets the
    antichain search lists."""
    rs, fixed, orbits, every = family_pool(name)
    chosen = data.draw(st.sets(st.sampled_from(range(len(orbits)))))
    family = set(fixed).union(*(orbits[k] for k in chosen))
    toggled = data.draw(
        st.sets(st.sampled_from([f for orbit in orbits for f in orbit]), max_size=3)
    )
    family ^= toggled
    expected = reference_validation_error(rs, family)
    if expected is None:
        building = validate_building_set(rs, family)
        assert building.flats == frozenset(family)
        assert (
            building.preserved_diagram_automorphisms,
            building.contains_every_flat,
        ) == reference_recorded_facts(rs, family, every)
        assert enumerate_nested_sets(building) == antichain_nested_sets(building)
    else:
        with pytest.raises(expected):
            validate_building_set(rs, family)
