import pytest

from pnh.errors import MissingV, NotBuilding, NotWInvariant, TooManyFlats
from pnh.flats import (
    all_flats,
    build_maximal,
    build_minimal,
    flat_closure,
    flat_sum,
    full_flat,
    fundamental_flats,
    interval_building_set,
    irreducible_components,
    is_irreducible,
    line_flats,
    restricted_building_set,
    simple_index_set,
    validate_building_set,
)
from pnh.roots import build_root_system
from pnh.weyl import enumerate_group


def test_flat_counts():
    for spec, count in [("A2", 4), ("B2", 5), ("A3", 14), ("B3", 23), ("D4", 71)]:
        assert len(all_flats(build_root_system(spec))) == count


def test_flat_cap():
    with pytest.raises(TooManyFlats):
        all_flats(build_root_system("D4"), cap=10)


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
    w = enumerate_group(rs)
    mn = build_minimal(rs, w)
    mx = build_maximal(rs, w)
    assert (len(mn.flats), len(mn.fund)) == (11, 6)
    assert (len(mx.flats), len(mx.fund)) == (14, 7)
    assert full_flat(rs) in mn and full_flat(rs) in mx
    # D4: three branch pairs and three length-3 subdiagrams are irreducible
    rsd = build_root_system("D4")
    mnd = build_minimal(rsd, enumerate_group(rsd))
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
    w = enumerate_group(rs)
    # adding a single reducible plane breaks group invariance
    family = list(build_minimal(rs).flats) + [flat_closure(rs, [0, 2])]
    with pytest.raises(NotWInvariant):
        validate_building_set(rs, family, weyl=w)


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
    w = enumerate_group(rs)
    b = build_minimal(rs, w)
    a2_flat = next(f for f in b.fund if f.dim == 2)
    sub = restricted_building_set(b, a2_flat)
    assert len(sub.rs.positive_roots) == 3
    assert len(sub.flats) == 4  # three lines and the plane itself
    assert sub.parent_flat == a2_flat


def test_preserved_diagram_automorphisms_recorded():
    rs = build_root_system("D4")
    w = enumerate_group(rs)
    mn = build_minimal(rs, w)
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
    mn = build_minimal(rs, w)
    mx = build_maximal(rs, w)
    assert len(calls) == 2
    # the record replaces a third enumeration in the verification battery
    assert (mn.contains_every_flat, mx.contains_every_flat) == (False, True)
    for building, maximal in ((mn, False), (mx, True)):
        model = Permutonestohedron(building, weyl=w)
        assert model.is_maximal_building is maximal
        assert all(r.passed for r in model.verify("full"))
    assert len(calls) == 2
    # a custom family holding every flat is recorded as such
    assert validate_building_set(rs, every(rs), weyl=w).contains_every_flat
    assert len(calls) == 3
