import pytest

from pnh.errors import MissingV, NotBuilding, TooManyNestedSets
from pnh.flats import (
    build_maximal,
    build_minimal,
    flat_closure,
    full_flat,
    interval_building_set,
    iter_bits,
)
from pnh.nested import (
    CombinatorialBuildingSet,
    enumerate_maximal_nested_sets,
    enumerate_nested_sets,
    is_nested,
    quotient_building_set,
)
from pnh.roots import build_root_system


def _flats(rs, *index_lists):
    return [flat_closure(rs, idxs) for idxs in index_lists]


def to_combinatorial(building):
    """Index-set image of the fundamental part of a geometric building set."""
    ground = frozenset(range(building.rs.rank))
    members = frozenset(
        frozenset(iter_bits(m)) for m in building.fund_index_sets.values()
    )
    out = CombinatorialBuildingSet(ground, members)
    out.validate()
    return out


def test_nested_set_counts():
    rs3 = build_root_system("A3")
    mn, mx = build_minimal(rs3), build_maximal(rs3)
    assert len(enumerate_nested_sets(mn)) == 11
    assert len(enumerate_maximal_nested_sets(mn)) == 5
    assert len(enumerate_nested_sets(mx)) == 13
    assert len(enumerate_maximal_nested_sets(mx)) == 6
    rsb = build_root_system("B3")
    assert len(enumerate_maximal_nested_sets(build_minimal(rsb))) == 5
    assert len(enumerate_maximal_nested_sets(build_maximal(rsb))) == 6


def test_maximal_nested_sets_have_full_cardinality():
    b = build_minimal(build_root_system("D4"))
    for s in enumerate_maximal_nested_sets(b):
        assert len(s) == 4
        assert s.flats[-1] == full_flat(b.rs)


def test_antichain_summing_into_family_is_rejected():
    rs = build_root_system("A3")
    mn, mx = build_minimal(rs), build_maximal(rs)
    v = full_flat(rs)
    l0, l1, l2 = _flats(rs, [0], [1], [2])
    # the span of the two adjacent lines belongs to both families
    assert not is_nested(mn, [l0, l1, v])
    assert not is_nested(mx, [l0, l1, v])
    # the orthogonal pair spans a plane only the maximal family contains
    assert is_nested(mn, [l0, l2, v])
    assert not is_nested(mx, [l0, l2, v])
    # chains are always nested
    plane = flat_closure(rs, [0, 1])
    assert is_nested(mn, [l0, plane, v])


def test_is_nested_input_checking():
    rs = build_root_system("A3")
    mn = build_minimal(rs)
    v = full_flat(rs)
    with pytest.raises(MissingV):
        is_nested(mn, _flats(rs, [0]))
    with pytest.raises(ValueError):
        # reducible plane is not a member of the minimal family
        is_nested(mn, _flats(rs, [0, 2]) + [v])


def test_nested_cap():
    b = build_maximal(build_root_system("D4"))
    with pytest.raises(TooManyNestedSets):
        enumerate_nested_sets(b, cap=10)


def test_nested_sets_are_sorted_with_v_last():
    b = build_minimal(build_root_system("A3"))
    for s in enumerate_nested_sets(b):
        assert s.flats[-1] == full_flat(b.rs)
        assert list(s.flats) == sorted(s.flats)


def test_combinatorial_building_set_validation():
    ground = frozenset([0, 1, 2])
    good = CombinatorialBuildingSet(
        ground,
        frozenset(
            frozenset(s) for s in [{0}, {1}, {2}, {0, 1}, {0, 1, 2}]
        ),
    )
    good.validate()
    assert len(good.nested_sets()) > 0
    bad = CombinatorialBuildingSet(
        ground,
        frozenset(frozenset(s) for s in [{0}, {1}, {2}, {0, 1}, {1, 2}]),
    )
    with pytest.raises(NotBuilding):
        bad.validate()  # union of overlapping members missing


def test_quotient_building_set_collapses_parts():
    rs = build_root_system("A3")
    b = build_minimal(rs)
    a2_flat = flat_closure(rs, [0, 1])
    quot = quotient_building_set(b, (a2_flat,))
    # one residual simple index survives
    assert len(quot.ground) == 1
    assert len(quot.nested_sets()) == 1

    line = flat_closure(rs, [1])
    quot2 = quotient_building_set(b, (line,))
    assert len(quot2.ground) == 2
    # the residual family is the full family on two points: a segment
    assert len([s for s in quot2.nested_sets() if len(s) == 2]) == 2


def test_to_combinatorial_matches_geometric_nested_sets():
    b = build_minimal(build_root_system("A3"))
    comb = to_combinatorial(b)
    assert len(comb.nested_sets()) == len(enumerate_nested_sets(b))


def test_interval_family_gives_catalan_counts():
    # ground of size 3: five maximal nested sets, like bracketings of four terms
    b = interval_building_set(3)
    assert len(enumerate_maximal_nested_sets(b)) == 5
    b4 = interval_building_set(4)
    assert len(enumerate_maximal_nested_sets(b4)) == 14
