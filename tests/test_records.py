"""The records of ``pnh`` are named tuples: hashed, ordered and printed as
the tuple of their fields, and immutable."""

from copy import copy

import pytest

from pnh.flats import _sub_root_system
from pnh.halfspaces import verify_epsilon_lemma
from pnh.nested import enumerate_nested_sets
from pnh.roots import diagram_automorphisms

RECORDS = {
    "Flat", "FlatData", "SubRootSystem", "SuitableList", "LemmaReport",
    "HalfSpace", "NestedSet", "CombinatorialBuildingSet",
    "FacePair", "VRep", "CheckReport", "FacetFactorisation",
    "DiagramAutomorphism", "Subgroup",
}


def fields(record):
    return tuple(getattr(record, f) for f in record._fields)


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


def records_of(model):
    """At least one instance of every record class, made from ``model``."""
    building = model.building
    # a facet with labels is a crossing facet
    facet = next(
        f
        for f in model.faces
        if f.labels and model.face_ctx.dimension(f) == model.rs.rank - 1
    )
    factorisation = model.facet_factorisation(facet)
    member = max(building.fund)
    yield from building.sorted_flats
    yield from building.fund_data.values()
    yield _sub_root_system(model.rs, member)
    yield model.suitable
    yield verify_epsilon_lemma(building, model.suitable)
    yield from model.halfspaces
    yield from enumerate_nested_sets(building)
    yield factorisation.quotient
    yield from model.faces
    yield model.vrep
    yield from model.verify("fast")
    yield factorisation
    yield from diagram_automorphisms(model.rs)
    yield model.face_ctx.parabolic(member)


@pytest.mark.parametrize("name", ["a3_min", "b3_max", "d4_min"])
def test_records_behave_as_their_field_tuples(name, request):
    model = request.getfixturevalue(name)
    seen = set()
    for record in records_of(model):
        cls = type(record)
        seen.add(cls.__name__)
        assert isinstance(record, tuple)
        values = fields(record)
        assert hash_or_error(record) == hash_or_error(values)
        assert repr(record) == cls.__name__ + "(" + ", ".join(
            f"{f}={v!r}" for f, v in zip(record._fields, values)
        ) + ")"
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], values[0])
        assert copy(record) == record
    assert seen == RECORDS
    for items in (
        list(model.building.flats),
        enumerate_nested_sets(model.building),
        model.faces,
    ):
        assert sorted(items) == sorted(items, key=fields)
