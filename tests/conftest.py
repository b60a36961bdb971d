"""Session-scoped model fixtures shared by the unit and acceptance tests,
and the ``Fraction`` oracle of a half-space's stored form."""

from fractions import Fraction

import pytest

from pnh.flats import build_maximal, build_minimal
from pnh.linalg import mat_vec, primitive_vector
from pnh.model import Permutonestohedron
from pnh.roots import build_root_system
from pnh.weyl import enumerate_group


def primitive_key(normal, offset) -> tuple:
    """(x, normal) <= offset as (primitive integer normal, offset rescaled to
    match), made from the ``Fraction`` normal."""
    prim = primitive_vector(normal)
    scale = next(Fraction(p) / x for p, x in zip(prim, normal) if x)
    return prim, offset * scale


def generator_root_perms(rs, weyl) -> list[tuple[int, ...]]:
    """Per generator of the enumerated group, the permutation of the positive
    roots its matrix induces, signs dropped: the reference for
    ``rs.simple_reflection_perms``."""
    perms = []
    for g in weyl.generator_ids:
        images = []
        for root in rs.positive_roots:
            img = mat_vec(weyl.elements[g], root)
            if any(c < 0 for c in img):
                img = tuple(-c for c in img)
            images.append(rs.root_index[img])
        perms.append(tuple(images))
    return perms


def simple_reflection_matrix(cartan, i: int) -> tuple:
    """s_i in simple-root coordinates: x - (row i of C) . x alpha_i."""
    n = len(cartan)
    return tuple(
        tuple((r == j) - (cartan[i][j] if r == i else 0) for j in range(n))
        for r in range(n)
    )


def make_model(spec: str, kind: str) -> Permutonestohedron:
    rs = build_root_system(spec)
    builder = build_minimal if kind == "minimal" else build_maximal
    return Permutonestohedron(builder(rs), weyl=enumerate_group(rs))


@pytest.fixture(scope="session")
def a2():
    # the two canonical building sets coincide in rank 2
    return make_model("A2", "minimal")


@pytest.fixture(scope="session")
def b2():
    return make_model("B2", "minimal")


@pytest.fixture(scope="session")
def a3_min():
    return make_model("A3", "minimal")


@pytest.fixture(scope="session")
def a3_max():
    return make_model("A3", "maximal")


@pytest.fixture(scope="session")
def a4_min():
    return make_model("A4", "minimal")


@pytest.fixture(scope="session")
def b3_min():
    return make_model("B3", "minimal")


@pytest.fixture(scope="session")
def b3_max():
    return make_model("B3", "maximal")


@pytest.fixture(scope="session")
def a13_min():
    return make_model("A1^3", "minimal")


@pytest.fixture(scope="session")
def d4_min():
    return make_model("D4", "minimal")
