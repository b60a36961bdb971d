import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pnh.errors import GroupTooLarge, UnsupportedType
from pnh.roots import (
    RootSystem,
    build_root_system,
    diagram_automorphisms,
    parse_type_spec,
)


def test_parse_type_spec():
    assert parse_type_spec("A3") == (("A", 3),)
    assert parse_type_spec("A1^3") == (("A", 1),) * 3
    assert parse_type_spec("a2xb2") == (("A", 2), ("B", 2))
    for bad in ["Q9", "A0", "B1", "C1", "D2", "", "A1^0"]:
        with pytest.raises(UnsupportedType):
            parse_type_spec(bad)
    # |W| >= 2^rank: rank 16 is over a cap below 2^16 before any expansion
    with pytest.raises(GroupTooLarge, match="rank 16: "):
        parse_type_spec("A1^16", group_cap=2**16 - 1)
    assert parse_type_spec("A1^16", group_cap=2**16) == (("A", 1),) * 16


def test_a2_roots_weights_delta():
    rs = build_root_system("A2")
    assert rs.positive_roots == ((1, 0), (0, 1), (1, 1))
    assert rs.weights == (
        (Fraction(2, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(2, 3)),
    )
    assert rs.delta == (1, 1)
    # the defining property of the weight basis
    for i, w in enumerate(rs.weights):
        for j, alpha in enumerate(rs.positive_roots[:2]):
            expected = rs.inner(alpha, alpha) / 2 if i == j else 0
            assert rs.inner(w, alpha) == expected


def test_positive_root_counts():
    for spec, count in [
        ("A3", 6),
        ("B2", 4),
        ("B3", 9),
        ("C3", 9),
        ("D4", 12),
        ("A1^5", 5),
    ]:
        assert len(build_root_system(spec).positive_roots) == count


def test_b2_and_c2_are_transpose_conventions():
    b2 = build_root_system("B2")
    c2 = build_root_system("C2")
    assert b2.cartan == tuple(
        tuple(row[i] for row in c2.cartan) for i in range(2)
    )
    # short roots have squared length 2, long roots 4
    assert {b2.inner(r, r) for r in b2.positive_roots} == {2, 4}


def test_delta_is_strictly_dominant():
    for spec in ["A3", "B3", "D4", "A1^3"]:
        rs = build_root_system(spec)
        for i in range(rs.rank):
            alpha = rs.positive_roots[i]
            assert rs.inner(rs.delta, alpha) > 0


def test_diagram_automorphism_counts():
    assert len(diagram_automorphisms(build_root_system("A2"))) == 2
    assert len(diagram_automorphisms(build_root_system("A3"))) == 2
    assert len(diagram_automorphisms(build_root_system("B3"))) == 1
    # full symmetric group on the three outer nodes
    assert len(diagram_automorphisms(build_root_system("D4"))) == 6
    assert len(diagram_automorphisms(build_root_system("A1^3"))) == 6


def test_diagram_automorphism_permutes_positive_roots():
    rs = build_root_system("D4")
    for auto in diagram_automorphisms(rs):
        images = set()
        for r in rs.positive_roots:
            image = tuple(
                sum(auto.matrix[i][j] * r[j] for j in range(4)) for i in range(4)
            )
            assert image in rs.root_index
            images.add(image)
        assert len(images) == len(rs.positive_roots)


def test_from_gram_without_type_labels():
    rs = RootSystem.from_gram([[2, -1], [-1, 2]])
    assert rs.components is None
    assert len(rs.positive_roots) == 3
    assert rs.type_name() == "rank-2 subsystem"


@pytest.mark.parametrize(
    "gram",
    [[[2, -2], [-2, 2]], [[2, -3], [-3, 2]], [[2, -1], [0, 2]]],
    ids=["affine", "indefinite", "non-symmetric"],
)
def test_a_gram_matrix_not_positive_definite_is_refused(gram):
    # each has infinitely many roots, so the root walk would never end: it
    # runs in a child process, where a regression fails at the timeout
    # instead of hanging the suite
    code = (
        "from pnh.errors import UnsupportedType\n"
        "from pnh.roots import RootSystem\n"
        "try:\n"
        f"    RootSystem.from_gram({gram!r})\n"
        "except UnsupportedType as exc:\n"
        "    print(exc)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True, timeout=30,
    ).stdout
    assert out == "Gram matrix is not symmetric positive definite\n"


def test_root_lengths_read_from_the_integer_gram():
    h = Fraction(1, 2)
    rs = RootSystem.from_gram(((1, -h), (-h, 1)))
    assert rs.gram_scale == 2 and rs.int_gram == ((2, -1), (-1, 2))
    # a named type whose Gram matrix gives it other root lengths
    for gram, components, lengths in [
        (((6, -3), (-3, 6)), (("A", 2),), "{Fraction(6, 1)}"),
        (((1, -h), (-h, 1)), (("A", 2),), "{Fraction(1, 1)}"),
        (((8, -4), (-4, 4)), (("B", 2),), "{Fraction(8, 1), Fraction(4, 1)}"),
    ]:
        with pytest.raises(UnsupportedType) as info:
            RootSystem(gram, components)
        assert str(info.value) == f"unexpected root lengths {lengths}"
