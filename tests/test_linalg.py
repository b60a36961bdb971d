from fractions import Fraction

import pytest

from pnh.errors import SingularSystem
from pnh.linalg import (
    Echelon,
    integer_row,
    primitive_vector,
    rank,
    solve_columns,
    solve_linear_system,
)


def vec(entries):
    """A vector of ``Fraction`` entries, so the rational paths are taken."""
    return tuple(Fraction(x) for x in entries)


def test_primitive_vector_clears_denominators_and_common_factors():
    assert primitive_vector(vec([Fraction(2, 3), Fraction(-4, 9)])) == (3, -2)
    assert primitive_vector(vec([4, 6, -2])) == (2, 3, -1)
    # direction (sign) is preserved
    assert primitive_vector(vec([Fraction(-1, 2), 0])) == (-1, 0)


def test_integer_row_scales_to_integers():
    row = integer_row(vec([Fraction(1, 2), Fraction(1, 3)]))
    assert all(x.denominator == 1 for x in row)
    assert row[0] * 2 == row[1] * 3


def test_echelon_membership_and_rank():
    e = Echelon()
    assert e.add(vec([1, 0, 0]))
    assert e.add(vec([0, 1, 0]))
    assert not e.add(vec([1, 1, 0]))  # dependent
    assert e.contains(vec([Fraction(3, 7), -2, 0]))
    assert not e.contains(vec([0, 0, 1]))
    assert rank([vec([1, 2]), vec([2, 4]), vec([0, 1])]) == 2


def test_solve_linear_system_exact():
    m = [vec([2, 1]), vec([1, -1])]
    x = solve_linear_system(m, vec([Fraction(7), Fraction(-1)]))
    assert x == (Fraction(2), Fraction(3))


def test_solve_columns_matches_inverse():
    m = [vec([1, 2]), vec([3, 5])]
    cols = solve_columns(m, [vec([1, 0]), vec([0, 1])])
    # m times the solution columns gives the identity
    for j, col in enumerate(cols):
        for i in range(2):
            got = sum(m[i][k] * col[k] for k in range(2))
            assert got == (1 if i == j else 0)


def test_singular_system_raises():
    with pytest.raises(SingularSystem):
        solve_linear_system([vec([1, 2]), vec([2, 4])], vec([1, 1]))
