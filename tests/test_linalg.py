from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _solve_columns_by_fractions(a, bs):
    """The Bareiss pass of ``solve_columns`` followed by back-substitution in
    ``Fraction`` arithmetic, one division per step: the reference for the
    integer back-substitution."""
    n, k = len(a), len(bs)
    rows = [integer_row(tuple(a[i]) + tuple(b[i] for b in bs)) for i in range(n)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            raise SingularSystem(f"no pivot in column {col}")
        rows[col], rows[piv] = rows[piv], rows[col]
        lead = rows[col][col]
        for r in range(col + 1, n):
            fac = rows[r][col]
            rows[r] = tuple(
                (lead * rows[r][j] - fac * rows[col][j]) // prev for j in range(n + k)
            )
        prev = lead
    solutions = []
    for which in range(k):
        x = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            acc = Fraction(rows[i][n + which])
            for j in range(i + 1, n):
                acc -= rows[i][j] * x[j]
            x[i] = acc / rows[i][i]
        solutions.append(tuple(x))
    return solutions


_entries = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
)


@st.composite
def _systems(draw):
    """A square system with several right-hand sides; about one in three has
    a row that is a multiple of another, so it is singular."""
    n = draw(st.integers(1, 5))
    a = [draw(st.lists(_entries, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.integers(0, 2)) == 0:
        i, j = draw(st.permutations(range(n)))[:2]
        a[i] = [draw(_entries) * x for x in a[j]]
    rhs = st.lists(_entries, min_size=n, max_size=n)
    bs = draw(st.lists(rhs, min_size=1, max_size=4))
    return a, bs


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_solve_columns_equals_fraction_back_substitution(system):
    a, bs = system
    try:
        expected = _solve_columns_by_fractions(a, bs)
    except SingularSystem:
        with pytest.raises(SingularSystem):
            solve_columns(a, bs)
        return
    got = solve_columns(a, bs)
    assert got == expected
    for b, x in zip(bs, got):
        assert all(type(v) is Fraction for v in x)
        assert [sum(r * v for r, v in zip(row, x)) for row in a] == list(b)
