"""Exact rational vectors, matrices and fraction-free elimination.

Scalars are ``fractions.Fraction`` (plain ``int`` mixes freely), vectors are
tuples, matrices are tuples of row tuples.  Everything is immutable and
exact; no floating point enters this module.  Elimination is done
fraction-free (Bareiss style) on integer rows obtained by clearing
denominators, which keeps intermediate entries small and avoids Fraction
normalisation costs in hot paths.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd
from operator import mul

from .errors import SingularSystem

Scalar = Fraction
Vec = tuple
Mat = tuple


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def vsub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y, strict=True))


def vdot(x: Vec, y: Vec):
    return sum(a * b for a, b in zip(x, y, strict=True))


def mat_vec(m: Mat, x: Vec) -> Vec:
    return tuple(vdot(row, x) for row in m)


def int_mat_vec(m: Mat, x: Sequence[int]) -> tuple[int, ...]:
    """``mat_vec`` for integer entries of matching length, without its
    per-entry length check: Gram rows, chamber signs and root images."""
    return tuple([sum(map(mul, row, x)) for row in m])


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = tuple(zip(*b))
    return tuple(tuple(vdot(row, col) for col in cols) for row in a)


def integer_row(row: Sequence) -> tuple[int, ...]:
    """Scale a rational row by a positive rational to integer entries."""
    if all(type(x) is int for x in row):
        return tuple(row)
    fracs = [Fraction(x) for x in row]
    mult = 1
    for f in fracs:
        d = f.denominator
        mult = mult * d // gcd(mult, d)
    return tuple(int(f * mult) for f in fracs)


def primitive_vector(row: Sequence) -> tuple[int, ...]:
    """Positive-rational rescaling of ``row`` to coprime integers.

    The direction (overall sign) is preserved, so the result canonically
    represents the ray spanned by ``row``.
    """
    ints = integer_row(row)
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        return ints
    return tuple(x // g for x in ints)


class Echelon:
    """Incremental integer row echelon for exact rank and span membership.

    Rows are kept in staircase form ordered by pivot column.  ``add``
    reduces the incoming vector against the stored rows; a nonzero
    remainder extends the span.
    """

    def __init__(self):
        self.rows: list[tuple[int, ...]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, v: tuple[int, ...]) -> tuple[int, ...]:
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                a, b = row[p], v[p]
                v = tuple(a * x - b * y for x, y in zip(v, row))
                g = 0
                for x in v:
                    g = gcd(g, x)
                if g > 1:
                    v = tuple(x // g for x in v)
        return v

    def residue(self, vector: Sequence) -> tuple[int, ...]:
        return self._reduce(integer_row(vector))

    def contains(self, vector: Sequence) -> bool:
        return all(x == 0 for x in self.residue(vector))

    def add(self, vector: Sequence) -> bool:
        """Insert ``vector``; return True when it enlarged the span."""
        v = self.residue(vector)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        at = next((k for k, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        return True


def solve_integer(
    a: Sequence[Sequence[int]], bs: Sequence[Sequence[int]]
) -> tuple[list[Vec], int]:
    """(ys, d) with a @ y = d * b for each b in ``bs`` and its y, for a square
    integer matrix ``a``: d is its determinant up to sign, nonzero, so y / d
    solves a @ x = b; one elimination pass, and no Fraction is made.
    Raises SingularSystem when ``a`` is not invertible."""
    rows = [tuple(row) + tuple(b[i] for b in bs) for i, row in enumerate(a)]
    return _eliminate(rows, len(a), len(bs))


def _eliminate(rows: list[tuple[int, ...]], n: int, k: int) -> tuple[list, int]:
    """(integer y per right-hand side, d) for n integer rows of n
    coefficients and k right-hand sides, with x = y / d."""
    # Fraction-free forward elimination (Bareiss): entries stay integral and
    # the exact divisions below never truncate.
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            raise SingularSystem(f"no pivot in column {col}")
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
        top = rows[col]
        lead = top[col]
        for r in range(col + 1, n):
            row, fac = rows[r], rows[r][col]
            rows[r] = [(lead * x - fac * y) // prev for x, y in zip(row, top)]
        prev = lead

    # The last pivot is the determinant d of the permuted integer matrix, so
    # d * x is an integer vector (Cramer's rule): back-substitute it in
    # integers, where every division is exact, and divide by d once.
    det = rows[n - 1][n - 1] if n else 1
    solutions = []
    for which in range(n, n + k):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = rows[i]
            y[i] = (det * row[which] - sum(map(mul, row[i + 1:n], y[i + 1:]))) // row[i]
        solutions.append(tuple(y))
    return solutions, det
