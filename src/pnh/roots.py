"""Classical root systems of type A/B/C/D in simple-root coordinates.

A root system is carried entirely by the Gram matrix of its simple roots:
every vector in the package is a coordinate tuple in the simple-root basis
and inner products go through the Gram matrix.  Types are normalised so the
short roots of every irreducible component have squared length 2 (long
roots then have squared length 4 in types B and C).

``RootSystem.from_gram`` builds the system spanned by an arbitrary base of
simple roots (used for sub-root-systems cut out by flats); such systems
skip the type-specific normalisation checks but satisfy all structural
ones.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .errors import GroupTooLarge, UnsupportedType
from .linalg import Mat, Vec, int_mat_vec, mat_vec, rank, solve_columns, vdot

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}

_COMPONENT_RE = re.compile(r"^([ABCD])([0-9]+)(?:\^([0-9]+))?$")


def parse_type_spec(
    text: str, group_cap: int | None = None
) -> tuple[tuple[str, int], ...]:
    """Parse a type string like ``"A3"``, ``"B4"``, ``"A1^5"`` or ``"A2xA1"``.

    With ``group_cap``, raises GroupTooLarge when the total rank alone puts
    the group over it (|W| >= 2^rank), before any power is expanded.
    """
    parsed = []
    for part in text.replace(" ", "").upper().split("X"):
        m = _COMPONENT_RE.match(part)
        if not m:
            raise UnsupportedType(f"cannot parse component {part!r} of {text!r}")
        letter, rk, power = m.group(1), int(m.group(2)), int(m.group(3) or 1)
        if rk < _MIN_RANK[letter]:
            raise UnsupportedType(f"{letter}{rk}: rank must be >= {_MIN_RANK[letter]}")
        if power < 1:
            raise UnsupportedType(f"{part}: power must be >= 1")
        parsed.append((letter, rk, power))
    total = sum(rk * power for _, rk, power in parsed)
    if group_cap is not None and total >= max(group_cap, 0).bit_length():
        raise GroupTooLarge(f"rank {total}: |W| >= 2^{total} exceeds cap {group_cap}")
    return tuple((letter, rk) for letter, rk, power in parsed for _ in range(power))


def _component_gram(letter: str, m: int) -> list[list[int]]:
    g = [[0] * m for _ in range(m)]
    if letter == "A":
        for i in range(m):
            g[i][i] = 2
        for i in range(m - 1):
            g[i][i + 1] = g[i + 1][i] = -1
    elif letter == "B":
        # long roots along the path, one short root at the end
        for i in range(m - 1):
            g[i][i] = 4
        g[m - 1][m - 1] = 2
        for i in range(m - 1):
            g[i][i + 1] = g[i + 1][i] = -2
    elif letter == "C":
        # short roots along the path, one long root at the end
        for i in range(m - 1):
            g[i][i] = 2
        g[m - 1][m - 1] = 4
        for i in range(m - 2):
            g[i][i + 1] = g[i + 1][i] = -1
        if m >= 2:
            g[m - 2][m - 1] = g[m - 1][m - 2] = -2
    elif letter == "D":
        for i in range(m):
            g[i][i] = 2
        for i in range(m - 2):
            g[i][i + 1] = g[i + 1][i] = -1
        g[m - 3][m - 1] = g[m - 1][m - 3] = -1
    else:  # pragma: no cover - guarded by parse_type_spec
        raise UnsupportedType(letter)
    return g


def _expected_positive_count(letter: str, m: int) -> int:
    if letter == "A":
        return m * (m + 1) // 2
    if letter in ("B", "C"):
        return m * m
    return m * (m - 1)


def _reflect_simple(cartan, i: int, x: tuple) -> tuple:
    c = sum(cartan[i][j] * x[j] for j in range(len(x)))
    if c == 0:
        return x
    return x[:i] + (x[i] - c,) + x[i + 1 :]


class DiagramAutomorphism(namedtuple("DiagramAutomorphism", "perm matrix")):
    """A permutation of the simple roots preserving all inner products."""

    __slots__ = ()


class RootSystem:
    """Immutable root-system data: Gram, Cartan, positive roots, weights."""

    def __init__(self, gram: Mat, components: tuple[tuple[str, int], ...] | None):
        self.gram: Mat = tuple(tuple(Fraction(x) for x in row) for row in gram)
        # the Gram matrix scaled to integers: int_gram = gram_scale * gram
        self.gram_scale = math.lcm(*(x.denominator for row in self.gram for x in row))
        self.int_gram = tuple(
            tuple(int(x * self.gram_scale) for x in row) for row in self.gram
        )
        self.components = components
        self.rank = len(gram)
        self.cartan = self._cartan()
        self.positive_roots = self._enumerate_positive_roots()
        self.root_index = {r: i for i, r in enumerate(self.positive_roots)}
        self.weights = self._fundamental_weights()
        self.delta = tuple(
            sum(r[i] for r in self.positive_roots) / Fraction(2)
            for i in range(self.rank)
        )
        self._check()
        self.supports = tuple(
            sum(1 << j for j, c in enumerate(r) if c) for r in self.positive_roots
        )
        self.simple_reflection_perms = self._simple_reflection_perms()

    # -- construction -------------------------------------------------

    @classmethod
    def from_components(cls, components: tuple[tuple[str, int], ...]) -> "RootSystem":
        gram: list[list[int]] = []
        n = sum(m for _, m in components)
        offset = 0
        for letter, m in components:
            block = _component_gram(letter, m)
            for i in range(m):
                row = [0] * n
                row[offset : offset + m] = block[i]
                gram.append(row)
            offset += m
        return cls(tuple(tuple(r) for r in gram), components)

    @classmethod
    def from_gram(cls, gram) -> "RootSystem":
        return cls(tuple(tuple(row) for row in gram), None)

    def _cartan(self):
        n = self.rank
        cartan = []
        for i in range(n):
            d = self.gram[i][i]
            if d <= 0:
                raise UnsupportedType("Gram matrix is not positive on the diagonal")
            row = []
            for j in range(n):
                c = 2 * self.gram[i][j] / d
                if c.denominator != 1:
                    raise UnsupportedType("Gram matrix is not crystallographic")
                row.append(int(c))
            cartan.append(tuple(row))
        return tuple(cartan)

    def _enumerate_positive_roots(self):
        n = self.rank
        simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        seen = set(simple)
        queue = list(simple)
        while queue:
            x = queue.pop()
            for i in range(n):
                y = _reflect_simple(self.cartan, i, x)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        positive = [r for r in seen if all(c >= 0 for c in r)]
        negative = [r for r in seen if all(c <= 0 for c in r)]
        if len(positive) + len(negative) != len(seen):
            raise UnsupportedType("reflection orbit produced mixed-sign roots")
        rest = sorted(
            (r for r in positive if sum(r) > 1), key=lambda r: (sum(r), r)
        )
        return tuple(simple) + tuple(rest)

    def _fundamental_weights(self):
        targets = []
        for i in range(self.rank):
            col = [Fraction(0)] * self.rank
            col[i] = self.gram[i][i] / Fraction(2)
            targets.append(tuple(col))
        return tuple(solve_columns(self.gram, targets))

    def _simple_reflection_perms(self):
        """For each simple reflection s_i, the permutation of the positive
        roots it induces with signs dropped (s_i sends alpha_i to -alpha_i
        and permutes the other positive roots)."""
        perms = []
        for i in range(self.rank):
            images = []
            for r in self.positive_roots:
                img = _reflect_simple(self.cartan, i, r)
                if img[i] < 0:
                    img = tuple(-c for c in img)
                images.append(self.root_index[img])
            perms.append(tuple(images))
        return tuple(perms)

    @cached_property
    def non_orthogonal(self) -> tuple[int, ...]:
        """For each positive root, the bitmask of the positive roots with a
        nonzero inner product with it (itself included); made on first use,
        so that a type over the group cap is refused before its O(N^2 n)
        cost."""
        images = [int_mat_vec(self.int_gram, r) for r in self.positive_roots]
        masks = []
        for gx in images:
            mask = 0
            for k, r in enumerate(self.positive_roots):
                if sum(a * b for a, b in zip(gx, r)):
                    mask |= 1 << k
            masks.append(mask)
        return tuple(masks)

    # -- inner products ------------------------------------------------

    def inner(self, x: Vec, y: Vec):
        return vdot(mat_vec(self.gram, x), y)

    def omega_coefficients(self, x: Vec) -> Vec:
        """Coordinates of ``x`` in the fundamental-weight basis.

        Coefficient i equals 2(x, alpha_i)/(alpha_i, alpha_i).
        """
        gx = mat_vec(self.gram, x)
        return tuple(2 * gx[i] / self.gram[i][i] for i in range(self.rank))

    # -- sanity --------------------------------------------------------

    def _check(self):
        n = self.rank
        if rank(self.positive_roots) != n:
            raise UnsupportedType("simple roots do not span")
        if self.components is not None:
            expected = sum(_expected_positive_count(l, m) for l, m in self.components)
            if len(self.positive_roots) != expected:
                raise UnsupportedType(
                    f"positive root count {len(self.positive_roots)} != {expected}"
                )
            g, roots = self.gram_scale, self.positive_roots
            scaled = [vdot(int_mat_vec(self.int_gram, r), r) for r in roots]
            if not {2 * g} <= set(scaled) <= {2 * g, 4 * g}:
                lengths = {Fraction(x, g) for x in scaled}
                raise UnsupportedType(f"unexpected root lengths {lengths}")
        for i in range(n):
            coeffs = self.omega_coefficients(self.weights[i])
            if any(c != (1 if j == i else 0) for j, c in enumerate(coeffs)):
                raise UnsupportedType("fundamental weights fail their defining property")
        if self.delta != tuple(
            sum(w[i] for w in self.weights) for i in range(n)
        ):
            raise UnsupportedType("half-sum of positive roots != sum of weights")
        gd = mat_vec(self.gram, self.delta)
        if any(c <= 0 for c in gd):
            raise UnsupportedType("delta is not in the open fundamental chamber")

    # -- misc ----------------------------------------------------------

    def type_name(self) -> str:
        if self.components is None:
            return f"rank-{self.rank} subsystem"
        return "x".join(f"{l}{m}" for l, m in self.components)

    def __repr__(self):
        return f"RootSystem({self.type_name()}, rank={self.rank})"


def build_root_system(spec: str) -> RootSystem:
    return RootSystem.from_components(parse_type_spec(spec))


def diagram_automorphisms(rs: RootSystem) -> list[DiagramAutomorphism]:
    """All Gram-preserving permutations of the simple roots.

    Backtracking on partial permutations; pruning keeps this fast even for
    products of many isomorphic components.
    """
    n = rs.rank
    g = rs.gram
    perms: list[tuple[int, ...]] = []

    def extend(partial: list[int], used: set[int]):
        i = len(partial)
        if i == n:
            perms.append(tuple(partial))
            return
        for j in range(n):
            if j in used or g[j][j] != g[i][i]:
                continue
            if any(g[i][k] != g[j][partial[k]] for k in range(i)):
                continue
            partial.append(j)
            used.add(j)
            extend(partial, used)
            partial.pop()
            used.remove(j)

    extend([], set())

    out = []
    for perm in sorted(perms):
        matrix = tuple(
            tuple(1 if perm[j] == r else 0 for j in range(n)) for r in range(n)
        )
        image = {mat_vec(matrix, root) for root in rs.positive_roots}
        if image != set(rs.positive_roots):
            raise UnsupportedType("diagram symmetry does not permute positive roots")
        if mat_vec(matrix, rs.delta) != rs.delta:
            raise UnsupportedType("diagram symmetry moves delta")
        out.append(DiagramAutomorphism(perm, matrix))
    return out
