"""Closed-form face counts for type-A permutonestohedra.

For the braid arrangement on n letters the number of codimension-(k+1)
faces has a partition expansion.  Write l = l(lam) for the number of
parts; only partitions with l >= k + 2 contribute, with outer weight

    w(lam) * n! / (lam_1! ... lam_l!),   w(lam) = l! / (m_1! m_2! ...)

(m_i = multiplicities of the part sizes).  The inner factor is, for the
minimal building set, the Cayley-style count

    (1/(k+1)) * C(l - 2, k) * C(l + k, k)

and, for the maximal building set, the chain count

    sum over 1 < j_1 < ... < j_k < l of prod_t C(j_(t+1) - 1, j_t - 1)

with j_(k+1) = l (an empty product, hence 1, when k = 0).
"""

from __future__ import annotations

from itertools import combinations
from math import comb, factorial

from .errors import OutOfRange


def partitions(n: int):
    """Partitions of n as descending tuples, in descending lex order."""
    if n < 0:
        raise OutOfRange("partitions of a negative integer")

    def gen(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(remaining, largest), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    yield from gen(n, n, ())


def partition_weight(lam: tuple[int, ...]) -> int:
    """Orderings of the parts: l! over the multiplicity factorials."""
    l = len(lam)
    mult: dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    w = factorial(l)
    for m in mult.values():
        w //= factorial(m)
    return w


def _outer(n: int, lam: tuple[int, ...]) -> int:
    denom = 1
    for part in lam:
        denom *= factorial(part)
    return partition_weight(lam) * factorial(n) // denom


def cayley_count(l: int, k: int) -> int:
    """(1/(k+1)) C(l-2, k) C(l+k, k), integral on its domain 0 <= k <= l-2."""
    if not 0 <= k <= l - 2:
        raise OutOfRange(f"cayley_count needs 0 <= k <= l - 2, got l={l}, k={k}")
    num = comb(l - 2, k) * comb(l + k, k)
    if num % (k + 1):
        raise OutOfRange("cayley_count is not integral; domain violated")
    return num // (k + 1)


def _chain_count(l: int, k: int) -> int:
    """Chains 1 < j_1 < ... < j_k < l weighted by prod C(j_(t+1)-1, j_t-1)."""
    if k == 0:
        return 1
    total = 0
    for js in combinations(range(2, l), k):
        seq = js + (l,)
        prod = 1
        for t in range(k):
            prod *= comb(seq[t + 1] - 1, seq[t] - 1)
        total += prod
    return total


def minimal_face_count(n: int, k: int) -> int:
    """Codimension-(k+1) faces of the minimal type-A permutonestohedron.

    ``n`` is the number of letters (ambient rank n - 1); k ranges over
    0 .. n - 2.  k = n - 2 counts the vertices.
    """
    if n < 2 or not 0 <= k <= n - 2:
        raise OutOfRange(f"need n >= 2 and 0 <= k <= n - 2, got n={n}, k={k}")
    total = 0
    for lam in partitions(n):
        l = len(lam)
        if l < k + 2:
            continue
        total += _outer(n, lam) * cayley_count(l, k)
    return total


def closed_form_counts(rs, kind: str) -> dict[int, int] | None:
    """Closed-form face count by dimension, codimension 1 first, for an
    irreducible type-A root system with the minimal or maximal building
    set; None for any other."""
    components = rs.components
    if (
        components is None
        or len(components) != 1
        or components[0][0] != "A"
        or kind not in ("minimal", "maximal")
    ):
        return None
    n = components[0][1] + 1
    count = minimal_face_count if kind == "minimal" else maximal_face_count
    return {rs.rank - 1 - k: count(n, k) for k in range(n - 1)}


def maximal_face_count(n: int, k: int) -> int:
    """Codimension-(k+1) faces of the maximal type-A permutonestohedron."""
    if n < 2 or not 0 <= k <= n - 2:
        raise OutOfRange(f"need n >= 2 and 0 <= k <= n - 2, got n={n}, k={k}")
    total = 0
    for lam in partitions(n):
        l = len(lam)
        if l < k + 2:
            continue
        total += _outer(n, lam) * _chain_count(l, k)
    return total
