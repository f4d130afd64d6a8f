"""Closed-form counts for card sequences with prescribed behaviour.

Everything here is exact: integers, or Fractions where a formula has a
rational prefactor.  The brute-force counterparts live in
:mod:`jugglecards.enumeration`; the test suite checks the two against each
other on overlapping ranges.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cache, partial


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with ``C(n, 0) = 1`` for every integer ``n``.

    Choosing nothing is always possible, even from a negative-sized
    ground set; apart from that, out-of-range arguments give 0.  Keeping
    the ``k = 0`` case total lets formulas like ``C(b-2, t) C(b, t)``
    cover their degenerate edges without special casing.
    """
    if k == 0:
        return 1
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def _quotient(num: int, den: int) -> int:
    """``num / den`` for a closed form whose quotient is whole; a
    remainder is a broken formula, not a bad input, so it asserts."""
    q, r = divmod(num, den)
    assert r == 0, f"{num} is not divisible by {den}"
    return q


def falling_factorial(x, m: int):
    """``x (x-1) ... (x-m+1)``; empty product for ``m = 0``."""
    if m < 0:
        raise ValueError(f"falling factorial needs m >= 0, got {m}")
    out = x ** 0  # 1 of the same type as x
    for i in range(m):
        out *= x - i
    return out


# ---------------------------------------------------------------------------
# Stirling numbers, classical and throw-m generalization


_MAX_BAND = 10**6  # entries times column step s that a Stirling band may hold


def _band_area(s: int, n: int, k: int) -> int:
    """Entries of the band :func:`_band` builds for ``T(n, k)``: the sum
    over rows ``i = 1..n`` of ``min(k, s i) - max(0, k - s(n-i)) + 1``."""
    a = min(n, k // s)  # rows with s i <= k, whose band ends at column s i
    c = min(n, -(-k // s))  # rows with s(n-i) < k, whose band starts above column 0
    return n + s * a * (a + 1) // 2 + (n - a) * k - (c * k - s * c * (c - 1) // 2)


def _band(weights, s: int, n: int, k: int) -> int:
    """``T(n, k)``, ``0 <= k <= s n``, of a recurrence
    ``T(i, c) = sum_j w_j(i, c) T(i-1, c-s+j)`` over ``j = 0..s`` with
    ``T(0, c) = [c == 0]``.

    ``weights(i, j, lo, hi)`` gives ``w_j(i, c)`` for columns
    ``c = lo..hi-1`` of row ``i``.  ``T(n, k)`` needs only columns
    ``k - s(n-i) .. min(k, s i)`` of row ``i``, so that band is built
    bottom up, one row at a time, keeping only the row before; each
    ``w_j`` is asked for only over the columns whose term lies inside
    the band of the row before, so no weight is built for a term outside
    it.  Nothing recurses, so ``n`` is not bounded by the recursion
    limit.  A band of more than ``_MAX_BAND // s`` entries, each a sum
    of ``s + 1`` terms, raises ``ValueError`` before any weight is
    built.
    """
    area, bound = _band_area(s, n, k), _MAX_BAND // s
    if area > bound:
        raise ValueError(
            f"the Stirling band for n={n}, k={k} holds {area} entries, more than {bound}"
        )
    first, row = 0, [1]  # the band of the row before, from column first
    for i in range(1, n + 1):
        lo, hi = max(0, k - s * (n - i)), min(k, s * i) + 1
        total = [0] * (hi - lo)
        # the j whose term reaches the row before's band from some column
        for j in range(max(0, first + s - hi + 1), min(s + 1, first + len(row) + s - lo)):
            d = first + s - j  # term j of column c reads row[c - d]
            a, z = max(lo, d), min(hi, d + len(row))
            terms = map(operator.mul, weights(i, j, a, z), row[a - d:z - d])
            total[a - lo:z - lo] = map(operator.add, total[a - lo:z - lo], terms)
        first, row = lo, total
    return row[k - first]


def stirling2(n: int, k: int) -> int:
    """Partitions of an ``n``-set into ``k`` nonempty blocks: :func:`gen_stirling` at ``m = 1``.

    >>> stirling2(4, 2)
    7
    """
    if n < 1:
        return int(n == k == 0)
    return gen_stirling(n, k, 1)


def _in_stirling_support(n: int, k: int, m: int) -> bool:
    """Whether ``m <= k <= mn``, outside which ``T(n, k)`` of ``m``-throw
    cards is 0.  A throw size below 1 is refused first, then fewer than
    one card."""
    if m < 1:
        raise ValueError(f"throw size must be at least 1, got m={m}")
    if n < 1:
        raise ValueError(f"need at least one card, got n={n}")
    return m <= k <= m * n


@cache
def gen_stirling(n: int, k: int, m: int) -> int:
    """Stirling-like numbers for cards that throw ``m`` balls at once.

    Defined for ``n >= 1`` by the recurrence

        T(n+1, k) = sum_{i=0..m} C(k+i-m, i) * m_(i) * T(n, k+i-m)

    with ``T(1, k) = [k == m]``, where ``m_(i)`` is a falling factorial.
    ``m = 1`` gives the classical numbers.  Zero outside ``m <= k <= mn``.

    >>> [gen_stirling(2, k, 2) for k in (2, 3, 4)]
    [2, 4, 1]
    """
    if not _in_stirling_support(n, k, m):
        return 0
    falling = cache(partial(math.perm, m))  # m_(j), for the j a band reads

    def weights(i, j, lo, hi):
        # the weight C(c+j-m, j) m_(j) of T(i-1, c+j-m) in T(i, c), c = lo..hi-1,
        # built as it is multiplied; c+j-m is a column of the row before's
        # band, so math.comb is binomial
        choose = map(math.comb, range(lo + j - m, hi + j - m), itertools.repeat(j))
        return map(operator.mul, choose, itertools.repeat(falling(j)))

    return _band(weights, m, n, k)


def gen_stirling_explicit(n: int, k: int, m: int) -> int:
    """Alternating-sum form of :func:`gen_stirling`.

    ``T(n, k) = ((-1)^k / k!) sum_{i=m..k} (-1)^i C(k, i) (i_(m))^n``
    """
    if not _in_stirling_support(n, k, m):
        return 0
    total = sum(
        (-1) ** (k - i) * math.comb(k, i) * falling_factorial(i, m) ** n
        for i in range(m, k + 1)
    )
    return _quotient(total, math.factorial(k))


def falling_factorial_identity(n: int, m: int, x: int) -> tuple[int, int]:
    """Both sides of ``(x_(m))^n = sum_k T(n, k) x_(k)``.

    Returns the pair so callers can assert equality; the sum runs over
    the support ``m <= k <= mn``.
    """
    lhs = falling_factorial(x, m) ** n
    rhs = sum(
        gen_stirling(n, k, m) * falling_factorial(x, k) for k in range(m, m * n + 1)
    )
    return lhs, rhs


def _stirling1_weights(i, j, lo, hi):
    return itertools.repeat(i - 1 if j else 1)


@cache
def stirling1(b: int, l: int) -> int:
    """Permutations of ``b`` points with exactly ``l`` cycles (unsigned).

    >>> [stirling1(4, l) for l in (1, 2, 3, 4)]
    [6, 11, 6, 1]
    """
    if b < 0 or l < 0 or l > b:
        return 0
    return _band(_stirling1_weights, 1, b, l)


# ---------------------------------------------------------------------------
# sequences reaching a given arrangement


def js_count(suffix_len: int, n: int, b: int, m: int) -> int:
    """Sequences of ``n`` cards over ``b`` balls landing on a fixed target.

    The target arrangement enters only through ``suffix_len``, the length
    of the increasing suffix of its level map.  Cards are all the
    ``m``-ball throws (ordered targets); for ``m = 1`` these are the
    single-throw cards.
    """
    if not 1 <= suffix_len <= b:
        raise ValueError(f"suffix length {suffix_len} outside 1..{b}")
    if n < 1:
        raise ValueError(f"need at least one card, got n={n}")
    if not 1 <= m <= b:
        raise ValueError(f"throw size {m} outside 1..{b}")
    return sum(gen_stirling(n, k, m) for k in range(max(1, b - suffix_len), b + 1))


def count_suffix_at_least(b: int, k: int, cyclic: bool = False) -> int:
    """Permutations of ``b`` with increasing suffix at least ``k`` long.

    With ``cyclic`` restrict to single ``b``-cycles, where ``k`` can be at
    most ``b - 1``.  Both counts are plain factorial ratios.
    """
    if cyclic:
        if not 1 <= k <= b - 1:
            raise ValueError(f"cyclic count needs 1 <= k <= b-1, got k={k}, b={b}")
        return math.factorial(b - 1) // math.factorial(k)
    if not 1 <= k <= b:
        raise ValueError(f"need 1 <= k <= b, got k={k}, b={b}")
    return math.factorial(b) // math.factorial(k)


# ---------------------------------------------------------------------------
# minimal crossings


def narayana(b: int, n: int) -> int:
    """Sequences over ``b`` balls with ``n`` cards and fewest crossings.

    Fewest means ``b(b-1)`` crossings while fixing the sorted stack and
    using ``C_b``.  The count is the Narayana number
    ``(1/b) C(n-1, b-1) C(n, b-1)``.

    >>> [narayana(2, n) for n in range(2, 7)]
    [1, 3, 6, 10, 15]
    """
    if b < 1:
        raise ValueError(f"need at least one ball, got b={b}")
    if n < 1:
        raise ValueError(f"need at least one card, got n={n}")
    if b > n:
        return 0
    return _quotient(binomial(n - 1, b - 1) * binomial(n, b - 1), b)


def minimal_count_table(max_b: int, max_n: int) -> dict[tuple[int, int], int]:
    """Counts of fewest-crossing sequences from their own recurrence.

    Builds the generating functions ``F_b(y)`` with
    ``F_1 = y/(1-y)`` and
    ``F_b = y/(1-y) (F_{b-1} + sum_{i+j=b, i,j>=1} F_i F_j)``
    truncated at ``y^max_n``, and returns all coefficients as a dict
    keyed by ``(b, n)``.  Independent of :func:`narayana`.
    """

    def mul(p, q):
        out = [0] * (max_n + 1)
        for i, a in enumerate(p):
            if a:
                for j in range(max_n + 1 - i):
                    if q[j]:
                        out[i + j] += a * q[j]
        return out

    def add(p, q):
        return [a + c for a, c in zip(p, q)]

    geom = [0] + [1] * max_n  # y + y^2 + ... = y/(1-y)
    series = {1: geom}
    for b in range(2, max_b + 1):
        acc = series[b - 1]
        for i in range(1, b):
            acc = add(acc, mul(series[i], series[b - i]))
        series[b] = mul(geom, acc)
    return {
        (b, n): series[b][n] for b in range(1, max_b + 1) for n in range(max_n + 1)
    }


def functional_equation_residual(
    table: dict[tuple[int, int], int], b: int, n: int
) -> int:
    """Coefficient of ``x^b y^n`` in ``y F^2 - ((1 - y - xy) F - xy)``.

    ``F(x, y) = sum f(b, n) x^b y^n`` built from ``table``; a correct
    table gives residual 0 wherever all referenced entries are inside the
    table's range.
    """
    lhs = sum(
        table.get((b1, n1), 0) * table.get((b - b1, n - 1 - n1), 0)
        for b1 in range(1, b)
        for n1 in range(n)
    )
    rhs = (
        table.get((b, n), 0)
        - table.get((b, n - 1), 0)
        - table.get((b - 1, n - 1), 0)
        - (1 if b == 1 and n == 1 else 0)
    )
    return lhs - rhs


# ---------------------------------------------------------------------------
# two extra crossings


def plus_two_count(b: int, n: int) -> int:
    """Sequences with two crossings above the minimum: ``C(n,b+2) C(n,b-2)``."""
    if b < 1 or n < 1:
        raise ValueError(f"need b, n >= 1, got b={b}, n={n}")
    return binomial(n, b + 2) * binomial(n, b - 2)


def multinomial_identity(n: int, b: int, a: int) -> tuple[int, int]:
    """Both sides of the four-part multinomial convolution identity.

    ``sum_k n! / ((k+a)! (k-a)! (b-k)! (n-b-k)!) = C(n, b+a) C(n, b-a)``
    where the sum skips terms with a negative part.
    """
    lhs = 0
    for k in range(n + 1):
        parts = (k + a, k - a, b - k, n - b - k)
        if min(parts) < 0:
            continue
        term = 1
        rest = n
        for p in parts[:-1]:
            term *= math.comb(rest, p)
            rest -= p
        lhs += term
    return lhs, binomial(n, b + a) * binomial(n, b - a)


def convolved_pair_identity(b: int, n: int) -> tuple:
    """Both sides of a Narayana-product convolution, as exact fractions.

    ``sum_{i,j} 1/(i(b-i)) C(j,i-1) C(j-1,i-1) C(n-1-j,b-i-1) C(n-2-j,b-i-1)``
    over ``1 <= i <= b-1`` and ``1 <= j <= n-2`` against
    ``(2/b) C(n-1,b-2) C(n-2,b-1)``.
    """
    from fractions import Fraction  # here, so that no other count loads fractions

    if b < 2 or n < 3:
        raise ValueError(f"need b >= 2 and n >= 3, got b={b}, n={n}")
    lhs = Fraction(0)
    for i in range(1, b):
        for j in range(1, n - 1):
            num = (
                binomial(j, i - 1)
                * binomial(j - 1, i - 1)
                * binomial(n - 1 - j, b - i - 1)
                * binomial(n - 2 - j, b - i - 1)
            )
            lhs += Fraction(num, i * (b - i))
    rhs = Fraction(2 * binomial(n - 1, b - 2) * binomial(n - 2, b - 1), b)
    return lhs, rhs


# ---------------------------------------------------------------------------
# primitive sequences with a fixed crossing surplus


def _surplus(n: int, b: int) -> int:
    """``t = n - b`` for :func:`p0`, :func:`p2` and :func:`p4`: how many
    of the ``n`` cards a primitive row has past ``b``.  Refuses any
    ``n`` and ``b`` outside ``n >= b >= 1``."""
    if b < 1 or n < b:
        raise ValueError(f"need n >= b >= 1, got n={n}, b={b}")
    return n - b


def p0(n: int, b: int) -> int:
    """Primitive fewest-crossing sequences: no ``C_1`` card anywhere.

    ``p0(n, b) = 1/(t+1) C(b-2, t) C(b+t, t)`` with ``t = n - b``, for
    ``b >= 2``.  On one ball ``C_1`` is also the top card ``C_b``, which
    the sequences must use, so there are none.
    """
    t = _surplus(n, b)
    if b == 1:
        return 0
    return _quotient(binomial(b - 2, t) * binomial(b + t, t), t + 1)


def p2(n: int, b: int) -> int:
    """Primitive sequences with two extra crossings.

    ``p2(n, b) = C(b+t, 2t) C(2t, t-2)`` with ``t = n - b``.
    """
    t = _surplus(n, b)
    return binomial(b + t, 2 * t) * binomial(2 * t, t - 2)


def p4(n: int, b: int) -> int:
    """Primitive sequences with four extra crossings.

    With ``t = n - b``, nonzero only for ``b >= 2`` and ``3 <= t <= b+2``:

        p4(n, b) = (b-2)! (b^2 - 3b + 2t - 4) / (2 (t-3)! (b-t+2)!) * C(n, b-2)
    """
    t = _surplus(n, b)
    if b < 2 or t < 3 or t > b + 2:
        return 0
    num = math.factorial(b - 2) * (b * b - 3 * b + 2 * t - 4) * binomial(n, b - 2)
    den = 2 * math.factorial(t - 3) * math.factorial(b - t + 2)
    return _quotient(num, den)


_P_BY_SURPLUS = {0: p0, 2: p2, 4: p4}


def q_from_p(d: int, n: int, b: int) -> int:
    """Sequences with ``d`` extra crossings, via their primitive cores.

    Dropping all ``C_1`` cards from a sequence leaves a primitive one
    with the same crossings, so ``Q_d(n, b) = sum_k C(n, k) P_d(k, b)``.
    ``P_d`` is the closed form for surplus ``d``, known for ``d`` = 0, 2
    and 4.  Every primitive card crosses at least once, so the sum stops
    at ``k = b(b-1) + d``.
    On one ball the only card, ``C_1``, is also the top card: the one
    sequence of each length has no crossings, and dropping its cards
    leaves none.
    """
    p = _P_BY_SURPLUS.get(d)
    if p is None:
        raise ValueError(f"no closed form for surplus {d}")
    if b < 1 or n < 1:
        raise ValueError(f"need b, n >= 1, got b={b}, n={n}")
    if b == 1:
        return int(d == 0)
    return sum(binomial(n, k) * p(k, b) for k in range(b, min(n, b * (b - 1) + d) + 1))

