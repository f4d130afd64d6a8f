import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from jugglecards import counting
from jugglecards.cards import cycle_count, increasing_suffix_length
from jugglecards.counting import (
    _band,
    _band_area,
    binomial,
    convolved_pair_identity,
    count_suffix_at_least,
    falling_factorial,
    falling_factorial_identity,
    functional_equation_residual,
    gen_stirling,
    gen_stirling_explicit,
    js_count,
    minimal_count_table,
    multinomial_identity,
    narayana,
    p0,
    p2,
    p4,
    plus_two_count,
    q_from_p,
    stirling1,
    stirling2,
)
from jugglecards.enumeration import CensusQuery, _census_by_permutation, census


def identity(b):
    return tuple(range(1, b + 1))


# ---------------------------------------------------------------------------
# binomial conventions


def test_binomial_matches_math_comb_on_valid_input():
    for n in range(8):
        for k in range(n + 1):
            assert binomial(n, k) == math.comb(n, k)


def test_binomial_zero_outside_range_but_one_at_k_zero():
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    # C(n, 0) = 1 for every n, negative included; several closed forms
    # below rely on the empty product surviving a negative upper index.
    assert binomial(-2, 0) == 1
    assert binomial(-2, 1) == 0


@given(st.integers(1, 30), st.integers(0, 30))
def test_binomial_pascal_rule(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_falling_factorial():
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(2, 4) == 0
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)


# ---------------------------------------------------------------------------
# generalized Stirling numbers


def test_gen_stirling_small_table():
    assert gen_stirling(2, 2, 2) == 2
    assert gen_stirling(2, 3, 2) == 4
    assert gen_stirling(2, 4, 2) == 1
    assert gen_stirling(1, 2, 2) == 1
    assert gen_stirling(1, 3, 2) == 0


def test_gen_stirling_reduces_to_stirling2():
    for n in range(1, 8):
        for k in range(0, n + 2):
            assert gen_stirling(n, k, 1) == stirling2(n, k)


def test_gen_stirling_zero_outside_support():
    assert gen_stirling(3, 1, 2) == 0
    assert gen_stirling(3, 7, 2) == 0
    assert gen_stirling(2, 7, 3) == 0


def test_gen_stirling_recurrence_matches_explicit_sum():
    for m in (1, 2, 3):
        for n in range(1, 6):
            for k in range(m, m * n + 1):
                assert gen_stirling(n, k, m) == gen_stirling_explicit(n, k, m), (
                    n,
                    k,
                    m,
                )


def test_gen_stirling_counts_families_directly():
    # ordered pairs over k symbols, each symbol used, up to relabeling
    def brute(n, k, m):
        seen = set()
        for fam in itertools.product(
            itertools.permutations(range(1, k + 1), m), repeat=n
        ):
            relabel = {}
            for entry in fam:
                for s in entry:
                    relabel.setdefault(s, len(relabel) + 1)
            if len(relabel) == k:
                seen.add(tuple(tuple(relabel[s] for s in e) for e in fam))
        return len(seen)

    for n in range(1, 4):
        for k in range(1, 2 * n + 1):
            assert gen_stirling(n, k, 2) == brute(n, k, 2), (n, k)


@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 15))
def test_falling_factorial_identity_holds(n, m, x):
    lhs, rhs = falling_factorial_identity(n, m, x)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# permutation cycle counts


def test_stirling1_doc_row():
    assert [stirling1(4, l) for l in (1, 2, 3, 4)] == [6, 11, 6, 1]


def test_stirling1_against_brute_cycle_counts():
    for b in range(1, 7):
        tally = {}
        for p in itertools.permutations(range(1, b + 1)):
            l = cycle_count(p)
            tally[l] = tally.get(l, 0) + 1
        for l in range(1, b + 1):
            assert stirling1(b, l) == tally.get(l, 0), (b, l)


def test_stirling_numbers_far_past_the_recursion_limit():
    # the bands run from column 0 up, and from the far corner down
    n = 4000
    assert stirling2(n, 2) == 2 ** (n - 1) - 1
    assert stirling1(n, n - 1) == math.comb(n, 2)
    assert stirling1(n, 1) == math.factorial(n - 1)
    assert gen_stirling(n, 2, 2) == 2 ** (n - 1)
    assert gen_stirling(n, 3, 1) == stirling2(n, 3) == (3**n - 3 * 2**n + 3) // 6
    for m in (1, 2, 3):
        for n, k in ((6, 2 * m), (9, 3 * m + 1), (4, 4 * m), (12, 5 * m), (7, m)):
            assert gen_stirling(n, k, m) == gen_stirling_explicit(n, k, m), (n, k, m)
    assert [stirling2(n, k) for n, k in ((10, 9), (3, 7), (12, 11))] == [45, 0, 66]
    assert [stirling2(n, k) for n, k in ((0, 0), (0, 1), (-1, 0), (4, -1))] == [1, 0, 0, 0]
    assert [stirling1(b, l) for b, l in ((0, 0), (5, 0), (-1, 0), (3, -1))] == [1, 0, 0, 0]


def test_band_area_is_the_sum_of_its_row_widths():
    for s in (1, 2, 3):
        for n in range(1, 25):
            for k in range(s * n + 1):
                widths = (min(k, s * i) - max(0, k - s * (n - i)) + 1 for i in range(1, n + 1))
                assert _band_area(s, n, k) == sum(widths), (s, n, k)


def test_stirling_bands_past_the_bound_are_refused_before_they_start():
    # stirling1(4000, 2000) would fill 4,004,000 big-integer entries
    untouched = dict(side_effect=AssertionError)
    with mock.patch.object(counting, "_stirling1_weights", **untouched):
        with pytest.raises(ValueError, match="n=4000, k=2000 holds 4004000 entries"):
            stirling1(4000, 2000)
    # 10**6 entries, each a sum of 1001 weighted terms: the bound is 10**6 // m entries
    with mock.patch.object(math, "comb", **untouched):
        with mock.patch.object(math, "perm", **untouched):
            with pytest.raises(ValueError, match="holds 1000000 entries, more than 1000$"):
                gen_stirling(1000, 1000, 1000)
    area = _band_area(1, 10, 3)
    with mock.patch.object(counting, "_MAX_BAND", area):
        assert _band(counting._stirling1_weights, 1, 10, 3) == 1172700
    with mock.patch.object(counting, "_MAX_BAND", area - 1), pytest.raises(ValueError):
        _band(counting._stirling1_weights, 1, 10, 3)


def test_gen_stirling_builds_weights_only_for_the_band_columns():
    assert gen_stirling(2, 2000, 1000) == gen_stirling_explicit(2, 2000, 1000) == 1
    assert gen_stirling(1, 1000, 1000) == 1
    # the band of T(2, 2000) is column 1000 of row 1 and column 2000 of row 2,
    # and each reads one column of the row before: one weight per row
    with mock.patch.object(math, "comb", wraps=math.comb) as spy:
        assert gen_stirling.__wrapped__(2, 2000, 1000) == 1
    assert spy.call_count == 2


@pytest.mark.parametrize(
    "call, args, reason",
    [
        (falling_factorial, (3, -1), "falling factorial needs m >= 0, got -1"),
        (gen_stirling, (2, 2, 0), "throw size must be at least 1, got m=0"),
        (gen_stirling, (0, 2, 1), "need at least one card, got n=0"),
        (gen_stirling_explicit, (2, 2, 0), "throw size must be at least 1, got m=0"),
        (gen_stirling_explicit, (0, 2, 1), "need at least one card, got n=0"),
        (js_count, (0, 3, 2, 1), "suffix length 0 outside 1..2"),
        (js_count, (1, 0, 2, 1), "need at least one card, got n=0"),
        (js_count, (1, 3, 2, 3), "throw size 3 outside 1..2"),
        (narayana, (0, 3), "need at least one ball, got b=0"),
        (narayana, (2, 0), "need at least one card, got n=0"),
        (plus_two_count, (0, 3), "need b, n >= 1, got b=0, n=3"),
        (convolved_pair_identity, (1, 5), "need b >= 2 and n >= 3, got b=1, n=5"),
        (p0, (2, 3), "need n >= b >= 1, got n=2, b=3"),
        (p2, (2, 0), "need n >= b >= 1, got n=2, b=0"),
        (p4, (1, 2), "need n >= b >= 1, got n=1, b=2"),
        (q_from_p, (0, 0, 3), "need b, n >= 1, got b=3, n=0"),
        # the throw size is checked before the card count
        (gen_stirling, (0, 2, 0), "throw size must be at least 1, got m=0"),
        (gen_stirling_explicit, (0, 2, 0), "throw size must be at least 1, got m=0"),
    ],
)
def test_counts_name_each_refusal(call, args, reason):
    with pytest.raises(ValueError) as exc:
        call(*args)
    assert str(exc.value) == reason


def test_count_suffix_at_least_against_brute():
    for b in range(1, 7):
        perms = list(itertools.permutations(range(1, b + 1)))
        for k in range(1, b + 1):
            brute = sum(1 for p in perms if increasing_suffix_length(p) >= k)
            assert count_suffix_at_least(b, k) == brute, (b, k)
        for k in range(1, b):
            brute = sum(
                1
                for p in perms
                if cycle_count(p) == 1 and increasing_suffix_length(p) >= k
            )
            assert count_suffix_at_least(b, k, cyclic=True) == brute, (b, k)


def test_count_suffix_validates_range():
    with pytest.raises(ValueError):
        count_suffix_at_least(4, 0)
    with pytest.raises(ValueError):
        count_suffix_at_least(4, 4, cyclic=True)


# ---------------------------------------------------------------------------
# sequences realizing a permutation


def test_js_count_single_throw_example():
    # arrangement 3,1,4,2 over four balls leaves a length-2 increasing
    # suffix, so nine cards give S(9,2) + S(9,3) + S(9,4) sequences
    assert js_count(2, 9, 4, 1) == 255 + 3025 + 7770 == 11050


def test_js_count_identity_counts_everything():
    # the identity admits any number of thrown balls, so the total over
    # all permutations b^n splits by suffix length
    for b in range(2, 5):
        for n in range(1, 5):
            total = sum(
                count_suffix_at_least(b, k) - count_suffix_at_least(b, k + 1)
                if k < b
                else 1
                for k in range(1, b + 1)
            )
            assert total == math.factorial(b)
            full = sum(
                (
                    count_suffix_at_least(b, k)
                    - (count_suffix_at_least(b, k + 1) if k < b else 0)
                )
                * js_count(k, n, b, 1)
                for k in range(1, b + 1)
            )
            assert full == b**n, (b, n)


def _engine_table(b, n, m=1, by_thrown=False):
    """Counts by permutation from the census engine's permutation states,
    not from the closed forms that :func:`count_by_permutation` reads."""
    return _census_by_permutation(CensusQuery(b=b, n=n, m=m), by_thrown)


def test_js_count_matches_dynamic_program_single():
    for b in range(2, 5):
        for n in range(1, 6):
            table = _engine_table(b, n)
            for perm, ways in table.items():
                assert ways == js_count(increasing_suffix_length(perm), n, b, 1)


def test_js_count_matches_dynamic_program_multiplex():
    for b in range(2, 5):
        for n in range(1, 4):
            table = _engine_table(b, n, m=2)
            for perm, ways in table.items():
                assert ways == js_count(increasing_suffix_length(perm), n, b, 2)


def test_js_count_splits_by_thrown_balls():
    b, n, m = 4, 3, 2
    table = _engine_table(b, n, m=m, by_thrown=True)
    for (perm, k), ways in table.items():
        assert ways == gen_stirling(n, k, m), (perm, k)
        assert k >= b - increasing_suffix_length(perm)


# ---------------------------------------------------------------------------
# fewest-crossing counts


def narayana_alternating(b, n):
    # independent alternating-sum oracle for the same count
    return sum(
        binomial(2 * k, k)
        * binomial(n + k, n - k)
        * binomial(n - k, b)
        * (-1) ** (n - b - k)
        // (k + 1)
        for k in range(0, n - b + 1)
    )


def test_narayana_values():
    assert narayana(2, 3) == 3
    assert narayana(1, 5) == 1
    assert narayana(5, 4) == 0
    for b in range(1, 7):
        for n in range(b, 10):
            assert narayana(b, n) == narayana_alternating(b, n), (b, n)


def test_narayana_against_census():
    for b in range(1, 5):
        for n in range(1, 7):
            q = CensusQuery(
                b=b, n=n, perm=identity(b), crossings=b * (b - 1), uses_top=True
            )
            assert census(q) == narayana(b, n), (b, n)


def test_minimal_count_table_and_functional_equation():
    table = minimal_count_table(6, 8)
    for b in range(1, 7):
        for n in range(1, 9):
            assert table[(b, n)] == narayana(b, n)
            assert functional_equation_residual(table, b, n) == 0
    broken = dict(table)
    broken[(2, 3)] += 1
    assert any(
        functional_equation_residual(broken, b, n) != 0
        for b in range(1, 5)
        for n in range(1, 7)
    )


def test_plus_two_count_closed_form_and_census():
    assert plus_two_count(2, 6) == 15
    for b in range(2, 4):
        for n in range(1, 8):
            q = CensusQuery(
                b=b, n=n, perm=identity(b), crossings=b * (b - 1) + 2, uses_top=True
            )
            assert census(q) == plus_two_count(b, n), (b, n)


def test_plus_two_count_from_four_part_convolution():
    # summing over the four split parts and the cut position recovers
    # the closed form: sum m0 f(c0,m0) f(c1,m1) f(c2,m2) f(c3,m3)
    for b in range(2, 6):
        for n in range(4, 9):
            total = 0
            for cs in itertools.product(range(1, b + 2), repeat=4):
                if sum(cs) != b + 2:
                    continue
                for ms in itertools.product(range(1, n + 1), repeat=4):
                    if sum(ms) != n:
                        continue
                    total += (
                        ms[0]
                        * narayana(cs[0], ms[0])
                        * narayana(cs[1], ms[1])
                        * narayana(cs[2], ms[2])
                        * narayana(cs[3], ms[3])
                    )
            assert total == plus_two_count(b, n), (b, n)


# ---------------------------------------------------------------------------
# identities


def test_multinomial_identity_scan():
    for n in range(0, 10):
        for b in range(0, n + 1):
            for a in range(0, 4):
                lhs, rhs = multinomial_identity(n, b, a)
                assert lhs == rhs, (n, b, a)


def test_convolved_pair_identity_scan():
    for b in range(2, 7):
        for n in range(3, 10):
            lhs, rhs = convolved_pair_identity(b, n)
            assert lhs == rhs, (b, n)
    assert convolved_pair_identity(2, 3)[0] == Fraction(1)


# ---------------------------------------------------------------------------
# primitive sequences by crossing surplus


def test_primitive_counts_spot_values():
    assert p0(4, 3) == 2
    assert p0(5, 4) == 5
    assert p0(6, 4) == 5
    assert p0(6, 5) == 9
    assert p0(7, 5) == 21
    assert p0(8, 5) == 14
    assert p2(4, 2) == 1
    assert p4(9, 6) == 252
    assert p4(11, 6) == 7920
    assert p4(14, 10) == 111111


def test_p4_zero_outside_support():
    # surplus four needs at least three extra cards and at most b+2
    assert p4(6, 6) == 0
    assert p4(7, 6) == 0
    assert p4(9, 2) == 0


def test_primitive_counts_against_census():
    for b in range(1, 5):
        for n in range(b, 7):
            base = dict(b=b, n=n, perm=identity(b), uses_top=True, primitive=True)
            assert census(CensusQuery(crossings=b * (b - 1), **base)) == p0(n, b)
            assert census(CensusQuery(crossings=b * (b - 1) + 2, **base)) == p2(n, b)
            assert census(CensusQuery(crossings=b * (b - 1) + 4, **base)) == p4(n, b)


def test_q_from_p_recovers_totals():
    # padding a primitive sequence with repeats realizes every sequence
    # once, so the binomial transform of p must return the plain counts
    for b in range(1, 6):
        for n in range(b, 9):
            assert q_from_p(0, n, b) == narayana(b, n), (b, n)
            assert q_from_p(2, n, b) == plus_two_count(b, n), (b, n)
    # a primitive row crosses at least once per card, so the sum is short
    assert q_from_p(0, 10**6, 2) == math.comb(10**6, 2)


def test_q_from_p_surplus_four_spot_values():
    expected = {
        (6, 2): 1,
        (7, 2): 7,
        (7, 3): 35,
        (8, 3): 208,
        (7, 4): 21,
        (8, 4): 280,
        (9, 4): 1944,
        (8, 5): 84,
        (9, 5): 1344,
        (10, 5): 11100,
    }
    for (n, b), value in expected.items():
        assert q_from_p(4, n, b) == value, (n, b)


def test_q_from_p_validates_surplus():
    # closed forms exist for surplus 0, 2 and 4 only, and no other P_d can
    # be passed in
    for d in (1, 3, 6, -2):
        with pytest.raises(ValueError, match=f"^no closed form for surplus {d}$"):
            q_from_p(d, 5, 3)
    with pytest.raises(TypeError):
        q_from_p(0, 5, 3, p0)
