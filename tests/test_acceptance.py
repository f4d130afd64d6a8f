"""End-to-end acceptance checks.

Each test is one headline claim of the library, checked exactly (rational
arithmetic, no tolerances) against brute force within its stated time
budget. Run with ``-v`` to get one pass/fail line per claim.
"""

import itertools
import time
from fractions import Fraction

from jugglecards.bijections import (
    cover_canonical_order,
    cover_partial_order,
    cover_to_sequence,
    CoverMatrix,
    decompose_plus_two,
    digraph_to_family,
    dyck_peaks,
    dyck_to_minimal,
    family_to_digraph,
    family_to_sequence,
    compose_plus_two,
    minimal_to_dyck,
    partition_to_sequence,
    sequence_to_cover,
    sequence_to_family,
    sequence_to_partition,
)
from jugglecards.cards import (
    crossings,
    cycle_string,
    final_arrangement,
    identity_perm,
    increasing_suffix_length,
    parse_sequence,
    sequence_permutation,
    siteswap_of,
    throw_pattern,
)
from jugglecards.counting import (
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
    p4,
    plus_two_count,
    stirling2,
)
from jugglecards.enumeration import (
    CensusQuery,
    all_sequences,
    brute_js,
    census,
    cycle_census,
    enumerate_2covers,
    enumerate_dyck_words,
    enumerate_labeled_digraphs,
    enumerate_minimal,
    enumerate_plus,
)
from jugglecards.rng import RandomStream
from jugglecards.stochastic import (
    GroupDistribution,
    card_distribution,
    exact_step_distribution,
    point_distribution,
    single_cycle_mass,
    step_distribution,
    total_variation,
    uniform_distribution,
)

RUNNING = parse_sequence("C3 C3 C2 C4 C3 C4 C3 C2 C2", 4)
NESTED = parse_sequence("C3 C5 C1 C5 C2 C5 C2 C5", 5)

# factored reference counts for the four-extra-crossing primitive family,
# decoded to integers; the (9,6) and (11,6) entries are corrected from a
# printing slip, pinned by the cumulative relation Q = sum C(n,k) P(k)
FOUR_EXTRA_TABLE = {
    (6, 2): 1, (6, 3): 3,
    (7, 3): 14, (7, 4): 21,
    (8, 3): 12, (8, 4): 112, (8, 5): 84,
    (9, 4): 180, (9, 5): 588, (9, 6): 252,
    (10, 4): 90, (10, 5): 1440, (10, 6): 2310, (10, 7): 630,
    (11, 5): 1485, (11, 6): 7920, (11, 7): 7392, (11, 8): 1386,
    (12, 5): 550, (12, 6): 12870, (12, 7): 33660, (12, 8): 20328, (12, 9): 2772,
    (13, 6): 10010, (13, 7): 77220, (13, 8): 118404, (13, 9): 49764,
    (14, 6): 3003, (14, 7): 95095, (14, 8): 360360, (14, 9): 360360,
    (14, 10): 111111,
}


# P_d(k, 5) for k = 5, 6, ...: primitive five-ball rows of k + d/2 cards
# that fix the sorted stack, use the top card and cross 20 + d times;
# the k past each row's end (and k = 4) have none
SURPLUS_ROWS_B5 = {
    6: (28, 432, 2205, 5665, 8052, 6006, 1820),
    8: (90, 1605, 8800, 23265, 35529, 33761, 19110, 4900),
}

# P_d(k, b) for k = b, b + 1, ... at (b, d): the same rows on six and seven balls
SURPLUS_ROWS_WIDER = {
    (6, 6): (84, 1740, 11715, 39545, 76076, 84812, 50960, 12740),
    (6, 8): (450, 8745, 58410, 198198, 399035, 510510, 416640, 199920, 42840),
    (7, 6): (210, 5610, 48180, 207922, 521521, 796705, 731640, 371280, 79968),
}


def test_c01_single_throw_census_matches_stirling_sums():
    start = time.perf_counter()
    for sigma in itertools.permutations((1, 2, 3)):
        suffix = increasing_suffix_length(sigma)
        for n in range(1, 7):
            assert brute_js(sigma, n, 3) == js_count(suffix, n, 3, 1), (sigma, n)
    assert time.perf_counter() - start < 1.0


def test_c02_per_permutation_censuses_sum_to_all_sequences():
    start = time.perf_counter()
    for b in range(1, 5):
        for n in range(1, 8):
            total = sum(
                brute_js(sigma, n, b)
                for sigma in itertools.permutations(range(1, b + 1))
            )
            assert total == b**n, (b, n)
    assert time.perf_counter() - start < 10.0


def test_c03_minimal_enumeration_matches_narayana():
    start = time.perf_counter()
    for b in range(1, 5):
        for n in range(b, 9):
            assert len(enumerate_minimal(b, n)) == narayana(b, n), (b, n)
    assert time.perf_counter() - start < 30.0


def test_c03b_engine_counts_sixty_card_rows_in_closed_form():
    # 5**60 rows: out of reach of the tree walk, exact for the engine
    for d, closed in ((0, narayana(5, 60)), (2, plus_two_count(5, 60))):
        start = time.perf_counter()
        q = CensusQuery(b=5, n=60, perm=identity_perm(5), crossings=20 + d, uses_top=True)
        assert census(q) == closed, d
        assert time.perf_counter() - start < 1.0, d


def test_c04_dyck_bijection_roundtrips_both_ways():
    for b in range(1, 5):
        for n in range(b, 9):
            for seq in enumerate_minimal(b, n):
                word = minimal_to_dyck(seq)
                assert dyck_to_minimal(word) == seq
                assert dyck_peaks(word) == n + 1 - b
    for semilength in range(1, 9):
        for word in enumerate_dyck_words(semilength):
            seq = dyck_to_minimal(word)
            assert minimal_to_dyck(seq) == word
            assert dyck_peaks(word) == seq.n + 1 - seq.b


def test_c05_two_extra_crossings_enumeration_matches_product_formula():
    start = time.perf_counter()
    for b in (2, 3):
        for n in range(1, 9):
            assert len(enumerate_plus(b, n, 2)) == plus_two_count(b, n), (b, n)
    assert time.perf_counter() - start < 60.0


def test_c06_primitive_four_extra_enumeration_matches_reference_counts():
    start = time.perf_counter()
    for n, b in [(6, 2), (6, 3), (7, 3), (7, 4), (8, 3), (8, 4)]:
        found = len(enumerate_plus(b, n, 4, primitive=True))
        assert found == FOUR_EXTRA_TABLE[(n, b)], (n, b, found)
    assert time.perf_counter() - start < 300.0


def test_c06b_six_and_eight_extra_crossings_match_reference_rows():
    start = time.perf_counter()
    b = 5
    for d, row in SURPLUS_ROWS_B5.items():
        for k, expected in enumerate((0,) + row + (0,), start=b - 1):
            n = k + d // 2
            query = CensusQuery(
                b=b, n=n, perm=identity_perm(b), crossings=b * (b - 1) + d,
                uses_top=True, primitive=True,
            )
            assert census(query) == expected, (d, k)
            if expected <= 10**4:
                assert len(enumerate_plus(b, n, d, primitive=True)) == expected, (d, k)
    assert time.perf_counter() - start < 20.0


def test_c06c_six_and_eight_extra_crossings_on_wider_stacks_match_reference_rows():
    start = time.perf_counter()
    for (b, d), row in SURPLUS_ROWS_WIDER.items():
        for k, expected in enumerate((0,) + row + (0,), start=b - 1):
            query = CensusQuery(
                b=b, n=k + d // 2, perm=identity_perm(b), crossings=b * (b - 1) + d,
                uses_top=True, primitive=True,
            )
            assert census(query) == expected, (b, d, k)
    assert time.perf_counter() - start < 60.0


def test_c07_four_extra_closed_form_matches_reference_table():
    for (n, b), expected in FOUR_EXTRA_TABLE.items():
        assert p4(n, b) == expected, (n, b)
    assert p4(14, 10) == 111111


def test_c08_generalized_stirling_coherence():
    for n in range(1, 9):
        for m in range(1, 4):
            for k in range(1, m * n + 1):
                assert gen_stirling(n, k, m) == gen_stirling_explicit(n, k, m)
            assert falling_factorial(0, 0) == 1
            for x in range(16):
                lhs, rhs = falling_factorial_identity(n, m, x)
                assert lhs == rhs, (n, m, x)
        for k in range(1, n + 1):
            assert gen_stirling(n, k, 1) == stirling2(n, k)


def test_c09_two_at_a_time_census_matches_stirling_sums():
    start = time.perf_counter()
    for b in range(2, 5):
        for sigma in itertools.permutations(range(1, b + 1)):
            suffix = increasing_suffix_length(sigma)
            for n in range(1, 5):
                assert brute_js(sigma, n, b, m=2) == js_count(suffix, n, b, 2)
    assert time.perf_counter() - start < 60.0


def test_c10_single_cycle_mass_is_one_over_b():
    for b in range(2, 5):
        for n in range(1, 9):
            assert cycle_census(b, n)[1] == b ** (n - 1), (b, n)
    for b in range(2, 6):
        gd = card_distribution(b)
        dist = point_distribution(b)
        for n in range(1, 41):
            dist = step_distribution(dist, gd)
            assert single_cycle_mass(dist) == Fraction(1, b), (b, n)


def test_c10b_single_cycle_mass_is_one_over_b_up_to_sixty_balls():
    # the lumped walk's law: the suffix-class row counts js_count gives it
    # and count_by_permutation over b**n rows, weighed with the class sizes;
    # no b! state space is built
    start = time.perf_counter()
    grid = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200}
    for b in range(2, 61):
        at_least = [count_suffix_at_least(b, k) for k in range(1, b + 1)] + [0]
        cycles = [count_suffix_at_least(b, k, cyclic=True) for k in range(1, b)] + [0, 0]
        for n in sorted(grid | {b - 1, b, b + 1}):
            law = {k: Fraction(js_count(k, n, b, 1), b**n) for k in range(max(1, b - n), b + 1)}
            assert sum(law[k] * (at_least[k - 1] - at_least[k]) for k in law) == 1, (b, n)
            assert sum(law[k] * (cycles[k - 1] - cycles[k]) for k in law) == Fraction(1, b), (b, n)
    assert time.perf_counter() - start < 5.0


def test_c11_uniform_is_the_fixed_point_and_the_limit():
    stream = RandomStream(2026)
    for trial in range(20):
        b = 3 if trial % 2 == 0 else 4
        perms = list(itertools.permutations(range(1, b + 1)))
        k = 1 + stream.randrange(5)
        gens = tuple(perms[stream.randrange(len(perms))] for _ in range(k))
        raw = [1 + stream.randrange(20) for _ in range(k)]
        law = {}  # a repeated generator's draws add up
        for g, w in zip(gens, raw):
            law[g] = law.get(g, 0) + Fraction(w, sum(raw))
        gd = GroupDistribution(law)
        u = uniform_distribution(b)
        assert step_distribution(u, gd) == u, trial
    walk = exact_step_distribution(card_distribution(4), 60)
    assert total_variation(walk, uniform_distribution(4)) < Fraction(1, 10**6)


def test_c12_generating_function_cross_checks():
    table = minimal_count_table(6, 10)
    for b in range(1, 7):
        for n in range(11):
            expected = narayana(b, n) if n >= b else 0
            assert table[(b, n)] == expected, (b, n)
    for b in range(1, 7):
        for n in range(11):
            assert functional_equation_residual(table, b, n) == 0, (b, n)
    for b in range(2, 9):
        for n in range(max(b, 3), 13):
            lhs, rhs = convolved_pair_identity(b, n)
            assert lhs == rhs, (b, n)
    for n in range(1, 13):
        for b in range(n + 1):
            for a in range(b + 1):
                lhs, rhs = multinomial_identity(n, b, a)
                assert lhs == rhs, (n, b, a)


def test_c13_structure_roundtrips():
    # set partitions against single-throw rows
    for n in range(1, 6):
        for seq in all_sequences(3, n):
            blocks = sequence_to_partition(seq)
            assert partition_to_sequence(blocks, final_arrangement(seq), 3) == seq
    # arc diagrams against two-at-a-time rows; vertex names collapse to
    # first-occurrence order, so exact identity holds on canonical
    # representatives and class identity holds everywhere
    for k in range(1, 4):
        target = identity_perm(k)
        for n in range(1, 4):
            for g in enumerate_labeled_digraphs(n, k):
                family = digraph_to_family(g)
                seq = family_to_sequence(family, target, k)
                assert sequence_to_family(seq) == family
                rep = family_to_digraph(family)
                assert digraph_to_family(rep) == family
                if g.arcs == family:
                    assert rep == g
    # double covers against order-preserving rows
    for b in (2, 3):
        for n in range(1, 5):
            covers = list(enumerate_2covers(n, b))
            seqs = census(
                CensusQuery(
                    b=b, n=n, m=2, ordered=False,
                    perm=identity_perm(b), thrown=b,
                ),
                collect=True,
            )
            assert len(covers) == len(seqs), (b, n)
            reps = {tuple(sorted(sequence_to_cover(s).rows)) for s in seqs}
            assert reps == {M.rows for M in covers}, (b, n)
            for M in covers:
                seq, start = cover_to_sequence(M, cover_canonical_order(M))
                rebuilt = sequence_to_cover(seq)
                assert sorted(rebuilt.rows) == sorted(M.rows), (b, n)
    # two-extra-crossing rows against their four quarters
    for b in (2, 3):
        for n in range(1, 8):
            for seq in enumerate_plus(b, n, 2):
                pattern = tuple(t[0] for t in throw_pattern(seq))
                parts = decompose_plus_two(pattern, b)
                assert compose_plus_two(*parts) == pattern, (b, n)


def test_c14_worked_nine_card_row_regression():
    assert cycle_string(sequence_permutation(RUNNING)) == "(1 2 4 3)"
    assert final_arrangement(RUNNING) == (3, 1, 4, 2)
    assert siteswap_of(RUNNING) == (3, 4, 2, 5, 3, 10, 5, 2, 2)
    blocks = ((1, 4, 9), (2, 6), (3, 5, 8), (7,))
    assert partition_to_sequence(blocks, (3, 1, 4, 2), 4) == RUNNING
    assert minimal_to_dyck(NESTED) == "((()()))(())(())"
    M = CoverMatrix((
        (1, 0, 1, 0, 0, 0, 1),
        (0, 1, 0, 0, 1, 0, 0),
        (1, 0, 0, 1, 0, 1, 0),
        (0, 1, 0, 0, 1, 0, 0),
        (0, 0, 1, 1, 0, 1, 1),
    ))
    assert cover_partial_order(M) == ((1,), (3,), (2, 4), (5,))
