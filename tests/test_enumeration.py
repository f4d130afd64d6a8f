import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from jugglecards.cards import (
    Card,
    CardSequence,
    card_permutation,
    cycle_count,
    identity_perm,
    inversions,
    sequence_permutation,
)
from jugglecards.counting import (
    binomial,
    js_count,
    narayana,
    plus_two_count,
    stirling2,
)
from jugglecards.enumeration import (
    CensusQuery,
    _census_from,
    all_sequences,
    brute_js,
    census,
    census_rows,
    count_by_permutation,
    cycle_census,
    enumerate_2covers,
    enumerate_dyck_words,
    enumerate_noncrossing_partitions,
    enumerate_plus,
    enumerate_set_partitions,
    throw_cards,
)


def test_card_family_sizes():
    assert len(throw_cards(4)) == 4
    assert len(throw_cards(4, m=2, ordered=True)) == 12
    assert len(throw_cards(4, m=2, ordered=False)) == 6


def test_all_sequences_is_complete_and_duplicate_free():
    seqs = list(all_sequences(2, 2))
    assert len(seqs) == 4 == len(set(seqs))
    seqs = list(all_sequences(3, 2, throw_cards(3, m=2, ordered=False)))
    assert len(seqs) == 9 == len(set(seqs))


def test_census_spot_values():
    assert census(CensusQuery(b=2, n=2, perm=(1, 2))) == 2
    assert census(CensusQuery(b=3, n=4)) == 3**4
    total = sum(
        census(CensusQuery(b=3, n=3, perm=p))
        for p in itertools.permutations((1, 2, 3))
    )
    assert total == 3**3


@pytest.mark.parametrize(
    "fields",
    [
        {"b": 0, "n": 3},
        {"b": 3, "n": -1},
        {"b": 3, "n": 4, "m": 0},
        {"b": 3, "n": 4, "m": 5},
        {"b": 3, "n": 4, "perm": (1, 2)},
        {"b": 3, "n": 4, "perm": (5, 5, 5)},
        {"b": 3, "n": 4, "perm": (1, 1, 2)},
        {"b": 3, "n": 4, "thrown": -1},
        {"b": 3, "n": 4, "crossings": -1},
        {"b": 3, "n": 4, "max_crossings": -2},
        {"b": 3, "n": 0},
    ],
)
def test_census_query_rejects_bad_fields(fields):
    with pytest.raises(ValueError):
        CensusQuery(**fields)


@pytest.mark.parametrize("b, m", [(0, 1), (-1, 1), (3, 0), (3, 4)])
def test_throw_cards_rejects_families_outside_one_to_b(b, m):
    for ordered in (True, False):
        with pytest.raises(ValueError):
            throw_cards(b, m, ordered)


def test_census_rejects_negative_jobs():
    query = CensusQuery(b=3, n=4)
    for collect in (False, True):
        with pytest.raises(ValueError):
            census(query, collect, jobs=-2)
    assert census(query, True, jobs=0) == census(query, True)


def test_census_budget_is_the_tighter_crossing_filter():
    for collect in (False, True):
        tight = CensusQuery(b=3, n=4, crossings=6, max_crossings=2)
        assert census(tight, collect) == _census_from(tight, collect) == (
            () if collect else 0
        )
        loose = CensusQuery(b=3, n=4, crossings=2, max_crossings=6)
        only = CensusQuery(b=3, n=4, crossings=2)
        assert census(loose, collect) == census(only, collect)
        assert _census_from(loose, collect) == _census_from(only, collect)


def filter_values(b, n, m, ordered):
    """Every value of each census filter that can matter at this size."""
    top = n * max(inversions(card_permutation(c)) for c in throw_cards(b, m, ordered))
    return {
        "perm": list(itertools.permutations(range(1, b + 1))),
        "crossings": range(top + 2),
        "max_crossings": range(top + 2),
        "primitive": (True, False),
        "uses_top": (True, False),
        "thrown": range(b + 2),
    }


@st.composite
def census_queries(draw):
    """Queries with a few filters, whose whole tree the brute-force walk
    can visit quickly."""
    b = draw(st.integers(1, 4))
    m = draw(st.integers(1, min(2, b)))
    ordered = draw(st.booleans())
    family = len(throw_cards(b, m, ordered))
    n = draw(st.integers(1, max(k for k in range(6) if family**k <= 2000)))
    values = filter_values(b, n, m, ordered)
    names = draw(st.sets(st.sampled_from(sorted(values)), max_size=3))
    filters = {name: draw(st.sampled_from(values[name])) for name in sorted(names)}
    return CensusQuery(b=b, n=n, m=m, ordered=ordered, **filters)


def test_census_engine_matches_tree_walk_on_each_filter():
    for b, n, m, ordered in ((4, 5, 1, True), (4, 3, 2, True), (4, 4, 2, False)):
        for name, values in filter_values(b, n, m, ordered).items():
            for value in values:
                q = CensusQuery(b=b, n=n, m=m, ordered=ordered, **{name: value})
                assert census(q) == _census_from(q, False), q
                assert census(q, collect=True) == _census_from(q, True), q


@settings(max_examples=300, deadline=None)
@given(census_queries())
def test_census_engine_matches_tree_walk(query):
    assert census(query) == _census_from(query, False)
    assert census(query, collect=True) == _census_from(query, True)


def test_census_rows_are_lazy():
    # all 3**40 rows match; the first must come without building the rest
    assert next(census_rows(CensusQuery(b=3, n=40))) == CardSequence(3, (Card(3, (1,)),) * 40)


def test_census_rows_walk_long_rows_without_recursion():
    rows = census(CensusQuery(b=2, n=5000, crossings=0), collect=True)
    assert rows == (CardSequence(2, (Card(2, (1,)),) * 5000),)


def test_census_parallel_matches_serial():
    q = CensusQuery(b=3, n=5, perm=identity_perm(3))
    assert census(q, jobs=2) == census(q)
    assert census(q, collect=True, jobs=2) == census(q, collect=True)


def test_brute_js_examples():
    assert brute_js((1, 2, 3), 3, 3) == 1 + 3 + 1
    assert brute_js((1,), 4, 1) == 1
    for sigma in itertools.permutations((1, 2, 3)):
        from jugglecards.cards import increasing_suffix_length

        want = js_count(increasing_suffix_length(sigma), 2, 3, 2)
        assert brute_js(sigma, 2, 3, m=2) == want, sigma


def test_enumerate_plus_examples():
    assert len(enumerate_plus(2, 6, 2)) == 15 == plus_two_count(2, 6)
    assert len(enumerate_plus(2, 6, 4, primitive=True)) == 1
    assert len(enumerate_plus(3, 6, 4, primitive=True)) == 3
    assert len(enumerate_plus(3, 7, 4, primitive=True)) == 14
    with pytest.raises(ValueError):
        enumerate_plus(2, 4, 3)


def test_enumerate_plus_members_are_as_filtered():
    from jugglecards.cards import crossings, is_primitive, uses_top_throw

    for seq in enumerate_plus(3, 5, 2):
        assert sequence_permutation(seq) == (1, 2, 3)
        assert crossings(seq) == 8
        assert uses_top_throw(seq)
    for seq in enumerate_plus(3, 5, 2, primitive=True):
        assert is_primitive(seq)


def test_padding_identity_relates_plain_and_primitive():
    # inserting C_1 cards into a primitive core in all C(n,k) ways hits
    # every sequence exactly once
    for d in (0, 2):
        for b in (2, 3):
            for n in range(1, 8):
                plain = len(enumerate_plus(b, n, d))
                padded = sum(
                    binomial(n, k) * len(enumerate_plus(b, k, d, primitive=True))
                    for k in range(1, n + 1)
                )
                assert plain == padded, (d, b, n)


def test_partition_generator_counts():
    assert sum(1 for _ in enumerate_set_partitions(4, 2)) == 7 == stirling2(4, 2)
    for n in range(1, 7):
        total = sum(1 for _ in enumerate_set_partitions(n))
        assert total == sum(stirling2(n, k) for k in range(1, n + 1))


def test_noncrossing_generator_matches_narayana():
    for n in range(1, 8):
        for k in range(1, n + 1):
            got = sum(1 for _ in enumerate_noncrossing_partitions(n, k))
            assert got == narayana(k, n), (n, k)


def test_dyck_generator_matches_catalan():
    for n in range(0, 9):
        words = list(enumerate_dyck_words(n))
        assert len(words) == len(set(words)) == math.comb(2 * n, n) // (n + 1)


def test_cover_generator_shapes():
    # covers of [n] with k rows, summed over k, and a couple of counts
    assert sum(1 for _ in enumerate_2covers(2, 2)) == 1
    assert sum(1 for _ in enumerate_2covers(2, 3)) == 1
    assert sum(1 for _ in enumerate_2covers(2, 4)) == 1
    assert sum(1 for _ in enumerate_2covers(2, 5)) == 0


def test_cycle_census_examples():
    assert cycle_census(2, 3)[1] == 4
    for n in range(1, 7):
        assert cycle_census(3, n)[1] == 3 ** (n - 1), n
    # one card: the census is the cycle-type tally of the cards themselves
    from jugglecards.cards import card_permutation

    for b in range(1, 5):
        single = {}
        for card in throw_cards(b):
            l = cycle_count(card_permutation(card))
            single[l] = single.get(l, 0) + 1
        assert cycle_census(b, 1) == single, b
    assert sum(cycle_census(4, 5).values()) == 4**5


def test_cycle_census_matches_exhaustive_tally():
    for b in range(1, 5):
        for n in range(1, 7):
            tally = {}
            for seq in all_sequences(b, n):
                l = cycle_count(sequence_permutation(seq))
                tally[l] = tally.get(l, 0) + 1
            assert tally == cycle_census(b, n), (b, n)


def test_count_by_permutation_matches_exhaustive():
    for b in (2, 3):
        for n in (1, 2, 3):
            table = count_by_permutation(b, n)
            tally = {}
            for seq in all_sequences(b, n):
                p = sequence_permutation(seq)
                tally[p] = tally.get(p, 0) + 1
            assert tally == table


def test_count_by_thrown_tracks_distinct_balls():
    from jugglecards.cards import single_throws, throw_pattern

    for b in (2, 3):
        table = count_by_permutation(b, 3, by_thrown=True)
        tally = {}
        for seq in all_sequences(b, 3):
            pat = single_throws(throw_pattern(seq))
            key = (sequence_permutation(seq), len(set(pat)))
            tally[key] = tally.get(key, 0) + 1
        assert tally == table
