import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from jugglecards import counting, enumeration
from jugglecards.cards import (
    Card,
    CardSequence,
    apply_card,
    card_permutation,
    cycle_count,
    identity_perm,
    inverse,
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
    _Census,
    _census_by_permutation,
    _census_from,
    _check_family,
    all_sequences,
    brute_js,
    census,
    census_rows,
    count_by_permutation,
    cycle_census,
    enumerate_2covers,
    enumerate_dyck_words,
    enumerate_labeled_digraphs,
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


def test_census_query_refuses_a_row_past_a_million_cards():
    assert CensusQuery(b=1, n=10**6).n == 10**6
    with pytest.raises(ValueError, match="^rows hold at most 1000000 cards, got n=1000001$"):
        CensusQuery(b=1, n=10**6 + 1)


@pytest.mark.parametrize("b, m", [(0, 1), (-1, 1), (3, 0), (3, 4)])
def test_throw_cards_rejects_families_outside_one_to_b(b, m):
    for ordered in (True, False):
        with pytest.raises(ValueError):
            throw_cards(b, m, ordered)


@pytest.mark.parametrize(
    "b, m, ordered, fits",
    [
        (1000, 1, True, True),  # 10**6 levels, the cap
        (1001, 1, True, False),
        (100, 2, True, True),  # 9900 cards of 100 levels
        (101, 2, True, False),
        (10**6, 10**6, False, True),  # one card
        (10**6 + 1, 10**6 + 1, False, False),
        (10**9, 10**9 // 2, True, False),  # refused without computing perm
        (10**9, 10**9 // 2, False, False),
    ],
)
def test_card_families_past_a_million_levels_are_refused(b, m, ordered, fits):
    if fits:
        _check_family(b, m, ordered)
    else:
        with pytest.raises(ValueError, match="too many to list"):
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


def test_packed_crossing_counts_are_the_coefficients_of_a_power():
    # C_i crosses i - 1 balls, so the rows of n single throws by their
    # crossings are the coefficients of (1 + x + ... + x^(b-1))^n; at
    # b = 4, n = 40 the middle ones pass 2**64
    b, n = 4, 40
    power = [1]
    for _ in range(n):
        power = [sum(power[max(0, c - b + 1) : c + 1]) for c in range(len(power) + b - 1)]
    assert max(power) > 2**64
    counts = [census(CensusQuery(b=b, n=n, crossings=c)) for c in range(len(power) + 1)]
    assert counts == power + [0]
    assert census(CensusQuery(b=b, n=n, max_crossings=n * (b - 1))) == b**n


def test_the_table_keys_states_without_their_crossings():
    engine = _Census(CensusQuery(b=5, n=7, max_crossings=12))
    assert engine.count() == _census_from(engine.query, False)
    # one state per arrangement, however many crossings reach it
    assert len(engine.keys) <= math.factorial(5)


def test_rows_are_built_only_for_states_past_the_thrown_prune():
    # every card must throw two balls not thrown before, and a state whose
    # row was built before the prune would throw fewer; the tree walk
    # gives the same 2520 rows
    engine = _Census(CensusQuery(b=8, n=4, m=2, ordered=False, thrown=8))
    assert engine.count() == 2520
    for sid in engine.table:
        arr, _, _, mask = engine.keys[sid]
        assert (mask | 1 << arr[0] | 1 << arr[1]).bit_count() == mask.bit_count() + 2
    assert 0 < len(engine.table) < len(engine.keys) // 20


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


def completion_counts(graph, accepted):
    """Per depth of a pruned move graph, the accepted rows completing
    each live state, counted forward from nothing but the moves."""
    ways = [dict.fromkeys(accepted, 1)]
    for edges in reversed(graph):
        later = ways[-1]
        ways.append({s: sum(later[c] for _, c in kids) for s, kids in edges.items() if kids})
    return ways[::-1]


@pytest.mark.parametrize(
    "query",
    [
        CensusQuery(b=1, n=100_000),
        CensusQuery(b=3, n=40),
        CensusQuery(b=3, n=11, perm=identity_perm(3), crossings=8, uses_top=True),
        CensusQuery(b=4, n=6, m=2, ordered=False, thrown=3),
        CensusQuery(b=4, n=1),
        CensusQuery(b=2, n=3, perm=identity_perm(2), crossings=99),
        # 547 keys are reached and 105 are live: the room still counts the
        # moves out of all 547
        CensusQuery(b=4, n=9, perm=identity_perm(4), crossings=12, uses_top=True),
    ],
)
def test_tails_never_outgrow_the_move_graph(query):
    engine = _Census(query)
    # the moves the forward pass builds, counted here one depth at a time
    # over (state id, crossings so far) keys
    deltas = [delta for _, _, delta, _, _ in engine.steps]
    moves, frontier = 0, {(0, 0)}
    for depth in range(query.n):
        kids = [
            (kid, cr + delta)
            for sid, cr in frontier
            for kid, delta in zip(engine.row(sid, depth), deltas)
            if cr + delta <= engine.budget
        ]
        moves += len(kids)
        frontier = set(kids)
    graph, split, tails = engine.move_graph(engine.cards)
    accepted = {c for kids in graph[-1].values() for _, c in kids}
    ways = completion_counts(graph, accepted)
    # the level listed at depth d holds one tail of n - d cards per completion
    cells = [(query.n - d) * sum(ways[d].values()) for d in range(query.n)]
    assert 1 <= split <= query.n
    assert sum(cells[split:]) <= moves
    assert split == 1 or sum(cells[split - 1 :]) > moves
    assert {s: len(ts) for s, ts in tails.items()} == ways[split]
    assert all(len(t) == query.n - split for ts in tails.values() for t in ts)


@pytest.mark.parametrize(
    "query, whole",
    [
        # split 1: every level below the root fits in the moves built; at
        # n = 1 there is no such level, and an empty census lists no cell
        (CensusQuery(b=4, n=1), True),
        (CensusQuery(b=3, n=1, m=2, ordered=False, thrown=2), True),
        (CensusQuery(b=1, n=5000), False),
        (CensusQuery(b=3, n=11, perm=identity_perm(3), crossings=8, uses_top=True), False),
        (CensusQuery(b=4, n=6, m=2, ordered=False, thrown=3), False),
        (CensusQuery(b=2, n=3, perm=identity_perm(2), crossings=99), True),
    ],
)
def test_census_rows_are_walked_prefixes_and_their_tails(query, whole):
    _, split, _ = _Census(query).move_graph(throw_cards(query.b, query.m, query.ordered))
    assert (split == 1) == whole
    assert tuple(census_rows(query)) == _census_from(query, True)


def prefix_keys(query):
    """Per depth, the distinct (state, crossings so far) pairs among the
    prefixes of the accepted rows, each part kept only when a filter reads
    it, as the census engine keys them."""
    q = query
    crossed = q.crossings is not None or q.max_crossings is not None
    bottom, top = Card(q.b, (1,)), Card(q.b, (q.b,))
    keys = [set() for _ in range(q.n + 1)]
    for seq in _census_from(q, True):
        arr, cr, thrown = identity_perm(q.b), 0, frozenset()
        for depth in range(q.n + 1):
            prefix = seq.cards[:depth]
            keys[depth].add((
                arr,
                q.uses_top is not None and top in prefix,
                q.primitive is not None and bottom in prefix,
                thrown if q.thrown is not None else None,
                cr if crossed else 0,
            ))
            if depth < q.n:
                card = seq.cards[depth]
                thrown = thrown.union(arr[: q.m])
                arr = apply_card(arr, card)
                cr += inversions(card_permutation(card))
    return [len(level) for level in keys]


def test_the_move_graph_holds_only_live_keys():
    # a key is built only when some accepted row passes through it, so
    # each depth holds one key per distinct prefix state of the rows, and
    # each key has a move
    rng = random.Random(3401)
    filtered = set()
    for _ in range(200):
        b = rng.randint(1, 4)
        m = rng.randint(1, min(2, b))
        ordered = rng.random() < 0.5
        family = len(throw_cards(b, m, ordered))
        n = rng.randint(1, max(k for k in range(7) if family**k <= 2000))
        values = filter_values(b, n, m, ordered)
        filters = {name: rng.choice(values[name]) for name in sorted(values) if rng.random() < 0.5}
        filtered.update(filters)
        q = CensusQuery(b=b, n=n, m=m, ordered=ordered, **filters)
        engine = _Census(q)
        graph, _, _ = engine.move_graph(engine.cards)
        last = {c for kids in graph[-1].values() for _, c in kids}
        assert [len(edges) for edges in graph] + [len(last)] == prefix_keys(q), q
        assert all(kids for edges in graph for kids in edges.values()), q
    assert filtered == set(filter_values(1, 1, 1, True))


def test_census_rows_match_the_tree_walk_on_seeded_queries():
    rng = random.Random(20151)
    for _ in range(300):
        b = rng.randint(1, 4)
        m = rng.randint(1, min(2, b))
        ordered = rng.random() < 0.5
        family = len(throw_cards(b, m, ordered))
        n = rng.randint(1, max(k for k in range(7) if family**k <= 2000))
        values = filter_values(b, n, m, ordered)
        filters = {name: rng.choice(values[name]) for name in sorted(values) if rng.random() < 0.5}
        q = CensusQuery(b=b, n=n, m=m, ordered=ordered, **filters)
        assert tuple(census_rows(q)) == _census_from(q, True), q


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


def test_brute_js_walks_long_rows_without_recursion():
    assert brute_js((1,), 5000, 1) == 1


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


def test_set_partitions_come_in_restricted_growth_order():
    # point x goes to block a[x-1], a new block being one past the largest so far
    for n in range(8):
        growth = [
            a
            for a in itertools.product(*(range(x) for x in range(1, n + 1)))
            if all(a[i] <= max(a[:i], default=-1) + 1 for i in range(n))
        ]
        for k in [None, *range(n + 2)]:
            want = [
                tuple(tuple(x + 1 for x in range(n) if a[x] == j) for j in range(blocks))
                for a in growth
                if k in (None, blocks := max(a, default=-1) + 1)
            ]
            assert list(enumerate_set_partitions(n, k)) == want, (n, k)


def test_listings_answer_deep_inputs_without_recursion():
    one_block = (tuple(range(1, 1201)),)
    assert next(enumerate_set_partitions(1200, 1)) == one_block
    assert next(enumerate_noncrossing_partitions(1200, 1)) == one_block
    assert next(enumerate_dyck_words(1200)) == "(" * 1200 + ")" * 1200
    assert list(enumerate_noncrossing_partitions(0)) == [()]


def test_a_listing_skips_branches_that_cannot_end_with_k_blocks():
    # 1..14 has 190899322 partitions, and a walk that tried them all would
    # run for hours; the one into 14 blocks comes at once
    src = pathlib.Path(enumeration.__file__).parents[1]
    code = "from jugglecards.enumeration import *; print(list(enumerate_set_partitions(14, 14)))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=20,
    )
    assert done.stdout == str([tuple((x,) for x in range(1, 15))]) + "\n"


def test_cover_and_digraph_listings_skip_prefixes_that_cannot_cover():
    # 12 rows are covered by 6 disjoint pairs, but trying all 66**6 column
    # tuples (132**6 arc tuples) before filtering gives no answer for hours
    src = pathlib.Path(enumeration.__file__).parents[1]
    code = (
        "from jugglecards.enumeration import *; "
        "print(next(enumerate_2covers(6, 12)).rows[::2]); "
        "print(next(enumerate_labeled_digraphs(6, 12)).arcs)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=20,
    )
    pairs = [tuple(int(i == j) for i in range(6)) for j in reversed(range(6))]
    arcs = [(i, i + 1) for i in range(1, 12, 2)]
    assert done.stdout == f"{tuple(pairs)}\n{tuple(arcs)}\n"


def test_cover_and_digraph_listings_are_the_filtered_products():
    for n in range(1, 4):
        for k in range(1, 6):
            pairs = list(itertools.combinations(range(k), 2))
            covers = []
            for cols in itertools.product(pairs, repeat=n):
                rows = tuple(tuple(int(i in col) for col in cols) for i in range(k))
                if all(map(any, rows)) and rows == tuple(sorted(rows)):
                    covers.append(rows)
            assert [M.rows for M in enumerate_2covers(n, k)] == covers, (n, k)
            arcs = [(t, h) for t in range(1, k + 1) for h in range(1, k + 1) if t != h]
            graphs = [
                combo for combo in itertools.product(arcs, repeat=n)
                if {v for arc in combo for v in arc} == set(range(1, k + 1))
            ]
            assert [g.arcs for g in enumerate_labeled_digraphs(n, k)] == graphs, (n, k)


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


def _engine_tables(b, m, depth):
    """``(n, table)`` for n = 1..depth: the census engine's permutation
    states tallied by permutation and thrown count, one card at a time,
    so every n costs one engine run."""
    states = _Census(CensusQuery(b=b, n=depth, m=m), track_thrown=True)
    layer = {0: 1}
    for n in range(1, depth + 1):
        layer = states.step(layer, n - 1)
        table = {}
        for sid, ways in layer.items():
            arr, _, _, mask = states.keys[sid]
            key = (inverse(arr), mask.bit_count())
            table[key] = table.get(key, 0) + ways
        yield n, table


def test_lumped_counts_are_the_engine_tables():
    # ordered families read the suffix-class table; the engine is its oracle
    for b in range(1, 7):
        for m in range(1, min(b, 3) + 1):
            for n, by_thrown in _engine_tables(b, m, 7):
                assert count_by_permutation(b, n, m, by_thrown=True) == by_thrown, (b, n, m)
                plain = {}
                for (perm, _), ways in by_thrown.items():
                    plain[perm] = plain.get(perm, 0) + ways
                assert count_by_permutation(b, n, m) == plain, (b, n, m)


def test_unordered_families_take_the_table_only_for_single_throws():
    for b, n in ((3, 4), (4, 3)):
        for by_thrown in (False, True):
            query = CensusQuery(b=b, n=n, ordered=False)
            assert count_by_permutation(b, n, ordered=False, by_thrown=by_thrown) == (
                _census_by_permutation(query, by_thrown))
            with mock.patch.object(enumeration, "_lumped_table", side_effect=AssertionError):
                table = count_by_permutation(b, n, m=2, ordered=False, by_thrown=by_thrown)
            assert table == _census_by_permutation(
                CensusQuery(b=b, n=n, m=2, ordered=False), by_thrown)


def test_the_lumped_table_refuses_a_support_past_its_bound():
    # three single throws on 4 balls reach 4!/1! = 24 permutations
    with mock.patch.object(enumeration, "_MAX_SUPPORT", 24):
        assert len(count_by_permutation(4, 3)) == 24
    untouched = dict(side_effect=AssertionError)
    with mock.patch.object(enumeration, "_MAX_SUPPORT", 23), \
            mock.patch.object(counting, "js_count", **untouched), \
            mock.patch.object(counting, "gen_stirling", **untouched), \
            mock.patch.object(enumeration, "increasing_suffix_length", **untouched):
        with pytest.raises(ValueError, match="more than 23"):
            count_by_permutation(4, 3)
        with pytest.raises(ValueError, match="more than 23"):
            count_by_permutation(4, 3, by_thrown=True)


@pytest.mark.parametrize("ordered", [True, False])
@pytest.mark.parametrize("by_thrown", [False, True])
def test_count_by_permutation_checks_its_arguments_on_every_route(ordered, by_thrown):
    # for m >= 2 each (ordered, by_thrown) pair takes its own route; nothing
    # is counted before the family and the row length are checked
    refusals = [
        ((3, 0, 1), "need at least one card, got n=0"),
        ((3, 0, 2), "need at least one card, got n=0"),
        ((3, 2, 0), "cards throw m=0 balls, must be between 1 and b=3"),
        ((3, 2, 4), "cards throw m=4 balls, must be between 1 and b=3"),
        ((0, 2, 1), "need at least one ball, got b=0"),
        ((0, 2, 2), "need at least one ball, got b=0"),
    ]
    untouched = dict(side_effect=AssertionError)
    with mock.patch.object(enumeration, "_lumped_table", **untouched), \
            mock.patch.object(enumeration, "_descent_table", **untouched), \
            mock.patch.object(enumeration, "_Census", **untouched):
        for (b, n, m), refusal in refusals:
            with pytest.raises(ValueError) as refused:
                count_by_permutation(b, n, m, ordered, by_thrown)
            assert str(refused.value) == refusal, (b, n, m)


def test_the_unordered_tally_refuses_a_support_past_its_bound():
    # one card throwing 2 of 4 balls reaches at most perm(4, 2) = 12 permutations
    with mock.patch.object(enumeration, "_MAX_SUPPORT", 12):
        assert len(count_by_permutation(4, 1, m=2, ordered=False)) == 6
    with mock.patch.object(enumeration, "_MAX_SUPPORT", 11), \
            mock.patch.object(enumeration._Census, "final_layer", side_effect=AssertionError), \
            mock.patch.object(enumeration, "_tie_table", side_effect=AssertionError):
        with pytest.raises(ValueError, match="more than 11"):
            count_by_permutation(4, 1, m=2, ordered=False)

    # eight such cards on b balls reach up to b! permutations: 10! is refused
    # before the engine (by thrown count) or the tie table (without) runs,
    # 9! = 362,880 is not
    class Ran(Exception):
        pass

    with mock.patch.object(enumeration._Census, "final_layer", side_effect=Ran), \
            mock.patch.object(enumeration, "_tie_table", side_effect=Ran):
        for by_thrown in (False, True):
            with pytest.raises(ValueError, match="more than 1000000 permutations"):
                count_by_permutation(10, 8, m=2, ordered=False, by_thrown=by_thrown)
            with pytest.raises(Ran):
                count_by_permutation(9, 8, m=2, ordered=False, by_thrown=by_thrown)


def test_the_descent_table_is_the_engine_tally():
    # every unordered multi-throw family with b <= 6 and n <= 5, permutation
    # by permutation, against the census engine's final layer
    for b in range(2, 7):
        for m in range(2, b + 1):
            for n in range(1, 6):
                with mock.patch.object(enumeration, "_Census", side_effect=AssertionError):
                    table = count_by_permutation(b, n, m, ordered=False)
                query = CensusQuery(b=b, n=n, m=m, ordered=False)
                assert table == _census_by_permutation(query, False), (b, m, n)
                assert sum(table.values()) == math.comb(b, m) ** n


def test_a_census_by_perm_alone_reads_the_tie_table():
    for b, m, n in ((2, 2, 3), (3, 2, 4), (4, 2, 5), (4, 3, 3), (5, 2, 3), (5, 4, 2)):
        for perm in itertools.permutations(range(1, b + 1)):
            query = CensusQuery(b=b, n=n, m=m, ordered=False, perm=perm)
            with mock.patch.object(enumeration, "_Census", side_effect=AssertionError):
                ways = census(query)
            assert ways == _Census(query).count(), (b, m, n, perm)
            if b <= 4 and n <= 3:
                assert ways == _census_from(query, False), (b, m, n, perm)
    # any other filter, an ordered or single-throw family, or no perm takes the engine
    with mock.patch.object(enumeration, "_tie_table", side_effect=AssertionError):
        for query in (
            CensusQuery(b=4, n=3, m=2, ordered=False, perm=(2, 1, 4, 3), thrown=4),
            CensusQuery(b=4, n=3, m=2, ordered=False, perm=(2, 1, 4, 3), max_crossings=6),
            CensusQuery(b=4, n=3, m=2, ordered=False, perm=(2, 1, 4, 3), primitive=True),
            CensusQuery(b=4, n=3, m=2, perm=(2, 1, 4, 3)),
            CensusQuery(b=4, n=3, ordered=False, perm=(2, 1, 4, 3)),
            CensusQuery(b=4, n=3, m=2, ordered=False),
        ):
            assert census(query) == _census_from(query, False), query


def test_the_tie_table_refuses_a_layer_past_its_bound():
    # twelve cards throwing 2 of 8 balls: one tie state after the first card,
    # three after the second, more after the third
    assert len(enumeration._tie_table(8, 2, 2)) == 3
    built, moves = [], enumeration._tie_moves

    def spy(*args):
        built.append(args)
        return moves(*args)

    with mock.patch.object(enumeration, "_MAX_SUPPORT", 3), \
            mock.patch.object(enumeration, "_tie_moves", side_effect=spy):
        with pytest.raises(ValueError, match="more than 3 states"):
            enumeration._tie_table(8, 12, 2)
    # moves were built only from the start and the two layers within the bound
    assert len(built) <= 5


def test_the_support_check_multiplies_a_bounded_number_of_factors():
    # one card throwing all of 10**5 balls reaches (b)_(b-1) permutations,
    # 99,999 factors; the check may multiply only as many as decide it
    from jugglecards.stochastic import estimate_single_cycle_probability

    most, perm = enumeration._MAX_SUPPORT.bit_length(), math.perm

    def capped_perm(n, k):
        assert k <= most, f"math.perm asked for {k} factors"
        return perm(n, k)

    with mock.patch.object(math, "perm", capped_perm):
        with pytest.raises(ValueError, match="more than 1000000 permutations"):
            count_by_permutation(10**5, 1, m=10**5, ordered=False)
        assert estimate_single_cycle_probability(10**5, 1, m=10**5, ordered=False, trials=1) == 0


def test_the_capped_support_count_decides_as_the_full_count():
    cap = enumeration._MAX_SUPPORT
    for b in range(1, 40):
        for n in range(40):
            for m in range(1, b + 1):
                full = math.perm(b, min(b - 1, n * m))
                bound = enumeration._support_bound(b, n, m)
                assert (bound > cap) == (full > cap), (b, n, m)
                assert full > cap or bound == full, (b, n, m)
