import collections
import itertools

import pytest
from hypothesis import given, strategies as st

from jugglecards.bijections import (
    CoverMatrix,
    LabeledDigraph,
    canonical_pattern,
    canonicalize_family,
    compose_plus_two,
    cover_canonical_order,
    cover_partial_order,
    cover_to_multigraph,
    cover_to_sequence,
    decompose_plus_two,
    digraph_to_family,
    dyck_peaks,
    dyck_to_minimal,
    dyck_to_pattern,
    family_to_digraph,
    family_to_sequence,
    is_minimal,
    is_noncrossing,
    minimal_to_dyck,
    multigraph_to_cover,
    partition_to_sequence,
    sequence_from_pattern,
    sequence_to_cover,
    sequence_to_family,
    sequence_to_partition,
)
from jugglecards.cards import (
    arrangement_history,
    crossings,
    final_arrangement,
    identity_perm,
    is_identity,
    parse_sequence,
    sequence_permutation,
    single_throws,
    throw_pattern,
    uses_top_throw,
)
from jugglecards.counting import gen_stirling, narayana, plus_two_count
from jugglecards.enumeration import (
    CensusQuery,
    all_sequences,
    census,
    enumerate_2covers,
    enumerate_dyck_words,
    enumerate_labeled_digraphs,
    enumerate_minimal,
    enumerate_plus_two,
    enumerate_set_partitions,
    throw_cards,
)

RUNNING = parse_sequence("C3 C3 C2 C4 C3 C4 C3 C2 C2", 4)
NESTED = parse_sequence("C3 C5 C1 C5 C2 C5 C2 C5", 5)


# ---------------------------------------------------------------------------
# set partitions


def test_running_example_partition():
    assert sequence_to_partition(RUNNING) == ((1, 4, 9), (2, 6), (3, 5, 8), (7,))


def test_partition_round_trip_exhaustive():
    for b in (2, 3):
        for n in range(1, 6):
            for seq in all_sequences(b, n):
                blocks = sequence_to_partition(seq)
                back = partition_to_sequence(blocks, final_arrangement(seq), b)
                assert back == seq, (seq, blocks)


def test_partition_to_sequence_validation():
    ident = identity_perm(3)
    with pytest.raises(ValueError):
        partition_to_sequence(((1, 2), (2, 3)), ident, 3)  # overlap
    with pytest.raises(ValueError):
        partition_to_sequence(((1,), (3,)), ident, 3)  # gap
    with pytest.raises(ValueError):
        partition_to_sequence(((2, 1),), ident, 3)  # unsorted block
    with pytest.raises(ValueError):
        partition_to_sequence(((2,), (1,)), ident, 2)  # minima out of order
    with pytest.raises(ValueError):
        # reversing three balls needs at least two thrown
        partition_to_sequence(((1, 2),), (3, 2, 1), 3)
    with pytest.raises(ValueError):
        # more blocks than balls
        partition_to_sequence(((1,), (2,), (3,)), identity_perm(2), 2)


def test_partition_block_count_range_is_tight():
    # the reversal of three balls is reachable with two or three blocks
    target = (3, 2, 1)
    for blocks in enumerate_set_partitions(3):
        possible = len(blocks) >= 2
        if possible:
            seq = partition_to_sequence(blocks, target, 3)
            assert final_arrangement(seq) == target
        else:
            with pytest.raises(ValueError):
                partition_to_sequence(blocks, target, 3)


def test_is_noncrossing_spot_values():
    assert is_noncrossing(((1, 4), (2, 3)))
    assert not is_noncrossing(((1, 3), (2, 4)))
    assert is_noncrossing(((1, 2, 3),))
    assert is_noncrossing(())


def test_is_noncrossing_matches_pairwise_definition():
    def brute(blocks):
        for x, y in itertools.combinations(blocks, 2):
            for a, c in itertools.combinations(x, 2):
                if any(a < b_ < c < d or b_ < a < d < c for b_ in y for d in y if b_ < d):
                    return False
        return True

    for n in range(1, 7):
        for blocks in enumerate_set_partitions(n):
            assert is_noncrossing(blocks) == brute(blocks), blocks


def test_minimal_sequences_give_noncrossing_partitions():
    for b in range(1, 5):
        for n in range(b, 7):
            for seq in enumerate_minimal(b, n):
                blocks = sequence_to_partition(seq)
                assert len(blocks) == b
                assert is_noncrossing(blocks), (seq, blocks)


# ---------------------------------------------------------------------------
# ordered families and digraphs


def test_canonicalize_family_examples():
    assert canonicalize_family(((7, 2), (2, 7), (2, 5))) == ((1, 2), (2, 1), (2, 3))
    with pytest.raises(ValueError):
        canonicalize_family(((1, 1),))
    with pytest.raises(ValueError):
        canonicalize_family(((1, 2),), k=3)


@given(
    st.lists(
        st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True).map(tuple),
        min_size=1,
        max_size=5,
    ).map(tuple)
)
def test_canonicalize_family_idempotent(family):
    once = canonicalize_family(family)
    assert canonicalize_family(once) == once


def test_family_round_trip_exhaustive():
    for b in (2, 3):
        cards = throw_cards(b, m=2, ordered=True)
        for n in range(1, 4):
            for seq in all_sequences(b, n, cards):
                family = sequence_to_family(seq)
                back = family_to_sequence(family, final_arrangement(seq), b)
                assert back == seq, (seq, family)


def test_family_to_sequence_rejects_noncanonical():
    with pytest.raises(ValueError):
        family_to_sequence(((2, 1),), (1, 2), 2)


def test_worked_digraph_example():
    # six arcs on five vertices, given with arbitrary symbols
    raw = ((3, 5), (1, 3), (2, 1), (5, 2), (1, 4), (3, 4))
    family = canonicalize_family(raw)
    assert family == ((1, 2), (3, 1), (4, 3), (2, 4), (3, 5), (1, 5))
    seq = family_to_sequence(family, (4, 5, 2, 1, 3), 5)
    assert [str(c) for c in seq.cards] == [
        "C2,4",
        "C2,5",
        "C2,3",
        "C5,4",
        "C5,2",
        "C4,2",
    ]
    assert final_arrangement(seq) == (4, 5, 2, 1, 3)
    assert sequence_to_family(seq) == family
    g = family_to_digraph(family)
    assert g.k == 5 and g.n == 6
    assert digraph_to_family(g) == family


def test_digraph_validation():
    with pytest.raises(ValueError):
        LabeledDigraph(2, ((1, 1),))  # loop
    with pytest.raises(ValueError):
        LabeledDigraph(2, ((1, 3),))  # vertex out of range
    with pytest.raises(ValueError):
        digraph_to_family(LabeledDigraph(3, ((1, 2), (2, 1))))  # vertex 3 unused


def test_digraph_classes_and_labelings_count():
    import math

    for k in range(2, 4):
        for n in range(1, 4):
            graphs = list(enumerate_labeled_digraphs(n, k))
            assert len(graphs) == math.factorial(k) * gen_stirling(n, k, 2)
            classes = {digraph_to_family(g) for g in graphs}
            assert len(classes) == gen_stirling(n, k, 2)


def test_digraph_classes_biject_with_sequences():
    # for each target arrangement, canonical families with k symbols map
    # one-to-one onto the sequences throwing k balls and realizing it
    b, n, k = 3, 2, 3
    classes = {digraph_to_family(g) for g in enumerate_labeled_digraphs(n, k)}
    for target in itertools.permutations(range(1, b + 1)):
        matching = [
            s
            for s in census(CensusQuery(b=b, n=n, m=2, thrown=k), collect=True)
            if final_arrangement(s) == target
        ]
        built = set()
        for family in classes:
            try:
                built.add(family_to_sequence(family, target, b))
            except ValueError:
                continue
        assert built == set(matching), target


# ---------------------------------------------------------------------------
# covers


WORKED_COVER = CoverMatrix(
    (
        (1, 0, 1, 0, 0, 0, 1),
        (0, 1, 0, 0, 1, 0, 0),
        (1, 0, 0, 1, 0, 1, 0),
        (0, 1, 0, 0, 1, 0, 0),
        (0, 0, 1, 1, 0, 1, 1),
    )
)


def test_cover_matrix_validation():
    with pytest.raises(ValueError):
        CoverMatrix(((1, 0), (0, 1), (0, 0)))  # zero row
    with pytest.raises(ValueError):
        CoverMatrix(((1, 1), (1, 0)))  # unequal column sums
    with pytest.raises(ValueError):
        CoverMatrix(((1, 2), (1, 0)))  # non-binary entry


@pytest.mark.parametrize(
    "rows, reason",
    [
        ((), "cover needs at least one row"),
        (((),), "cover needs at least one column"),
        (((1, 0), (1,)), "ragged cover matrix"),
        (((1, 2), (1, 0)), "cover entries must be 0 or 1"),
        ((([1],),), "cover entries must be 0 or 1"),
        ((("1",),), "cover entries must be 0 or 1"),
        (((None,),), "cover entries must be 0 or 1"),
        (((1, 0), (0, 0), (0, 1)), "cover has an all-zero row"),
        (((0, 1), (1, 0), (0, 0), (1,)), "cover has an all-zero row"),
        (((1, 1), (1, 0)), "column sums differ: [1, 2]"),
        (((1, 1, 1), (0, 1, 1), (0, 0, 1)), "column sums differ: [1, 2, 3]"),
    ],
)
def test_cover_matrix_names_each_refusal(rows, reason):
    with pytest.raises(ValueError) as exc:
        CoverMatrix(rows)
    assert str(exc.value) == reason


@pytest.mark.parametrize(
    "call, args, reason",
    [
        (partition_to_sequence, (((1,), ()), (1, 2, 3), 3), "empty block in partition"),
        (partition_to_sequence, ((), (1, 2, 3), 3), "partition needs at least one block"),
        (sequence_from_pattern, ((), 2), "partition needs at least one block"),
        (canonicalize_family, ((),), "family needs at least one entry"),
        (canonicalize_family, (((1,), ()),), "empty entry in family"),
        (LabeledDigraph, (0, ((1, 2),)), "need at least one vertex"),
        (LabeledDigraph, (2, ()), "need at least one arc"),
        (family_to_digraph, (((2, 1),),), "family must be canonical"),
        (family_to_digraph, (((1, 2, 3),),), "entry (1, 2, 3) is not a pair"),
        (multigraph_to_cover, (2, ()), "need at least one edge"),
        (multigraph_to_cover, (2, ((1, 3),)), "edge (1,3) outside vertices 1..2"),
        # no row has zero balls: refused in the words of Card, not as a range 1..0
        (partition_to_sequence, (((1,),), (), 0), "need at least one ball, got b=0"),
        (family_to_sequence, (((1, 2),), (), 0), "need at least one ball, got b=0"),
        (sequence_from_pattern, ((1,), 0), "need at least one ball, got b=0"),
        # an entry of another length is named, not unpacked
        (LabeledDigraph, (2, ((1, 2, 3),)), "arc (1, 2, 3) is not a pair"),
        (multigraph_to_cover, (3, ((1,),)), "edge (1,) is not a pair"),
        # out of range is refused before a loop, edges as arcs
        (multigraph_to_cover, (2, ((3, 3),)), "edge (3,3) outside vertices 1..2"),
        (LabeledDigraph, (2, ((3, 3),)), "arc (3,3) outside vertices 1..2"),
    ],
)
def test_bijections_name_each_refusal(call, args, reason):
    with pytest.raises(ValueError) as exc:
        call(*args)
    assert str(exc.value) == reason


def test_worked_cover_partial_order():
    assert cover_partial_order(WORKED_COVER) == ((1,), (3,), (2, 4), (5,))
    assert cover_canonical_order(WORKED_COVER) == (1, 3, 2, 4, 5)


def _reference_cover_order(M):
    """The order from its definition: ``u`` sits below ``v`` when the first
    column holding exactly one of them holds ``u``.  A class's height is
    the number of balls below it; classes are listed lowest first."""

    def below(u, v):
        for cu, cv in zip(M.rows[u - 1], M.rows[v - 1]):
            if cu != cv:
                return cu == 1
        return False

    balls = range(1, M.k + 1)
    for u, v in itertools.combinations(balls, 2):
        assert not (below(u, v) and below(v, u))
    height = {u: sum(below(v, u) for v in balls) for u in balls}
    return tuple(
        tuple(u for u in balls if height[u] == h) for h in sorted(set(height.values()))
    )


def _all_covers(k, n):
    """Every valid cover with ``k`` rows and ``n`` columns."""
    for m in range(1, k + 1):
        columns = list(itertools.combinations(range(k), m))
        for cols in itertools.product(columns, repeat=n):
            rows = tuple(tuple(int(i in col) for col in cols) for i in range(k))
            if all(any(row) for row in rows):
                yield CoverMatrix(rows)


def test_cover_order_matches_its_definition():
    covers = [M for k in range(1, 5) for n in range(1, 5) for M in _all_covers(k, n)]
    assert len(covers) == 1634
    for M in covers:
        assert cover_partial_order(M) == _reference_cover_order(M), M.rows
    as_lists = CoverMatrix([list(row) for row in WORKED_COVER.rows])
    assert cover_partial_order(as_lists) == ((1,), (3,), (2, 4), (5,))
    assert cover_partial_order(as_lists) == _reference_cover_order(as_lists)


def test_worked_cover_to_sequence():
    seq, start = cover_to_sequence(WORKED_COVER, (4, 1, 5, 3, 2))
    assert start == (1, 3, 4, 2, 5)
    assert [str(c) for c in seq.cards] == [
        "C4,5",
        "C4,5",
        "C1,5",
        "C3,4",
        "C4,5",
        "C2,4",
        "C2,3",
    ]
    # played from the sorted stack the virtual balls pick up new names:
    # the ball starting at level l stands for the virtual ball start[l-1]
    assert final_arrangement(seq) == (3, 1, 5, 2, 4)


def test_cover_to_sequence_initial_argument():
    seq, start = cover_to_sequence(WORKED_COVER, (4, 1, 5, 3, 2), initial=(1, 3, 4, 2, 5))
    assert start == (1, 3, 4, 2, 5)
    # swapping the equivalent balls 2 and 4 against the terminal's order
    with pytest.raises(ValueError, match="2 and 4"):
        cover_to_sequence(WORKED_COVER, (4, 1, 5, 3, 2), initial=(1, 3, 2, 4, 5))
    # ties agree but the class order is wrong
    with pytest.raises(ValueError):
        cover_to_sequence(WORKED_COVER, (4, 1, 5, 3, 2), initial=(3, 1, 4, 2, 5))


def test_cover_canonical_terminal_gives_identity_permutation():
    for n in range(1, 4):
        for k in range(1, 2 * n + 1):
            for M in enumerate_2covers(n, k):
                seq, start = cover_to_sequence(M, cover_canonical_order(M))
                assert start == cover_canonical_order(M)
                assert is_identity(sequence_permutation(seq)), M.rows


def test_cover_round_trip_through_sequences():
    for n in range(1, 4):
        for k in range(1, 2 * n + 1):
            for M in enumerate_2covers(n, k):
                seq, start = cover_to_sequence(M, cover_canonical_order(M))
                back = sequence_to_cover(seq)
                # the ball at level l plays virtual ball start[l-1]
                rows = tuple(back.rows[start.index(v)] for v in range(1, k + 1))
                assert rows == M.rows, (M.rows, rows)


def test_cover_multisets_match_order_preserving_rows():
    # covers of [n] by b rows, up to relabeling, match order-preserving
    # sequences with the identity permutation and all b balls thrown
    for b in (2, 3):
        for n in range(1, 5):
            covers = list(enumerate_2covers(n, b))
            q = CensusQuery(
                b=b, n=n, m=2, ordered=False, perm=identity_perm(b), thrown=b
            )
            seqs = census(q, collect=True)
            assert len(covers) == len(seqs), (b, n)
            reps = {tuple(sorted(sequence_to_cover(s).rows)) for s in seqs}
            assert reps == {M.rows for M in covers}, (b, n)


def test_two_edge_multigraph_classes():
    # the three shapes on two labeled edges: a doubled edge, a path, and
    # two disjoint edges, appearing at k = 2, 3, 4 rows
    assert sum(1 for _ in enumerate_2covers(2, 1)) == 0
    shapes = {}
    for k in (2, 3, 4):
        (M,) = enumerate_2covers(2, k)
        shapes[k] = cover_to_multigraph(M)
    assert shapes[2] == ((1, 2), (1, 2))
    assert sorted(map(sorted, shapes[3])) == [[1, 3], [2, 3]]
    assert sorted(map(sorted, shapes[4])) == [[1, 2], [3, 4]]


def test_multigraph_round_trip():
    for k in range(1, 7):
        for M in enumerate_2covers(3, k):
            edges = cover_to_multigraph(M)
            assert multigraph_to_cover(k, edges) == M


def test_multigraph_validation():
    with pytest.raises(ValueError):
        cover_to_multigraph(CoverMatrix(((1,), (1,), (1,))))  # m=3
    with pytest.raises(ValueError):
        multigraph_to_cover(2, ((1, 1),))  # loop
    with pytest.raises(ValueError):
        multigraph_to_cover(3, ((1, 2), (1, 2)))  # vertex 3 isolated


# ---------------------------------------------------------------------------
# fewest-crossing sequences and Dyck words


def test_is_minimal():
    assert is_minimal(NESTED)
    assert not is_minimal(RUNNING)
    assert is_minimal(parse_sequence("C1", 1))


def _reference_dyck(pattern):
    """The paper's ``(B)C`` recursion on throw patterns: ``B`` runs between
    the first two throws of ball 1, ``C`` from the second one on."""
    if not pattern:
        return ""
    s = next((j for j in range(1, len(pattern)) if pattern[j] == 1), len(pattern))
    inner = _reference_dyck(canonical_pattern(pattern[1:s]))
    return "(" + inner + ")" + _reference_dyck(canonical_pattern(pattern[s:]))


def test_minimal_to_dyck_is_the_recursive_split():
    assert _reference_dyck(single_throws(throw_pattern(NESTED))) == "((()()))(())(())"
    for b in range(1, 6):
        for n in range(b, 10):
            for seq in enumerate_minimal(b, n):
                assert minimal_to_dyck(seq) == _reference_dyck(
                    single_throws(throw_pattern(seq))
                )
    with pytest.raises(ValueError):
        minimal_to_dyck(RUNNING)


def test_nested_example_dyck_word():
    word = minimal_to_dyck(NESTED)
    assert word == "((()()))(())(())"
    assert dyck_to_minimal(word) == NESTED
    assert dyck_peaks(word) == NESTED.n + 1 - NESTED.b


def test_dyck_words_biject_with_minimal_sequences():
    for n in range(1, 6):
        words = set(enumerate_dyck_words(n))
        built = {}
        for word in words:
            seq = dyck_to_minimal(word)
            assert is_minimal(seq) and seq.n == n
            assert minimal_to_dyck(seq) == word
            built[word] = seq
        # peak count records the ball count
        for word, seq in built.items():
            assert dyck_peaks(word) == n + 1 - seq.b
        # and every minimal sequence arises exactly once
        for b in range(1, n + 1):
            expected = {minimal_to_dyck(s) for s in enumerate_minimal(b, n)}
            assert expected == {w for w, s in built.items() if s.b == b}
            assert len(expected) == narayana(b, n)


def test_dyck_rejects_bad_words():
    for bad in ("(", ")(", "(()", "(x)"):
        with pytest.raises(ValueError):
            dyck_to_minimal(bad)


def test_dyck_to_pattern_names_the_first_fault():
    assert dyck_to_pattern("") == ()
    assert dyck_to_pattern("((()()))(())(())") == single_throws(throw_pattern(NESTED))
    cases = {
        "())(": "unmatched ')' at position 3",
        "(x)": "unexpected character 'x' at position 2",
        "(()": "1 unclosed '('",
        "((": "2 unclosed '('",
    }
    for word, message in cases.items():
        with pytest.raises(ValueError) as err:
            dyck_to_pattern(word)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# the plus-two decomposition


def test_sequence_from_pattern_reconstructs():
    assert sequence_from_pattern((1, 2, 3, 3, 1, 4, 1, 5), 5) == NESTED
    with pytest.raises(ValueError):
        sequence_from_pattern((2, 1), 2)


def test_smallest_plus_two_pattern():
    parts = decompose_plus_two((1, 2, 1, 2), 2)
    assert parts == ((1,), (1,), (1,), (1,), 1)
    assert compose_plus_two(*parts) == (1, 2, 1, 2)


def test_plus_two_round_trip_exhaustive():
    for b in (2, 3):
        for n in range(b, 8):
            for seq in enumerate_plus_two(b, n):
                pattern = single_throws(throw_pattern(seq))
                p0_, p1_, p2_, p3_, i1 = decompose_plus_two(pattern, b)
                for part in (p0_, p1_, p2_, p3_):
                    assert is_minimal(sequence_from_pattern(part, len(set(part))))
                assert compose_plus_two(p0_, p1_, p2_, p3_, i1) == pattern


def test_compose_plus_two_always_lands_in_family():
    # composing any four small fewest-crossing patterns at any cut gives
    # a pattern with exactly two extra crossings, and decompose inverts
    small = []
    for c in (1, 2):
        for m in range(c, 4):
            small += [
                single_throws(throw_pattern(s)) for s in enumerate_minimal(c, m)
            ]
    for ps in itertools.product(small, repeat=4):
        for i1 in range(1, len(ps[0]) + 1):
            merged = compose_plus_two(*ps, i1)
            balls = len(set(merged))
            seq = sequence_from_pattern(merged, balls)
            assert crossings(seq) == balls * (balls - 1) + 2, (ps, i1)
            assert decompose_plus_two(merged, balls) == (*ps, i1)


def test_decompose_rejects_wrong_crossing_count():
    with pytest.raises(ValueError):
        decompose_plus_two((1, 1), 1)
    with pytest.raises(ValueError):
        decompose_plus_two((1, 2, 2, 1), 2)


def _canonical_patterns(longest):
    """Every canonical pattern of 1..longest throws, one per set partition."""
    for n in range(1, longest + 1):
        for blocks in enumerate_set_partitions(n):
            pattern = [0] * n
            for ball, block in enumerate(blocks, start=1):
                for j in block:
                    pattern[j - 1] = ball
            yield tuple(pattern)


def _reference_plus_two(pattern, b):
    """Plus-two by its definition on the row: it uses ``C_b``, has
    ``b(b-1) + 2`` crossings, and exactly one pair of balls crosses four
    times, counted card by card from the arrangements."""
    try:
        seq = sequence_from_pattern(pattern, b)
    except ValueError:
        return False
    if not uses_top_throw(seq) or crossings(seq) != b * (b - 1) + 2:
        return False
    pairs = collections.Counter()
    for arr, card in zip(arrangement_history(seq), seq.cards):
        for other in arr[1: card.targets[0]]:
            pairs[frozenset((arr[0], other))] += 1
    return list(pairs.values()).count(4) == 1


def test_decompose_accepts_exactly_the_plus_two_patterns():
    accepted = collections.Counter()
    for pattern in _canonical_patterns(8):
        k = max(pattern)
        for b in (k - 1, k, k + 1):
            expected = _reference_plus_two(pattern, b)
            try:
                decompose_plus_two(pattern, b)
            except ValueError:
                assert not expected, (pattern, b)
            else:
                assert expected, (pattern, b)
                accepted[b, len(pattern)] += 1
    assert accepted == {
        (b, n): plus_two_count(b, n)
        for b in range(2, 9) for n in range(b, 9) if plus_two_count(b, n)
    }


def test_compose_rejects_plain_parts_that_are_not_fewest_crossing():
    one = (1,)
    fewest = []
    for part in _canonical_patterns(4):
        if is_minimal(sequence_from_pattern(part, max(part))):
            fewest.append(part)
            continue
        for at in range(4):
            parts = [one] * 4
            parts[at] = part
            with pytest.raises(ValueError, match="not a fewest-crossing pattern"):
                compose_plus_two(*parts, 1)
    for p0 in fewest:
        for cut in (0, len(p0) + 1):
            with pytest.raises(ValueError, match="cut position"):
                compose_plus_two(p0, one, one, one, cut)


def test_plus_two_maps_refuse_malformed_input_with_value_error():
    # ValueError, never IndexError from an empty or mislabelled pattern
    bad_decompose = [((), b) for b in (-1, 0, 1, 2)] + [
        ((2, 1, 2, 1), 2), ((1, 3, 1, 3), 3), ((1, 2, 2, 1), 2)
    ] + [((1, 2, 1, 2), b) for b in (-2, 0, 1, 3, 4)]
    for pattern, b in bad_decompose:
        with pytest.raises(ValueError):
            decompose_plus_two(pattern, b)
    one = (1,)
    for parts in (
        ((), one, one, one), (one, (), one, one), (one, one, one, ()),
        ((2,), one, one, one), (one, one, (1, 3), one), (one, one, one, (2, 1)),
    ):
        with pytest.raises(ValueError):
            compose_plus_two(*parts, 1)


def test_canonical_pattern():
    assert canonical_pattern((3, 1, 3, 2)) == (1, 2, 1, 3)
    assert canonical_pattern(()) == ()
