import itertools
import re

import pytest
from hypothesis import given, strategies as st

from jugglecards.cards import (
    Card,
    CardSequence,
    MultiplexError,
    apply_card,
    arrangement_history,
    backward_step,
    card_crossings,
    card_permutation,
    compose,
    composer,
    crossings,
    cycle_string,
    cycles,
    final_arrangement,
    identity_perm,
    increasing_suffix_length,
    inverse,
    inversions,
    is_identity,
    is_primitive,
    parse_card,
    parse_sequence,
    reduced_pattern,
    sequence_of,
    sequence_permutation,
    single_throw,
    single_throws,
    siteswap_of,
    throw_pattern,
    uses_top_throw,
    verify_siteswap,
)
from jugglecards.cards import _landing_clash, _unthrow

# A four-ball, nine-card sequence used as a running example throughout the
# test suite; every derived quantity below was computed by hand.
RUNNING = parse_sequence("C3 C3 C2 C4 C3 C4 C3 C2 C2", 4)

# An eight-card five-ball sequence with the fewest possible crossings.
NESTED = parse_sequence("C3 C5 C1 C5 C2 C5 C2 C5", 5)


# ---------------------------------------------------------------------------
# permutation helpers


def test_compose_applies_left_first():
    p = (2, 1, 3)
    q = (1, 3, 2)
    assert compose(p, q) == (3, 1, 2)
    assert compose(q, p) == (2, 3, 1)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


@given(st.permutations(tuple(range(1, 7))))
def test_inverse_round_trip(p):
    p = tuple(p)
    assert is_identity(compose(p, inverse(p)))
    assert is_identity(compose(inverse(p), p))
    assert inverse(inverse(p)) == p


def test_cycles_cover_all_points():
    assert cycles((2, 4, 1, 3)) == ((1, 2, 4, 3),)
    assert cycles((1, 2, 3)) == ((1,), (2,), (3,))
    assert cycles((2, 1, 3)) == ((1, 2), (3,))


def test_cycle_string():
    assert cycle_string((2, 4, 1, 3)) == "(1 2 4 3)"
    assert cycle_string((1, 2, 3, 4)) == "()"
    assert cycle_string((2, 1, 4, 3)) == "(1 2)(3 4)"


def test_inversions_small_cases():
    assert inversions((1, 2, 3)) == 0
    assert inversions((3, 2, 1)) == 3
    assert inversions((3, 1, 2, 4)) == 2


@given(st.permutations(tuple(range(1, 7))))
def test_inversions_of_inverse_match(p):
    p = tuple(p)
    assert inversions(p) == inversions(inverse(p))


def test_increasing_suffix_length():
    assert increasing_suffix_length((2, 4, 1, 3)) == 2
    assert increasing_suffix_length((5, 3, 1, 2, 4)) == 3
    assert increasing_suffix_length((1, 2, 3, 4)) == 4
    assert increasing_suffix_length((2, 1)) == 1
    assert increasing_suffix_length((1,)) == 1


# ---------------------------------------------------------------------------
# single cards


def test_single_throw_card_permutation():
    # bottom ball to level 3, levels 2 and 3 drop down, level 4 untouched
    assert card_permutation(single_throw(4, 3)) == (3, 1, 2, 4)
    assert card_permutation(single_throw(4, 1)) == (1, 2, 3, 4)
    assert card_permutation(single_throw(4, 4)) == (4, 1, 2, 3)


def test_multiplex_card_permutation():
    assert card_permutation(Card(5, (2, 5))) == (2, 5, 1, 3, 4)
    assert card_permutation(Card(4, (3, 1))) == (3, 1, 2, 4)
    assert card_permutation(Card(3, (1, 2, 3))) == (1, 2, 3)


def test_card_crossings_single():
    # C_i crosses the i-1 balls it passes on the way up
    for b in range(1, 6):
        for i in range(1, b + 1):
            assert card_crossings(single_throw(b, i)) == i - 1


def test_card_crossings_count_level_map_inversions():
    for b in range(1, 8):
        for m in range(1, b + 1):
            for targets in itertools.permutations(range(1, b + 1), m):
                card = Card(b, targets)
                assert card_crossings(card) == inversions(card_permutation(card))


def test_card_validation():
    with pytest.raises(ValueError):
        Card(3, (4,))
    with pytest.raises(ValueError):
        Card(3, (2, 2))
    with pytest.raises(ValueError):
        Card(3, ())
    with pytest.raises(ValueError):
        Card(0, (1,))


def test_cards_and_rows_over_too_many_balls_are_refused():
    # checked before anything is built over the levels
    Card(10**6, (10**6,))
    with pytest.raises(ValueError, match="at most 1000000 balls, got b=1000001"):
        Card(10**6 + 1, (1,))
    with pytest.raises(ValueError, match="got b=1000000000"):
        parse_sequence("C3 C1", 10**9)


def test_parse_and_print_cards():
    assert parse_card("C3", 4) == single_throw(4, 3)
    assert parse_card("C2,5", 5) == Card(5, (2, 5))
    assert str(Card(5, (2, 5))) == "C2,5"
    assert str(single_throw(4, 3)) == "C3"
    with pytest.raises(ValueError):
        parse_card("D3", 4)
    with pytest.raises(ValueError):
        parse_card("C", 4)


@given(st.data())
def test_card_permutation_is_bijective(data):
    b = data.draw(st.integers(1, 7))
    m = data.draw(st.integers(1, b))
    targets = tuple(data.draw(st.permutations(tuple(range(1, b + 1))))[:m])
    p = card_permutation(Card(b, targets))
    assert sorted(p) == list(range(1, b + 1))


# ---------------------------------------------------------------------------
# sequence simulation


def test_running_example_permutation():
    p = sequence_permutation(RUNNING)
    assert p == (2, 4, 1, 3)
    assert cycle_string(p) == "(1 2 4 3)"


def test_running_example_arrangement():
    assert final_arrangement(RUNNING) == (3, 1, 4, 2)
    # the arrangement is the inverse of the level map
    assert final_arrangement(RUNNING) == inverse(sequence_permutation(RUNNING))


def test_running_example_throw_pattern():
    assert single_throws(throw_pattern(RUNNING)) == (1, 2, 3, 1, 3, 2, 4, 3, 1)


def test_running_example_crossings():
    # throws to levels 3,3,2,4,3,4,3,2,2 cross 2+2+1+3+2+3+2+1+1 tracks
    assert crossings(RUNNING) == 17


def test_running_example_suffix_length():
    assert increasing_suffix_length(sequence_permutation(RUNNING)) == 2


def test_nested_example_simulation():
    assert single_throws(throw_pattern(NESTED)) == (1, 2, 3, 3, 1, 4, 1, 5)
    assert crossings(NESTED) == 20
    assert is_identity(sequence_permutation(NESTED))
    assert uses_top_throw(NESTED)
    history = arrangement_history(NESTED)
    assert history[0] == (1, 2, 3, 4, 5)
    assert history[1:] == (
        (2, 3, 1, 4, 5),
        (3, 1, 4, 5, 2),
        (3, 1, 4, 5, 2),
        (1, 4, 5, 2, 3),
        (4, 1, 5, 2, 3),
        (1, 5, 2, 3, 4),
        (5, 1, 2, 3, 4),
        (1, 2, 3, 4, 5),
    )


def test_multiplex_simulation():
    seq = sequence_of(5, (2, 5), (1, 3))
    history = arrangement_history(seq)
    assert history[1] == (3, 1, 4, 5, 2)
    # the bottom two balls of (3,1,4,5,2) are 3 and 1
    assert throw_pattern(seq)[1] == (3, 1)
    assert sequence_permutation(seq) == compose(
        card_permutation(Card(5, (2, 5))), card_permutation(Card(5, (1, 3)))
    )


def test_sequence_validation():
    with pytest.raises(ValueError):
        CardSequence(4, ())
    with pytest.raises(ValueError):
        CardSequence(4, (single_throw(3, 2),))
    with pytest.raises(ValueError):
        parse_sequence("", 4)


def test_parse_sequence_round_trip():
    assert parse_sequence(str(RUNNING), 4) == RUNNING


@pytest.mark.parametrize(
    "text", ["C2 C2 C2", "C3 C2,4 C3 C2,4 C1", "C02 C2 C4,1 C1,4 C4,1", "  C1\tC4\nC1 "]
)
def test_parse_sequence_reads_repeated_names_card_by_card(text):
    seq = parse_sequence(text, 4)
    assert seq.cards == tuple(parse_card(name, 4) for name in text.split())


@pytest.mark.parametrize(
    "text, fault",
    [
        ("C2 C9 C2 Cx", "target level 9 outside 1..4"),
        ("C2 Cx C2 C9", "cannot parse card 'Cx'"),
        ("C2 C2 C3,3 Cx C3,3", "target level"),
        ("Cx C9 Cx", "cannot parse card 'Cx'"),
        ("C1 C1 C0 C1", "target level 0 outside 1..4"),
        ("C1 C2 C1,2,3,4,1 C9", "card throws 5 balls"),
    ],
)
def test_parse_sequence_names_the_first_bad_card_in_row_order(text, fault):
    with pytest.raises(ValueError) as exc:
        parse_sequence(text, 4)
    assert str(exc.value).startswith(fault)


@st.composite
def sequences(draw, max_b=5, max_n=6, single=False):
    b = draw(st.integers(1, max_b))
    n = draw(st.integers(1, max_n))
    cards = []
    for _ in range(n):
        m = 1 if single else draw(st.integers(1, b))
        targets = tuple(draw(st.permutations(tuple(range(1, b + 1))))[:m])
        cards.append(Card(b, targets))
    return CardSequence(b, tuple(cards))


@given(sequences())
def test_arrangement_matches_permutation_inverse(seq):
    # the level map folded card by card, as the definition reads; the
    # library reads it off the final arrangement instead
    p = identity_perm(seq.b)
    for card in seq.cards:
        p = compose(p, card_permutation(card))
    assert sequence_permutation(seq) == p
    assert final_arrangement(seq) == inverse(p)


@given(st.data())
def test_apply_card_moves_balls_by_the_card_level_map(data):
    b = data.draw(st.integers(1, 12))
    m = data.draw(st.integers(1, b))
    card = Card(b, tuple(data.draw(st.permutations(range(1, b + 1)))[:m]))
    arr = tuple(data.draw(st.permutations(range(1, b + 1))))
    # level j of the result holds the ball that entered at the level mapping to j
    assert apply_card(arr, card) == composer(inverse(card_permutation(card)))(arr)


@given(sequences(max_b=8, max_n=20))
def test_sequence_text_joins_the_card_names(seq):
    assert str(seq) == " ".join(str(c) for c in seq.cards)


def test_a_three_card_row_over_a_hundred_thousand_balls():
    b = 10**5
    h = b // 2
    seq = sequence_of(b, b, (2, b - 1), (h, 1, 3))
    # C_b lifts ball 1 to the top
    after_1 = tuple(range(2, b + 1)) + (1,)
    # C_{2,b-1} sends balls 2 and 3 to levels 2 and b-1; 4.., 1 fill the rest
    after_2 = (4, 2) + tuple(range(5, b + 1)) + (3, 1)
    # C_{h,1,3} sends balls 4, 2, 5 to levels h, 1, 3; 6.., 3, 1 fill the rest
    after_3 = (2, 6, 5) + tuple(range(7, h + 3)) + (4,) + tuple(range(h + 3, b + 1)) + (3, 1)
    assert final_arrangement(seq) == after_3
    assert arrangement_history(seq) == (identity_perm(b), after_1, after_2, after_3)
    level = {ball: lv for lv, ball in enumerate(after_3, start=1)}
    assert sequence_permutation(seq) == tuple(level[x] for x in range(1, b + 1))
    assert backward_step(after_3, (4, 2, 5)) == (after_2, Card(b, (h, 1, 3)))
    assert backward_step(after_2, (2, 3)) == (after_1, Card(b, (2, b - 1)))
    assert backward_step(after_1, (1,)) == (identity_perm(b), Card(b, (b,)))


@given(sequences())
def test_throw_pattern_entries_sit_at_bottom(seq):
    history = arrangement_history(seq)
    for arr, entry, card in zip(history, throw_pattern(seq), seq.cards):
        assert entry == arr[: card.m]


@st.composite
def card_rows(draw):
    """Rows drawn from a small pool of distinct cards: either the pool
    itself, every card once, or a longer row repeating its cards.  Widths
    include one ball and a wide row; each position gets its own
    :class:`Card`, so only targets tell repeats apart."""
    b = draw(st.sampled_from((1, 2, 3, 4, 5, 40)))
    most = 1 if draw(st.booleans()) else min(b, 3)
    targets = st.integers(1, most).flatmap(
        lambda m: st.permutations(range(1, b + 1)).map(lambda p: tuple(p[:m]))
    )
    pool = draw(st.lists(targets, min_size=1, max_size=6, unique=True))
    if draw(st.booleans()):
        row = pool
    else:
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
        row = [pool[i] for i in picks]
    return CardSequence(b, tuple(Card(b, t) for t in row))


@given(card_rows())
def test_cached_card_work_matches_the_per_card_definitions(seq):
    history = tuple(itertools.accumulate(seq.cards, apply_card, initial=identity_perm(seq.b)))
    assert arrangement_history(seq) == history
    assert final_arrangement(seq) == history[-1]
    assert throw_pattern(seq) == tuple(arr[: c.m] for arr, c in zip(history, seq.cards))
    assert crossings(seq) == sum(card_crossings(c) for c in seq.cards)
    assert str(seq) == " ".join(str(c) for c in seq.cards)
    multiplex = [c for c in seq.cards if not c.is_single_throw]
    if multiplex:
        with pytest.raises(MultiplexError, match=f"multiplex card {multiplex[0]}$"):
            siteswap_of(seq)
        return
    n = seq.n
    heights = []
    for i in range(n):
        level, t = 1, 0
        while True:
            level = card_permutation(seq.cards[(i + t) % n])[level - 1]
            t += 1
            if level == 1:
                break
        heights.append(t)
    assert siteswap_of(seq) == tuple(heights)


# ---------------------------------------------------------------------------
# siteswaps


def test_running_example_siteswap():
    heights = siteswap_of(RUNNING)
    assert heights == (3, 4, 2, 5, 3, 10, 5, 2, 2)
    ok, balls = verify_siteswap(heights)
    assert ok and balls == 4


def test_constant_siteswap():
    assert siteswap_of(sequence_of(3, 3, 3, 3)) == (3, 3, 3)


def test_siteswap_rejects_multiplex():
    with pytest.raises(MultiplexError):
        siteswap_of(sequence_of(5, (2, 5), 1))


def test_single_throws_rejects_a_multiplex_entry():
    with pytest.raises(MultiplexError, match=r"^throw \(2, 3\) is not a single throw$"):
        single_throws(((1,), (2, 3), (1,)))


def test_apply_card_rejects_an_arrangement_of_another_size():
    with pytest.raises(ValueError, match="^arrangement size does not match card$"):
        apply_card((1, 2), Card(3, (2,)))


def test_verify_siteswap_classics():
    assert verify_siteswap((5, 3, 1)) == (True, 3)
    assert verify_siteswap((4, 4, 1)) == (True, 3)
    assert verify_siteswap((4, 3, 2)) == (False, None)
    assert verify_siteswap((2,)) == (True, 2)


def test_verify_siteswap_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_siteswap(())
    with pytest.raises(ValueError):
        verify_siteswap((3, 0, 3))
    with pytest.raises(ValueError):
        verify_siteswap((3, -1, 4))


@given(st.lists(st.integers(1, 12), min_size=1, max_size=12).map(tuple))
def test_the_first_landing_clash_decides_a_siteswap(heights):
    # valid exactly when the landings i + t_i are distinct mod n, and the
    # clash named is the first throw landing where an earlier one did
    n = len(heights)
    landings = [(i + t) % n for i, t in enumerate(heights)]
    clash = _landing_clash(heights)
    assert verify_siteswap(heights)[0] == (clash is None) == (len(set(landings)) == n)
    if clash is not None:
        i, j = clash
        assert i < j and landings[i] == landings[j]
        assert len(set(landings[:j])) == j


@given(sequences(single=True))
def test_siteswap_of_sequence_always_verifies(seq):
    heights = siteswap_of(seq)
    ok, balls = verify_siteswap(heights)
    assert ok
    # Kac's lemma: the heights are first-return times of the bottom level
    # in the cyclic card dynamics, so they sum to the number of states on
    # orbits that visit the bottom, and the ball count is that divided by n
    perms = [card_permutation(c) for c in seq.cards]
    n = seq.n
    seen = set()
    stack = [(i, 1) for i in range(n)]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        i, level = state
        stack.append(((i + 1) % n, perms[i][level - 1]))
    assert sum(heights) == len(seen)
    assert balls == len(seen) // n


# ---------------------------------------------------------------------------
# patterns and primitivity


def test_reduced_pattern():
    assert reduced_pattern((1, 1, 1, 2, 2, 2, 1, 3, 3, 3, 3, 2, 2, 4)) == (
        1, 2, 1, 3, 2, 4,
    )
    assert reduced_pattern((1,)) == (1,)
    assert reduced_pattern(()) == ()


def test_is_primitive():
    assert not is_primitive(NESTED)  # contains C_1
    assert is_primitive(RUNNING)
    assert is_primitive(sequence_of(5, (1, 3)))  # multiplex card is not C_1


def test_primitive_matches_pattern_shape():
    # a sequence fixing the sorted stack is primitive exactly when its
    # throw pattern has no equal adjacent throws and does not end in ball 1
    import itertools

    for n in range(1, 6):
        for heights in itertools.product(range(1, 4), repeat=n):
            seq = sequence_of(3, *heights)
            if not is_identity(sequence_permutation(seq)):
                continue
            w = single_throws(throw_pattern(seq))
            expected = w == reduced_pattern(w) and w[-1] != 1
            assert is_primitive(seq) == expected


# ---------------------------------------------------------------------------
# backward reconstruction


def test_backward_step_known_card():
    # C_3 over four balls sends the sorted stack to (2,3,1,4)
    left, card = backward_step((2, 3, 1, 4), (1,))
    assert left == (1, 2, 3, 4)
    assert card == single_throw(4, 3)


def test_backward_step_multiplex():
    right = apply_card((1, 2, 3, 4, 5), Card(5, (2, 5)))
    left, card = backward_step(right, (1, 2))
    assert left == (1, 2, 3, 4, 5)
    assert card == Card(5, (2, 5))


def test_backward_step_rejects_unknown_ball():
    with pytest.raises(ValueError):
        backward_step((1, 2, 3), (7,))
    with pytest.raises(ValueError):
        backward_step((1, 2, 3), (2, 2))


def test_backward_step_rejects_a_right_side_that_is_no_permutation():
    for right in ((2, 2, 1), (1, 2, 4)):
        text = f"right side {right} is not a permutation of 1..3"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            backward_step(right, (2,))
    # a list still reads as a right side
    assert backward_step([2, 3, 1, 4], [1]) == ((1, 2, 3, 4), single_throw(4, 3))


@given(st.data())
def test_unthrowing_one_ball_matches_the_general_removal(data):
    b = data.draw(st.integers(1, 8))
    right = tuple(data.draw(st.permutations(range(1, b + 1))))
    ball = data.draw(st.sampled_from(right))
    # the general path: find the ball, delete it from a list copy, put it first
    rest = list(right)
    del rest[right.index(ball)]
    assert _unthrow(right, (ball,)) == ((ball,) + tuple(rest), (right.index(ball) + 1,))
    missing = b + 1
    for thrown in ((missing,), (ball, missing)):
        text = f"ball {missing} does not appear on the right side"
        with pytest.raises(ValueError, match=f"^{text}$"):
            _unthrow(right, thrown)


@given(sequences())
def test_backward_step_inverts_every_card(seq):
    history = arrangement_history(seq)
    pattern = throw_pattern(seq)
    for i, card in enumerate(seq.cards):
        left, recovered = backward_step(history[i + 1], pattern[i])
        assert left == history[i]
        assert recovered == card


@given(st.data())
def test_backward_step_order_preserving_round_trip(data):
    b = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, b))
    targets = tuple(sorted(data.draw(st.permutations(tuple(range(1, b + 1))))[:m]))
    card = Card(b, targets)
    left = tuple(data.draw(st.permutations(tuple(range(1, b + 1)))))
    right = apply_card(left, card)
    thrown = set(left[:m])
    left2, card2 = backward_step(right, tuple(ball for ball in right if ball in thrown))
    assert left2 == left
    assert card2 == card
