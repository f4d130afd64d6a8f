import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from jugglecards import enumeration, rng, stochastic
from jugglecards.cards import (
    CardSequence,
    card_permutation,
    compose,
    composer,
    cycle_count,
    identity_perm,
    increasing_suffix_length,
    inverse,
)
from jugglecards.enumeration import count_by_permutation, cycle_census, throw_cards
from jugglecards.rng import RandomStream, mix
from jugglecards.stochastic import (
    GroupDistribution,
    card_distribution,
    cycle_count_distribution,
    cycle_type_limit,
    estimate_single_cycle_probability,
    exact_step_distribution,
    point_distribution,
    sample_sequence,
    single_cycle_mass,
    step_distribution,
    total_variation,
    uniform_distribution,
)


# ---------------------------------------------------------------------------
# the random stream


def test_mix_known_words():
    assert mix(0) == 0
    assert mix(1) == 0x5692161D100B05E5


def test_stream_reproduces_reference_words():
    # seed 0 must emit the classic SplitMix64 sequence
    s = RandomStream(0)
    assert [s.next_word() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_stream_determinism_and_split_independence():
    a = RandomStream(7)
    b = RandomStream(7)
    assert [a.next_word() for _ in range(5)] == [b.next_word() for _ in range(5)]
    child0 = RandomStream(7).split(0)
    child1 = RandomStream(7).split(1)
    assert child0.next_word() == 0xB382824D9BF81FB8
    assert child1.next_word() == 0x6CA49A049B8389E1


def test_randrange_bounds_and_frozen_draws():
    r = RandomStream(42)
    assert [r.randrange(10) for _ in range(8)] == [3, 1, 8, 4, 0, 2, 5, 8]
    assert [r.randrange(3) for _ in range(8)] == [1, 2, 2, 1, 2, 1, 2, 2]
    assert RandomStream(5).randrange(1) == 0
    with pytest.raises(ValueError):
        RandomStream(5).randrange(0)
    with pytest.raises(ValueError):
        RandomStream(5).split(-1)


def _one_by_one(stream, bound, k):
    return [stream.randrange(bound) for _ in range(k)]


@pytest.mark.parametrize("bound", [1, 2, 3, 10, 7 * 2**40 + 1, 2**63 + 1, 2**64 - 1, 2**64])
def test_batched_draws_are_the_one_by_one_draws(bound):
    for seed in (0, 9, 2**64 - 1):
        for k in (0, 1, 6, 300):
            one, many = RandomStream(seed), RandomStream(seed)
            assert many.randrange_many(bound, k) == _one_by_one(one, bound, k)
            assert many.next_word() == one.next_word()
            root = RandomStream(seed)
            assert root.split_randrange_many(range(2, 7), bound, k) == [
                x for j in range(2, 7) for x in _one_by_one(root.split(j), bound, k)
            ]


def test_batched_draws_at_bound_two_to_the_63_plus_one_reject_about_half():
    bound = 2**63 + 1
    one, many = RandomStream(3), RandomStream(3)
    assert many.randrange_many(bound, 400) == _one_by_one(one, bound, 400)
    words, accepted = RandomStream(3), 0
    for used in itertools.count(1):
        accepted += words.next_word() < bound
        if accepted == 400:
            break
    assert 650 < used < 950  # about half the words are rejected
    assert many.next_word() == one.next_word() == words.next_word()
    root = RandomStream(3)
    assert root.split_randrange_many(range(40), bound, 10) == [
        x for j in range(40) for x in _one_by_one(root.split(j), bound, 10)
    ]


def test_long_batched_draws_run_in_several_kernel_calls():
    one, many = RandomStream(8), RandomStream(8)
    assert many.randrange_many(6, 3 * rng._BATCH + 5) == _one_by_one(one, 6, 3 * rng._BATCH + 5)
    assert many.next_word() == one.next_word()


def test_batched_draws_reject_bad_arguments():
    with pytest.raises(ValueError):
        RandomStream(5).randrange_many(0, 3)
    with pytest.raises(ValueError):
        RandomStream(5).split_randrange_many(range(3), 0, 3)
    with pytest.raises(ValueError):
        RandomStream(5).split_randrange_many(range(-1, 2), 4, 3)


def test_bounds_above_two_to_the_64_are_rejected():
    # no word lies below the rejection limit of such a bound, so a draw
    # would never return; the calls with no draws come first so that a
    # missing check fails here instead of hanging
    too_big = (1 << 64) + 1
    with pytest.raises(ValueError, match="2\\*\\*64"):
        RandomStream(5).randrange_many(too_big, 0)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        RandomStream(5).split_randrange_many(range(0), too_big, 3)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        RandomStream(5).randrange(too_big)
    assert RandomStream(5).randrange(1 << 64) == RandomStream(5).next_word()


# every kind of bound the lane kernel treats apart: 1, powers of two up to
# 2**64, small odd and even bounds, and large ones that reject many words
KERNEL_BOUNDS = [
    1, 2, 3, 4, 5, 12, 255, 256, 257, 2**32 + 1, 7 * 2**40 + 1,
    2**63, 2**63 + 1, 2**64 - 1, 2**64,
]


@pytest.mark.parametrize("bound", KERNEL_BOUNDS)
def test_lane_residues_are_the_remainders(bound):
    limit = rng._limit(bound)
    edges = [0, bound - 1, bound, limit - 1, 2**64 - 1]
    source = random.Random(bound)
    words = [w for w in edges if w < 2**64] + [source.getrandbits(64) for _ in range(300)]
    assert rng._residues(rng._pack(words), len(words), bound) == [w % bound for w in words]
    assert rng._residues(rng._pack([]), 0, bound) == []


@pytest.mark.parametrize("bound", KERNEL_BOUNDS)
def test_a_word_at_the_limit_is_rejected(bound):
    limit = rng._limit(bound)

    def rejects(*words):
        return rng._rejects(rng._pack(words), len(words), bound)

    assert not rejects(0, limit - 1, limit - 1, 0)
    assert not rejects(*[limit - 1] * 7)
    if limit == 2**64:  # a power of two takes every word
        assert not rejects(2**64 - 1, 2**64 - 1)
    else:
        for at in range(3):  # first, middle and last lane
            block = [limit - 1] * 3
            block[at] = limit
            assert rejects(*block)
        assert rejects(2**64 - 1)


@pytest.mark.parametrize("bound", KERNEL_BOUNDS)
def test_split_draws_over_progressions_are_the_per_child_draws(bound):
    root = RandomStream(2**64 - 7)
    for children in (range(3, 40), range(3, 40, 7)):
        for k in (1, 4):
            assert root.split_randrange_many(children, bound, k) == [
                x for j in children for x in _one_by_one(root.split(j), bound, k)
            ]


def test_child_keys_in_lanes_are_the_split_keys():
    # at bound 2**64 a draw is the word itself: each child's first word
    root = RandomStream(11)
    for children in (
        range(0), range(5), range(3, 40, 7), range(40, 3, -5),
        range(2**64 - 3, 2**64 + 3), range(2**64 + 2, 2**64 - 4, -1),
        range(2**70, 2**70 + 9, 4),
    ):
        assert root.split_randrange_many(children, 2**64, 1) == [
            root.split(j).next_word() for j in children
        ]


@pytest.mark.parametrize("bound", KERNEL_BOUNDS)
def test_draws_across_a_batch_boundary_are_the_one_by_one_draws(bound):
    for k in (rng._BATCH, rng._BATCH + 1):
        one, many = RandomStream(21), RandomStream(21)
        assert many.randrange_many(bound, k) == _one_by_one(one, bound, k)
        assert many.next_word() == one.next_word()


def test_lane_constants_are_the_value_in_every_lane():
    for batch in (rng._BATCH, 5):
        with mock.patch.object(rng, "_BATCH", batch):
            rng._lanes.cache_clear()
            for value in (0, 1, 2**64 - 1, 2**64, 2**128 - 1):
                for lanes in (0, 1, 3, 5, 6, 4095, 4096, 4097):
                    assert rng._lanes(value, lanes) == int.from_bytes(
                        value.to_bytes(16, "little") * lanes, "little")
    rng._lanes.cache_clear()


def test_stream_lanes_share_counters_across_block_sizes():
    keys = (5, 2**64 - 1, 0x9E3779B97F4A7C15)
    for batch in (rng._BATCH, 5):
        with mock.patch.object(rng, "_BATCH", batch):
            rng._counter_lanes.cache_clear()
            for streams, done, k in ((1, 0, 3), (1, 0, 9), (1, 4096, 2), (3, 0, 2), (2, 0, 4),
                                     (3, 7, 1), (1, 0, 0), (3, 0, 0)):
                lanes = rng._stream_lanes(keys[:streams], done, k)
                assert rng._unpack(lanes, streams * k) == [
                    mix(key + i * 0x9E3779B97F4A7C15) for key in keys[:streams]
                    for i in range(done + 1, done + k + 1)]
                assert lanes < 1 << 128 * streams * k
    rng._counter_lanes.cache_clear()


def test_byte_draws_are_the_split_draws():
    root = RandomStream(2**64 - 11)
    for batch in (rng._BATCH, 5):
        with mock.patch.object(rng, "_BATCH", batch):
            rng._lanes.cache_clear()
            for bound in range(1, 257):
                for children, k in ((range(3, 12, 2), 7), (range(40), 1), (range(0), 3)):
                    assert root._split_randrange_bytes(children, bound, k) == bytes(
                        root.split_randrange_many(children, bound, k))
    rng._lanes.cache_clear()
    with pytest.raises(ValueError, match="at most 256"):
        root._split_randrange_bytes(range(2), 257, 3)


def test_byte_draws_of_a_rejecting_block_are_drawn_word_by_word():
    root = RandomStream(17)
    with mock.patch.object(rng, "_rejects", return_value=True), \
            mock.patch.object(rng, "_residue_lanes", side_effect=AssertionError):
        drawn = root._split_randrange_bytes(range(5, 9), 6, 9)
    assert drawn == bytes(x for j in range(5, 9) for x in _one_by_one(root.split(j), 6, 9))


def test_randrange_is_roughly_uniform():
    r = RandomStream(99)
    counts = [0] * 5
    for _ in range(5000):
        counts[r.randrange(5)] += 1
    assert min(counts) > 800 and max(counts) < 1200


# ---------------------------------------------------------------------------
# distribution types


def test_group_distribution_validation():
    GroupDistribution({(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2)})
    with pytest.raises(ValueError):
        GroupDistribution({})
    with pytest.raises(ValueError, match="not a permutation"):
        GroupDistribution({(2, 2): Fraction(1, 2), (1, 2): Fraction(1, 2)})
    with pytest.raises(ValueError):
        GroupDistribution({(1, 2): Fraction(1, 2), (2, 1, 3): Fraction(1, 2)})
    with pytest.raises(ValueError):
        GroupDistribution({(1, 2): Fraction(3, 4)})
    with pytest.raises(ValueError):
        GroupDistribution({(1, 2): Fraction(5, 4), (2, 1): Fraction(-1, 4)})
    with pytest.raises(ValueError, match="exact rationals"):
        GroupDistribution({(1, 2): 0.5, (2, 1): 0.5})
    # integer and mixed-denominator masses are summed exactly
    GroupDistribution({(1, 2): Fraction(1, 3), (2, 1): Fraction(2, 3)})
    GroupDistribution({(2, 1, 3): 1})


def test_group_distribution_checks_each_key_and_each_shared_mass():
    with pytest.raises(ValueError, match=r"\(1, 1, 3\) is not a permutation of 1\.\.3"):
        GroupDistribution({(1, 2, 3): Fraction(1, 2), (1, 1, 3): Fraction(1, 2)})
    with pytest.raises(ValueError, match=r"\(1, 2, 4\) is not a permutation"):
        GroupDistribution({(1, 2, 4): Fraction(1)})
    perms = list(itertools.permutations(range(1, 4)))
    # one mass object shared by many keys counts once per key
    assert GroupDistribution(dict.fromkeys(perms, Fraction(1, 6))).prob[(3, 2, 1)] == Fraction(1, 6)
    with pytest.raises(ValueError, match="sum to exactly 1"):
        GroupDistribution(dict.fromkeys(perms[:5], Fraction(1, 6)))
    with pytest.raises(ValueError, match="sum to exactly 1"):
        GroupDistribution(dict.fromkeys(perms, Fraction(1, 3)))


def test_group_distribution_sums_a_mixed_law_once_per_key():
    perms = list(itertools.permutations(range(1, 4)))
    sixth = Fraction(1, 6)
    # one shared object on four keys, and two distinct equal objects
    law = {**dict.fromkeys(perms[:4], sixth), perms[4]: Fraction(1, 6), perms[5]: Fraction(1, 6)}
    # counted once per object, the masses would sum to 1/2
    assert GroupDistribution(law).prob == dict.fromkeys(perms, sixth)
    del law[perms[0]]
    with pytest.raises(ValueError, match="sum to exactly 1"):
        GroupDistribution(law)
    # the error names the first key holding a negative mass, shared or not
    minus = Fraction(-1, 6)
    law = {perms[0]: Fraction(1, 2), perms[1]: Fraction(1, 2), perms[2]: minus,
           perms[3]: Fraction(1, 6), perms[4]: minus, perms[5]: Fraction(-1, 6)}
    with pytest.raises(ValueError, match=r"^negative probability -1/6 at \(2, 1, 3\)$"):
        GroupDistribution(law)
    half, minus = Fraction(1, 2), Fraction(-1, 4)
    law = {perms[0]: half, perms[1]: minus, perms[2]: half, perms[3]: minus, perms[4]: half}
    with pytest.raises(ValueError, match=r"negative probability -1/4 at \(1, 3, 2\)"):
        GroupDistribution(law)
    with pytest.raises(ValueError, match="exact rationals, got 0.25"):
        GroupDistribution({perms[0]: half, perms[1]: Fraction(1, 4), perms[2]: 0.25})


def test_card_distribution_weights():
    gd = card_distribution(2, weights=(3, 1))
    assert gd.prob == {(1, 2): Fraction(3, 4), (2, 1): Fraction(1, 4)}
    with pytest.raises(ValueError):
        card_distribution(2, weights=(1,))
    with pytest.raises(ValueError):
        card_distribution(2, weights=(1, 0))


# ---------------------------------------------------------------------------
# exact walks


# a step law may carry a zero mass: on the second, only the zero-mass
# generator (2, 3, 1) leads out of (1, 2, 3) and (2, 1, 3)
_ZERO_MASS_LAWS = (
    GroupDistribution({(1, 2): Fraction(1), (2, 1): Fraction(0)}),
    GroupDistribution({(1, 2, 3): Fraction(1, 2), (2, 1, 3): Fraction(1, 2), (2, 3, 1): 0}),
)


def test_the_exact_walk_walks_a_step_with_zero_mass():
    step, reached_by_zero = _ZERO_MASS_LAWS
    assert step_distribution(point_distribution(2), step).prob == {(1, 2): 1, (2, 1): 0}
    for law in _ZERO_MASS_LAWS:
        for n in range(4):
            assert exact_step_distribution(law, n) == _stepped(law, n), (law, n)
    assert exact_step_distribution(reached_by_zero, 1).prob == {
        (1, 2, 3): Fraction(1, 2), (2, 1, 3): Fraction(1, 2), (2, 3, 1): 0,
    }


def test_zero_steps_is_point_mass():
    gd = card_distribution(3)
    assert exact_step_distribution(gd, 0) == point_distribution(3)


def test_single_cycle_mass_is_one_over_b_single_throw():
    for b in range(2, 6):
        gd = card_distribution(b)
        for n in range(1, 11):
            d = exact_step_distribution(gd, n)
            assert single_cycle_mass(d) == Fraction(1, b), (b, n)


def test_biased_draws_break_the_one_over_b_law():
    # the law is about uniform draws; checking that a bias perturbs it
    # guards against the previous test passing vacuously
    gd = card_distribution(3, weights=(2, 1, 1))
    masses = {
        single_cycle_mass(exact_step_distribution(gd, n)) for n in range(2, 6)
    }
    assert masses != {Fraction(1, 3)}


def test_single_cycle_mass_is_one_over_b_multiplex():
    for b in range(2, 5):
        gd = card_distribution(b, m=2)
        for n in range(1, 5):
            assert single_cycle_mass(exact_step_distribution(gd, n)) == Fraction(1, b)


@pytest.mark.parametrize("b", range(1, 7))
def test_lumped_walk_is_the_transfer_walk(b):
    """Uniform ordered families take the walk by increasing-suffix class
    for n >= 1; the permutation-state walk is its oracle."""
    for m in range(1, b + 1):
        gd = card_distribution(b, m)
        for n in (0, 1, 2, 3, 5, 8):
            if b == 6 and n > 5:
                continue
            expected = stochastic._transfer_walk(gd, n)
            if n == 0:
                assert exact_step_distribution(gd, n) == expected
                continue
            with mock.patch.object(stochastic, "_transfer_walk", side_effect=AssertionError):
                assert exact_step_distribution(gd, n) == expected, (m, n)


def test_uniform_walk_is_the_counts_over_all_rows():
    # the walk and count_by_permutation read one suffix-class table
    for b in range(1, 6):
        for m in range(1, min(b, 2) + 1):
            gd = card_distribution(b, m)
            for n in range(1, 6):
                rows = math.perm(b, m) ** n
                counts = count_by_permutation(b, n, m)
                expected = {g: Fraction(ways, rows) for g, ways in counts.items()}
                assert exact_step_distribution(gd, n).prob == expected, (b, m, n)


def _stepped(gd, n):
    """``n`` single steps from the identity, on Fraction weights."""
    d = point_distribution(gd.degree)
    for _ in range(n):
        d = step_distribution(d, gd)
    return d


def test_families_that_do_not_lump_take_the_transfer_walk():
    families = [
        card_distribution(3, weights=[1, 2, 3]),
        card_distribution(4, weights=[5, 1, 1, 1]),  # only C1, the identity, reweighted
        card_distribution(4, m=2, ordered=False),
        card_distribution(3, m=2, ordered=False),  # as many cards as single throws
    ]
    for gd in families:
        for n in (1, 2, 5):
            with mock.patch.object(stochastic, "_lumped_table", side_effect=AssertionError):
                assert exact_step_distribution(gd, n) == _stepped(gd, n), (gd, n)


def _tallied(law, n):
    """The ``n``-step law as a sum over every row of ``n`` draws: each
    row's mass product at its left-to-right composition, composed here
    with no code of the package."""
    then = lambda p, q: tuple(q[x - 1] for x in p)  # p first, then q
    tally = {}
    for row in itertools.product(law.prob.items(), repeat=n):
        at, mass = tuple(range(1, law.degree + 1)), Fraction(1)
        for g, p in row:
            at, mass = then(at, g), mass * p
        tally[at] = tally.get(at, 0) + mass
    return tally


def test_both_walks_are_the_sum_over_every_row():
    laws = [
        card_distribution(3, weights=[1, 2, 3]),
        card_distribution(4, weights=[5, 1, 1, 1]),
        card_distribution(3, m=2, ordered=False),
        card_distribution(4, m=2, ordered=False),
        *_ZERO_MASS_LAWS,
        GroupDistribution(dict(reversed(card_distribution(3).prob.items()))),
        GroupDistribution(dict(reversed(card_distribution(4, m=2).prob.items()))),
    ]
    for law in laws:
        for n in range(4):
            tally = _tallied(law, n)
            assert exact_step_distribution(law, n).prob == tally, (law, n)
            assert _stepped(law, n).prob == tally, (law, n)


def test_the_law_on_no_points_walks_to_itself():
    nothing = GroupDistribution({(): Fraction(1)})
    assert nothing == point_distribution(0) == uniform_distribution(0)
    assert composer(())(()) == () and composer((1,))((7,)) == (7,)
    for n in range(4):
        assert exact_step_distribution(nothing, n) == _stepped(nothing, n) == nothing, n


def test_a_layer_holds_exactly_the_states_reached_in_exactly_its_steps():
    # ids are handed out to every state found within d steps, so a layer
    # that kept an earlier layer's states would show on these supports
    transpositions = [p for p in itertools.permutations(range(1, 5))
                      if sum(x != i for i, x in enumerate(p, 1)) == 2]
    laws = [
        GroupDistribution({(2, 1, 3): Fraction(1)}),  # identity, then it, in turn
        GroupDistribution({g: Fraction(w, 21) for w, g in enumerate(transpositions, 1)}),
        *_ZERO_MASS_LAWS,
    ]
    with mock.patch.object(stochastic, "_lumped_table", side_effect=AssertionError):
        for law in laws:
            for n in range(11):
                # equal laws have equal key sets, zero-mass keys included
                walked = exact_step_distribution(law, n)
                assert walked == _stepped(law, n), (law, n)
                if n <= 5:
                    assert walked.prob == _tallied(law, n), (law, n)
    alternating = [exact_step_distribution(laws[0], n).prob for n in range(4)]
    assert alternating == [{(1, 2, 3): 1}, {(2, 1, 3): 1}] * 2


def test_long_walks_after_every_id_is_handed_out_are_the_stepped_walks():
    for law, n in (
        (card_distribution(4, weights=[3, 1, 4, 1]), 25),
        (card_distribution(3, m=2, ordered=False), 30),
    ):
        assert exact_step_distribution(law, n) == _stepped(law, n), (law, n)


def test_reordered_uniform_generators_still_lump():
    gd = card_distribution(4, m=2)
    shuffled = GroupDistribution(dict(reversed(gd.prob.items())))
    for n in (1, 3):
        with mock.patch.object(stochastic, "_transfer_walk", side_effect=AssertionError):
            assert exact_step_distribution(shuffled, n) == _stepped(gd, n)


def _uniform_laws(b, sizes):
    perms = list(itertools.permutations(range(1, b + 1)))
    for size in sizes:
        for support in itertools.combinations(perms, size):
            yield GroupDistribution(dict.fromkeys(support, Fraction(1, size)))


def test_the_lumped_family_is_read_from_the_law_alone():
    # a uniform law lumps exactly when its support is the level maps of
    # one ordered card family; (b-1)- and b-throw cards give the same maps
    for b, sizes in ((1, (1,)), (2, (1, 2)), (3, range(1, 7)), (4, (4,))):
        families = {
            m: {card_permutation(c) for c in throw_cards(b, m)} for m in range(1, b + 1)
        }
        for law in _uniform_laws(b, sizes):
            m = stochastic._lumped_throws(law)
            same = {k for k, maps in families.items() if set(law.prob) == maps}
            assert (m is None) == (not same) and (m is None or m in same), law


def test_huge_exact_walks_are_refused_before_they_start():
    untouched = dict(side_effect=AssertionError)
    with mock.patch.object(enumeration, "_suffix_classes", **untouched), \
            mock.patch.object(enumeration, "increasing_suffix_length", **untouched), \
            mock.patch.object(stochastic, "composer", **untouched):
        with pytest.raises(ValueError, match="more than 1000000 permutations"):
            exact_step_distribution(card_distribution(30), 5)
        with pytest.raises(ValueError, match="more than 1000000 permutations"):
            exact_step_distribution(card_distribution(30, weights=range(1, 31)), 5)
        with pytest.raises(ValueError, match="more than 1000000 permutations"):
            exact_step_distribution(card_distribution(30, weights=range(1, 31)), 10**9)
    # one step of thirty cards reaches thirty permutations
    assert len(exact_step_distribution(card_distribution(30), 1).prob) == 30


def test_the_state_guard_is_the_support_bound():
    # three uniform single throws on 4 balls reach 4!/1! = 24 permutations
    with mock.patch.object(enumeration, "_MAX_SUPPORT", 24):
        assert len(exact_step_distribution(card_distribution(4), 3).prob) == 24
    with mock.patch.object(enumeration, "_MAX_SUPPORT", 23), pytest.raises(ValueError):
        exact_step_distribution(card_distribution(4), 3)
    # weights do not widen the support: two single throws reach 4!/2! = 12
    weighted = card_distribution(4, weights=[1, 2, 3, 4])
    with mock.patch.object(enumeration, "_MAX_SUPPORT", 12):
        assert len(exact_step_distribution(weighted, 2).prob) == 12
    with mock.patch.object(enumeration, "_MAX_SUPPORT", 11), pytest.raises(ValueError):
        exact_step_distribution(weighted, 2)
    # two generators reach at most 2 ** n permutations
    pair = GroupDistribution({(2, 1, 3, 4, 5): Fraction(1, 3), (2, 3, 4, 5, 1): Fraction(2, 3)})
    with mock.patch.object(enumeration, "_MAX_SUPPORT", 8):
        assert len(exact_step_distribution(pair, 3).prob) <= 8
    with mock.patch.object(enumeration, "_MAX_SUPPORT", 7), pytest.raises(ValueError):
        exact_step_distribution(pair, 3)


def test_the_uniform_law_refuses_more_than_a_million_permutations():
    # 4! = 24 permutations
    with mock.patch.object(enumeration, "_MAX_SUPPORT", 24):
        assert len(uniform_distribution(4).prob) == 24
    with mock.patch.object(enumeration, "_MAX_SUPPORT", 23), pytest.raises(ValueError):
        uniform_distribution(4)
    assert uniform_distribution(0).prob == {(): 1}
    assert len(uniform_distribution(9).prob) == math.factorial(9)
    # 10! = 3,628,800 is refused before any is listed, and a million points
    # before their factorial, which takes seconds
    with mock.patch.object(itertools, "permutations", side_effect=AssertionError):
        for b in (10, 11, 12, 13, 10**6):
            with pytest.raises(ValueError) as refusal:
                uniform_distribution(b)
            assert str(refusal.value) == (
                f"a table of the permutations of {b} points reached in {b - 1} "
                "steps would hold more than 1000000 permutations"
            )


def test_any_generators_stay_inside_the_card_support_bound():
    # a generator with increasing suffix k acts as a card of b - k throws;
    # under any positive weights the walk is the one-step oracle
    stream = RandomStream(77)
    for trial in range(60):
        b = 3 + trial % 3
        perms = list(itertools.permutations(range(1, b + 1)))
        gens = tuple({perms[stream.randrange(len(perms))] for _ in range(1 + stream.randrange(4))})
        raw = [1 + stream.randrange(9) for _ in gens]
        gd = GroupDistribution({g: Fraction(w, sum(raw)) for g, w in zip(gens, raw)})
        throws = b - min(map(increasing_suffix_length, gens))
        for n in range(5):
            walked = exact_step_distribution(gd, n)
            assert len(walked.prob) <= stochastic._support_bound(b, n, throws), (gens, n)
            assert walked == _stepped(gd, n), (gd, n)


def test_a_step_is_the_current_permutation_then_the_step():
    # walks of one law from the identity read the same either way round,
    # so the order shows only from another start
    h, g = (2, 1, 3), (1, 3, 2)
    at_h, to_g = GroupDistribution({h: Fraction(1)}), GroupDistribution({g: Fraction(1)})
    stepped = step_distribution(at_h, to_g)
    assert stepped.prob == {compose(h, g): 1} == {(3, 1, 2): 1}


def test_walk_steps_refuse_bad_arguments():
    with pytest.raises(ValueError, match="^distribution on 3 points, step on 4$"):
        step_distribution(point_distribution(3), card_distribution(4))
    with pytest.raises(ValueError, match="^step count must be nonnegative, got -1$"):
        exact_step_distribution(card_distribution(3), -1)


def test_exact_walk_matches_cycle_census():
    for b in (2, 3):
        for n in (1, 2, 4):
            d = exact_step_distribution(card_distribution(b), n)
            marginal = cycle_count_distribution(d)
            tally = cycle_census(b, n)
            total = b**n
            assert marginal == {
                l: Fraction(c, total) for l, c in tally.items()
            }, (b, n)


def test_uniform_is_exact_fixed_point_for_random_generators():
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
        assert step_distribution(u, gd) == u, (trial, gens, raw)


def test_walk_converges_to_uniform_on_s4():
    gd = card_distribution(4)
    u = uniform_distribution(4)
    d = point_distribution(4)
    last = total_variation(d, u)
    for _ in range(12):
        d = step_distribution(d, gd)
        now = total_variation(d, u)
        assert now <= last
        last = now
    assert total_variation(exact_step_distribution(gd, 60), u) < Fraction(1, 10**6)


def test_cycle_type_limit_values():
    assert cycle_type_limit(2) == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    assert cycle_type_limit(4) == {
        1: Fraction(6, 24),
        2: Fraction(11, 24),
        3: Fraction(6, 24),
        4: Fraction(1, 24),
    }
    for b in range(1, 9):
        assert sum(cycle_type_limit(b).values()) == 1


def test_cycle_marginal_converges_to_limit_law():
    gd = card_distribution(4)
    marginal = cycle_count_distribution(exact_step_distribution(gd, 40))
    assert total_variation(marginal, cycle_type_limit(4)) < Fraction(1, 10**6)


def test_total_variation_basics():
    u = uniform_distribution(3)
    assert total_variation(u, u) == 0
    assert total_variation(point_distribution(3), u) == Fraction(5, 6)
    with pytest.raises(ValueError):
        total_variation(point_distribution(3), point_distribution(4))


# ---------------------------------------------------------------------------
# sampling


def test_one_ball_always_draws_the_same_card():
    assert str(sample_sequence(1, 6)) == "C1 C1 C1 C1 C1 C1"


def test_sampling_is_reproducible():
    assert sample_sequence(4, 10, seed=7) == sample_sequence(4, 10, seed=7)
    assert str(sample_sequence(4, 10, seed=7)) == "C4 C1 C3 C4 C3 C2 C3 C3 C2 C2"
    assert sample_sequence(4, 10, seed=8) != sample_sequence(4, 10, seed=7)


def test_sampled_frequencies_match_weights():
    n = 100_000
    seq = sample_sequence(4, n, seed=3)
    counts = {}
    for card in seq.cards:
        counts[card.targets[0]] = counts.get(card.targets[0], 0) + 1
    # three-sigma binomial band around p = 1/4
    sigma = (0.25 * 0.75 / n) ** 0.5
    for i in range(1, 5):
        assert abs(counts[i] / n - 0.25) < 3 * sigma, counts
    biased = sample_sequence(2, n, weights=(3, 1), seed=4)
    top = sum(1 for c in biased.cards if c.targets == (1,))
    sigma = (0.75 * 0.25 / n) ** 0.5
    assert abs(top / n - 0.75) < 3 * sigma


def test_estimate_single_cycle_probability_lands_near_the_exact_mass():
    est = estimate_single_cycle_probability(3, 5, trials=100_000, seed=11)
    assert abs(est - Fraction(1, 3)) < Fraction(45, 10_000)
    # one multiplex card already mixes the cycle statistics fully
    est = estimate_single_cycle_probability(3, 1, m=2, trials=100_000, seed=12)
    assert abs(est - Fraction(1, 3)) < Fraction(45, 10_000)


def test_estimate_is_reproducible_and_exact_for_one_ball():
    assert estimate_single_cycle_probability(1, 3, trials=500, seed=5) == 1
    a = estimate_single_cycle_probability(3, 4, trials=50, seed=1)
    assert a == estimate_single_cycle_probability(3, 4, trials=50, seed=1)
    assert a == Fraction(21, 50)
    with pytest.raises(ValueError):
        estimate_single_cycle_probability(3, 4, trials=0)


def test_estimates_keep_their_values():
    assert estimate_single_cycle_probability(4, 10, trials=2000, seed=0) == Fraction(499, 2000)
    assert estimate_single_cycle_probability(
        4, 10, trials=2000, seed=2**64 - 1) == Fraction(521, 2000)
    assert estimate_single_cycle_probability(
        5, 6, m=2, ordered=False, weights=[1, 2, 3, 4, 5, 6, 7, 8, 9, 1],
        trials=1500, seed=11,
    ) == Fraction(101, 500)
    # these three walk the arrangement table; the values were read before it existed
    assert estimate_single_cycle_probability(5, 8, trials=5000, seed=0) == Fraction(1017, 5000)
    assert estimate_single_cycle_probability(
        4, 8, m=2, trials=2000, seed=7) == Fraction(513, 2000)
    assert estimate_single_cycle_probability(
        3, 6, m=2, ordered=False, weights=[1, 2, 3], trials=3000, seed=5) == Fraction(7, 20)


def _scalar_draw(stream, cumulative):
    r = stream.randrange(cumulative[-1])
    return next(i for i, edge in enumerate(cumulative) if r < edge)


def _scalar_estimate(b, n, m, ordered, weights, trials, seed):
    """The Monte Carlo loop one draw and one composition at a time."""
    cards = throw_cards(b, m, ordered)
    perms = [card_permutation(c) for c in cards]
    cumulative = list(itertools.accumulate(weights or [1] * len(cards)))
    root = RandomStream(seed)
    hits = 0
    for t in range(trials):
        stream = root.split(t)
        current = identity_perm(b)
        for _ in range(n):
            current = compose(current, perms[_scalar_draw(stream, cumulative)])
        hits += cycle_count(current) == 1
    return Fraction(hits, trials)


def _scalar_sample(b, n, m, ordered, weights, seed):
    cards = throw_cards(b, m, ordered)
    cumulative = list(itertools.accumulate(weights or [1] * len(cards)))
    stream = RandomStream(seed)
    return CardSequence(b, tuple(cards[_scalar_draw(stream, cumulative)] for _ in range(n)))


@st.composite
def walk_cases(draw):
    b = draw(st.integers(1, 6))
    m = draw(st.integers(1, b))
    ordered = draw(st.booleans())
    family = len(throw_cards(b, m, ordered))
    weights = draw(st.one_of(
        st.none(), st.lists(st.integers(1, 9), min_size=family, max_size=family)))
    if weights is not None and draw(st.booleans()):
        # one weight of 2**63 puts the total just above 2**63, where
        # about half the words are rejected
        weights[draw(st.integers(0, family - 1))] = 2**63
    return dict(b=b, n=draw(st.integers(0, 12)), m=m, ordered=ordered, weights=weights,
                seed=draw(st.integers(0, 2**64 - 1)))


@settings(max_examples=200, deadline=None)
@given(walk_cases(), st.integers(1, 30), st.sampled_from([1, 5, 64, rng._BATCH]))
def test_batched_walk_is_the_scalar_walk(case, trials, block):
    """Small blocks split trials across batches, and walks longer than a
    block draw in several batches per trial."""
    with mock.patch.object(rng, "_BATCH", block):
        assert estimate_single_cycle_probability(**case, trials=trials) == _scalar_estimate(
            **case, trials=trials)
    if case["n"] > 0:
        assert sample_sequence(**case) == _scalar_sample(**case)


def _built_tables(b, n, m=1, ordered=True, weights=None, trials=10_000, seed=0):
    """The estimate, and how many arrangement tables it built."""
    with mock.patch.object(
            stochastic, "_arrangement_table", wraps=stochastic._arrangement_table) as table:
        estimate = estimate_single_cycle_probability(
            b, n, m=m, ordered=ordered, weights=weights, trials=trials, seed=seed)
    return estimate, table.call_count


@pytest.mark.parametrize("case, trials, tables", [
    # 2 * cards * _support_bound(b, n, m) table entries against trials * n steps
    (dict(b=4, n=10), 10, 0),  # 192 > 100
    (dict(b=4, n=10), 20, 1),  # 192 <= 200
    (dict(b=5, n=8, m=2, ordered=False, weights=[1, 2, 3, 4, 5, 6, 7, 8, 9, 1]), 300, 1),  # 2400 <= 2400
    (dict(b=6, n=12, m=3), 40, 0),  # 172800 > 480
    (dict(b=6, n=2, weights=[3, 1, 4, 1, 5, 9]), 400, 1),  # 360 <= 800
    (dict(b=1, n=7), 1, 1),  # 2 <= 7
    (dict(b=3, n=0), 50, 0),  # 6 > 0
])
def test_the_table_walk_is_the_scalar_walk(case, trials, tables):
    case = dict(dict(m=1, ordered=True, weights=None, seed=2**64 - 3), **case)
    for block in (7, rng._BATCH):
        with mock.patch.object(rng, "_BATCH", block):
            estimate, built = _built_tables(**case, trials=trials)
        assert built == tables
        assert estimate == _scalar_estimate(**case, trials=trials)


def test_the_table_is_bounded_by_max_support():
    # four single throws on four balls reach 24 arrangements: 96 entries
    with mock.patch.object(stochastic, "_MAX_SUPPORT", 96):
        assert _built_tables(4, 10, trials=1000, seed=3) == (Fraction(28, 125), 1)
    with mock.patch.object(stochastic, "_MAX_SUPPORT", 95):
        assert _built_tables(4, 10, trials=1000, seed=3) == (Fraction(28, 125), 0)


def test_a_large_state_space_never_builds_a_table():
    with mock.patch.object(stochastic, "_arrangement_table", side_effect=AssertionError):
        estimate = estimate_single_cycle_probability(52, 20, trials=50)
    assert estimate == _scalar_estimate(52, 20, 1, True, None, trials=50, seed=0)


def _stepped_in_bytes(case, trials):
    """The estimate, and whether its trials were stepped in bytes."""
    with mock.patch.object(stochastic, "_byte_walk", wraps=stochastic._byte_walk) as walk:
        estimate = estimate_single_cycle_probability(**case, trials=trials)
    return estimate, walk.called


@pytest.mark.parametrize("case, trials, batch, in_bytes", [
    # cards times arrangements: 15 * 15 is the most any family reaches under 256
    (dict(b=6, n=1, m=2, ordered=False), 1000, None, True),
    (dict(b=4, n=3, m=2), 500, None, False),  # 12 * 24 = 288
    # the integer weight total
    (dict(b=4, n=10, weights=[1, 2, 3, 250]), 300, None, True),  # 256
    (dict(b=4, n=10, weights=[1, 2, 3, 251]), 300, None, False),  # 257
    (dict(b=3, n=5, m=2, ordered=False, weights=[1, 2, 6]), 400, None, True),
    # trials a block, _BATCH // n
    (dict(b=4, n=128), 40, None, True),  # 32, then a block of 8
    (dict(b=4, n=129), 40, None, False),  # 31
    (dict(b=3, n=2), 100, 64, True),  # 32, 32, 32 and 4
    (dict(b=3, n=3), 100, 64, False),  # 21
    (dict(b=4, n=10), 300, 7, False),
])
def test_the_byte_walk_is_the_scalar_walk(case, trials, batch, in_bytes):
    case = dict(dict(m=1, ordered=True, weights=None, seed=2**64 - 5), **case)
    with mock.patch.object(rng, "_BATCH", batch or rng._BATCH):
        estimate, stepped_in_bytes = _stepped_in_bytes(case, trials)
    assert stepped_in_bytes == in_bytes
    assert estimate == _scalar_estimate(**case, trials=trials)


def test_each_distinct_end_is_tested_once_per_estimate():
    # 24 arrangements at most, over 25 blocks of byte steps, 25 of list
    # steps and 5 of itemgetter steps
    for case, batch in ((dict(trials=10_000), None),
                        (dict(trials=10_000, weights=[1, 2, 3, 251]), None),
                        (dict(trials=10), 20)):
        with mock.patch.object(rng, "_BATCH", batch or rng._BATCH), \
                mock.patch("jugglecards.cards.cycle_count", wraps=cycle_count) as tested:
            estimate_single_cycle_probability(4, 10, seed=9, **case)
        # patched where the cycle tally calls it, so some end was tested
        ends = [call.args[0] for call in tested.call_args_list]
        assert 0 < len(ends) == len(set(ends)) <= 24


def _arrangement_moves(b):
    perms = [inverse(card_permutation(c)) for c in throw_cards(b)]
    return perms, [composer(p) for p in perms]


def test_the_arrangement_table_lists_every_reachable_arrangement():
    perms, moves = _arrangement_moves(4)
    arrangements, table = stochastic._arrangement_table(moves, identity_perm(4), 100)
    assert arrangements[0] == identity_perm(4)
    assert sorted(arrangements) == sorted(itertools.permutations(range(1, 5)))
    assert len(table) == 4 * 24
    for i, current in enumerate(arrangements):
        for c, perm in enumerate(perms):
            assert table[4 * i + c] % 4 == 0
            assert arrangements[table[4 * i + c] // 4] == compose(perm, current)


def test_the_arrangement_table_stops_at_n_cards():
    perms, moves = _arrangement_moves(8)
    start = identity_perm(8)
    arrangements, table = stochastic._arrangement_table(moves, start, 2)
    assert len(arrangements) == stochastic._support_bound(8, 2, 1) == 56
    two_cards = {compose(q, compose(p, start)) for p in perms for q in perms}
    assert set(arrangements) == two_cards
    # rows for the identity and the seven arrangements one card away
    one_card = {compose(p, start) for p in perms}
    assert set(arrangements[:len(table) // 8]) == one_card and len(table) == 8 * 8
    for i, current in enumerate(arrangements[:8]):
        for c, perm in enumerate(perms):
            assert arrangements[table[8 * i + c] // 8] == compose(perm, current)
    assert stochastic._arrangement_table(moves, start, 0) == ([start], [])


def test_estimate_rejects_bad_families_and_negative_steps():
    with pytest.raises(ValueError):
        estimate_single_cycle_probability(4, -1, trials=10)
    with pytest.raises(ValueError):
        estimate_single_cycle_probability(3, 2, m=5, trials=5)
    with pytest.raises(ValueError):
        estimate_single_cycle_probability(0, 2, trials=5)
    with pytest.raises(ValueError):
        sample_sequence(3, 4, m=5)
    with pytest.raises(ValueError):
        sample_sequence(0, 4)
    with pytest.raises(ValueError):
        card_distribution(3, m=0)


def test_a_trial_past_the_row_limit_is_refused_before_any_draw():
    # a trial is a sampled row, so it meets the row limit of sample_sequence
    with mock.patch.object(stochastic, "_trial_draws", side_effect=AssertionError("drew")):
        with pytest.raises(ValueError) as refused:
            estimate_single_cycle_probability(3, 10**6 + 1, trials=1)
    assert str(refused.value) == "sampled rows hold at most 1000000 cards, got n=1000001"
    with pytest.raises(ValueError) as sampled:
        sample_sequence(3, 10**6 + 1)
    assert str(sampled.value) == str(refused.value)


def test_both_samplers_refuse_an_oversized_row_before_reading_the_weights():
    # the weights here are refused too, but the row is refused first
    reading = mock.patch.object(stochastic, "_integer_weights", side_effect=AssertionError("read"))
    message = "sampled rows hold at most 1000000 cards, got n=1000001"
    with reading, pytest.raises(ValueError, match=f"^{message}$"):
        sample_sequence(3, 10**6 + 1, weights=[1, -1])
    with reading, pytest.raises(ValueError, match=f"^{message}$"):
        estimate_single_cycle_probability(3, 10**6 + 1, weights=[1, -1], trials=1)


def test_weight_totals_past_one_word_name_the_weights():
    # one random word covers weight totals up to 2**64; a larger total is
    # refused before any draw, in terms of the weights
    with pytest.raises(ValueError, match="card weights total 18446744073709551617 "):
        sample_sequence(2, 3, weights=[2**64, 1])
    with pytest.raises(ValueError, match="card weights total 36893488147419103235 "):
        estimate_single_cycle_probability(3, 2, weights=[2**64 - 1, 2**64 - 1, 5], trials=5)
    # fractions are scaled to integers first: 2**64/3 and 1/3 become 2**64 and 1
    with pytest.raises(ValueError, match="card weights total 18446744073709551617 "):
        sample_sequence(2, 3, weights=[Fraction(2**64, 3), Fraction(1, 3)])
    assert len(sample_sequence(2, 3, weights=[2**64 - 1, 1]).cards) == 3
