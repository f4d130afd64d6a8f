"""Random walks on the symmetric group driven by card draws.

Drawing cards at random multiplies the running permutation by random
level maps.  One draw and ``n`` draws are both exact laws on the
permutations of ``1..b``, :class:`GroupDistribution`, and the ``n``-step
law is the ``n``-fold convolution of the one-step law.  Everything
distributional here is exact rational arithmetic; floating point never
appears, so statements like "the single-cycle mass is 1/b for every n"
are checked as equalities.  Monte Carlo estimates use the reproducible
streams from :mod:`jugglecards.rng`.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

from jugglecards import rng
from jugglecards.cards import (
    _MAX_ROW,
    _Value,
    _cycle_tally,
    CardSequence,
    card_permutation,
    compose,
    composer,
    identity_perm,
    increasing_suffix_length,
    inverse,
)
from jugglecards.enumeration import (
    _MAX_SUPPORT,
    _check_support,
    _lumped_table,
    _support_bound,
    throw_cards,
)
from jugglecards.rng import RandomStream


class GroupDistribution(_Value):
    """Exact probabilities over permutations of a common degree, kept in a
    copy of the caller's mapping."""

    __slots__ = ("prob",)

    def __init__(self, prob: dict):
        super().__init__(dict(prob))
        if not self.prob:
            raise ValueError("empty distribution")
        sizes = set(map(len, self.prob))
        if len(sizes) != 1:
            raise ValueError(f"mixed permutation sizes {sorted(sizes)}")
        (b,) = sizes
        points = set(range(1, b + 1))
        for g in self.prob:
            if set(g) != points:  # b entries, so exactly when not a permutation
                raise ValueError(f"{g} is not a permutation of 1..{b}")
        numerators: dict[int, int] = {}  # summed per denominator
        for g, p in self.prob.items():
            if not isinstance(p, (int, Fraction)):
                raise ValueError(f"probabilities must be exact rationals, got {p!r}")
            top, bottom = p.as_integer_ratio()
            if top < 0:
                raise ValueError(f"negative probability {p} at {g}")
            numerators[bottom] = numerators.get(bottom, 0) + top
        scale = math.lcm(*numerators)
        if sum(top * (scale // bottom) for bottom, top in numerators.items()) != scale:
            raise ValueError("probabilities must sum to exactly 1")

    @property
    def degree(self) -> int:
        return len(next(iter(self.prob)))


def point_distribution(b: int) -> GroupDistribution:
    """All mass on the identity."""
    return GroupDistribution({identity_perm(b): Fraction(1)})


def uniform_distribution(b: int) -> GroupDistribution:
    """Equal mass on every permutation of ``b`` points.  Past
    ``_MAX_SUPPORT`` permutations (``b >= 10``) it raises ``ValueError``
    before any is listed: single throws reach all ``b!`` in ``b - 1``
    steps, so the bound is ``_support_bound(b, b - 1, 1)``, checked at
    no cost for any ``b``."""
    if b > 0:  # b = 0 has its one permutation, and math.factorial refuses b < 0
        _check_support(b, b - 1, _support_bound(b, b - 1, 1))
    share = Fraction(1, math.factorial(b))
    return GroupDistribution(dict.fromkeys(itertools.permutations(range(1, b + 1)), share))


def card_distribution(
    b: int, m: int = 1, ordered: bool = True, weights=None
) -> GroupDistribution:
    """The law of one card drawn from a family, on the cards' level maps.

    ``weights`` (defaulting to uniform) are positive rationals in the
    order of :func:`jugglecards.enumeration.throw_cards`.  A card's
    level map is its targets followed by the other levels in ascending
    order, so distinct cards have distinct level maps.
    """
    cards = throw_cards(b, m, ordered)
    ints = _integer_weights(cards, weights)
    total = sum(ints)
    return GroupDistribution(
        {card_permutation(c): Fraction(w, total) for c, w in zip(cards, ints)}
    )


def step_distribution(d: GroupDistribution, step: GroupDistribution) -> GroupDistribution:
    """One walk step: right-multiply by a permutation drawn from ``step``.

    The new element is ``compose(current, g)``, "current, then step",
    matching how appending a card extends a sequence.
    """
    if d.degree != step.degree:
        raise ValueError(f"distribution on {d.degree} points, step on {step.degree}")
    prob: dict = {}
    for h, p in d.prob.items():
        for g, q in step.prob.items():
            child = compose(h, g)
            prob[child] = prob.get(child, 0) + p * q
    return GroupDistribution(prob)


def exact_step_distribution(step: GroupDistribution, n: int) -> GroupDistribution:
    """Law of the walk after ``n`` steps of ``step`` from the identity.

    A uniform draw from the ordered ``m``-throw cards (the law of
    ``card_distribution(b, m)``, however it was built) takes the lumped
    walk: after ``n ≥ 1`` steps a permutation's mass depends only on the
    length of its increasing suffix, and is the row count of
    :func:`jugglecards.enumeration.count_by_permutation` over
    ``(b)_m ** n``, read from the same suffix-class table.  This is the
    top-to-random lumping of Diaconis, Fill and Pitman (1992), so the
    walk computes ``b`` counts instead of pushing weights over up to
    ``b!`` states for every step.  Every other law (weighted, unordered,
    any other support, one with a zero mass, or the law on no points)
    runs :func:`_transfer_walk` over arrangement ids: each reached
    arrangement's moves are built once, as a row of ids, and later steps
    from it only look them up.  :func:`step_distribution`, the plain
    product, shares none of its loop.

    Either way the result is exact.  A walk that would hold more than
    ``jugglecards.enumeration._MAX_SUPPORT`` permutations raises
    ``ValueError`` before it starts.
    """
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    if n >= 1 and (m := _lumped_throws(step)) is not None:
        # each suffix class's row count over the (b)_m ** n rows, one Fraction
        # per class, computed only once the table has passed its bound
        b = step.degree
        return GroupDistribution(
            _lumped_table(b, n, m, lambda ks: Fraction(sum(ks.values()), math.perm(b, m) ** n))
        )
    return _transfer_walk(step, n)


def _throws(step: GroupDistribution) -> int:
    """The fewest balls a card must throw to hold every level map of the
    support, at least 1: a permutation with increasing suffix ``k`` is
    the level map of a card of ``b - k`` throws."""
    return max(1, step.degree - min(map(increasing_suffix_length, step.prob)))


def _lumped_throws(step: GroupDistribution) -> int | None:
    """The ``m`` whose ordered ``m``-throw cards are drawn uniformly by
    ``step``; ``None`` if there is none.

    Their level maps are the ``(b)_m`` permutations whose increasing
    suffix is at least ``b - m``, and ``m = _throws(step)`` is the least
    ``m`` whose family holds the support, so the step lumps when its
    masses are equal and its support has ``(b)_m`` elements."""
    if len(set(step.prob.values())) != 1:
        return None
    m = _throws(step)
    return m if len(step.prob) == math.perm(step.degree, m) else None


def _transfer_walk(step: GroupDistribution, n: int) -> GroupDistribution:
    """The walk over arrangements, the inverses of the permutations, one
    pass over the reached arrangements per step.

    Each level map ``g`` moves an arrangement by one fixed
    ``composer(inverse(g))``, the move of the census and the Monte Carlo
    trials.  An arrangement gets an id, and a row of the ids its moves
    reach in the law's order, the first time a step leaves it, so steps
    1 to ``n - 1`` key their layers by id and take each move as one list
    lookup and one integer multiply-add, with no tuple built or hashed.
    The last step builds no rows: it keys its layer by arrangement,
    reading the children of an arrangement with a row and moving one
    without.  Rows are kept only for the arrangements reached within
    ``n - 2`` steps, and ids and rows are freed before each final
    arrangement is inverted.  Each step visits the arrangements, and for
    each the level maps in the law's order.  The walk runs on integer
    weights, the masses times the least common multiple of their
    denominators, and divides once at the end; a zero mass is weight 0,
    so the states only it reaches keep mass 0, as under
    :func:`step_distribution`.  It stays inside the support of the
    uniform walk on cards of :func:`_throws` throws.
    """
    b, count = step.degree, len(step.prob)
    # for two or more permutations, count ** n passes _MAX_SUPPORT exactly
    # when count ** min(n, bit_length) does, and stays a small number
    reachable = count ** min(n, _MAX_SUPPORT.bit_length())
    _check_support(b, n, min(_support_bound(b, n, _throws(step)), reachable))
    if n == 0:
        return point_distribution(b)
    scale = math.lcm(*(p.denominator for p in step.prob.values()))
    moves = [composer(inverse(g)) for g in step.prob]
    weights = [int(p * scale) for p in step.prob.values()]
    start = identity_perm(b)
    arrangements, ids, rows = [start], {start: 0}, []
    setdefault = ids.setdefault
    layer = {0: 1}
    for _ in range(n - 1):
        for arrangement in arrangements[len(rows):]:  # first reached by the last step
            rows.append([setdefault(move(arrangement), len(ids)) for move in moves])
        arrangements += itertools.islice(ids, len(arrangements), None)  # ids in order
        last, layer = layer, {}
        get = layer.get
        for i, ways in last.items():
            for j, w in zip(rows[i], weights):
                layer[j] = get(j, 0) + ways * w
    del ids
    ends, rowed = {}, len(rows)
    get = ends.get
    for i, ways in layer.items():
        if i < rowed:
            for j, w in zip(rows[i], weights):
                after = arrangements[j]
                ends[after] = get(after, 0) + ways * w
        else:
            arrangement = arrangements[i]
            for move, w in zip(moves, weights):
                after = move(arrangement)
                ends[after] = get(after, 0) + ways * w
    del arrangements, rows, layer
    total = scale ** n  # the masses sum to 1, so their integers to scale
    return GroupDistribution({inverse(a): Fraction(ways, total) for a, ways in ends.items()})


def cycle_count_distribution(d: GroupDistribution) -> dict[int, Fraction]:
    """Marginal of :func:`jugglecards.cards.cycle_count` under ``d``."""
    return {l: Fraction(p) for l, p in _cycle_tally(d.prob).items()}


def single_cycle_mass(d: GroupDistribution) -> Fraction:
    """Probability that the walk sits at a full-length cycle."""
    return cycle_count_distribution(d).get(1, Fraction(0))


def cycle_type_limit(b: int) -> dict[int, Fraction]:
    """Limit law of the cycle count: ``l`` cycles with chance c(b,l)/b!.

    This is the cycle-count distribution of a uniform permutation, the
    limit of the card walk as the number of cards grows.
    """
    from jugglecards.counting import stirling1

    fact = math.factorial(b)
    return {l: Fraction(stirling1(b, l), fact) for l in range(1, b + 1)}


def total_variation(d1, d2) -> Fraction:
    """Half the L1 distance between two exact distributions.

    Accepts :class:`GroupDistribution` or plain mappings (for marginals
    like cycle counts); missing keys count as zero, but permutation keys
    of different degrees are rejected as different groups.
    """
    p = d1.prob if isinstance(d1, GroupDistribution) else d1
    q = d2.prob if isinstance(d2, GroupDistribution) else d2
    keys = set(p) | set(q)
    sizes = {len(k) for k in keys if isinstance(k, tuple)}
    if len(sizes) > 1:
        raise ValueError(f"distributions live on different groups: sizes {sorted(sizes)}")
    total = sum(abs(Fraction(p.get(k, 0)) - Fraction(q.get(k, 0))) for k in keys)
    return total / 2


def _integer_weights(cards, weights):
    if weights is None:
        weights = [1] * len(cards)
    if len(weights) != len(cards):
        raise ValueError(f"need {len(cards)} weights, got {len(weights)}")
    fracs = [Fraction(w) for w in weights]
    if any(f <= 0 for f in fracs):
        raise ValueError("weights must be positive")
    scale = math.lcm(*(f.denominator for f in fracs))
    return [int(f * scale) for f in fracs]


def _drawn_family(b: int, n: int, m: int, ordered: bool, weights):
    """The family a row of ``n`` drawn cards draws from, and the running
    totals of its integer card weights, which one random word must be
    able to cover.  A row of more than ``jugglecards.cards._MAX_ROW``
    cards is refused first."""
    if n > _MAX_ROW:
        raise ValueError(f"sampled rows hold at most {_MAX_ROW} cards, got n={n}")
    cards = throw_cards(b, m, ordered)
    cumulative = list(itertools.accumulate(_integer_weights(cards, weights)))
    if cumulative[-1] > 1 << 64:
        raise ValueError(
            f"card weights total {cumulative[-1]} as integers, more than 2**64"
        )
    return cards, cumulative


def sample_sequence(
    b: int,
    n: int,
    m: int = 1,
    ordered: bool = True,
    weights=None,
    seed: int = 0,
) -> CardSequence:
    """Draw ``n`` cards independently, with replacement.

    ``weights`` (defaulting to uniform) follow the order of
    :func:`jugglecards.enumeration.throw_cards`; the draw is exact, by
    integer cumulative sums, so equal seeds reproduce equal sequences.
    A row of more than ``jugglecards.cards._MAX_ROW`` cards is refused
    before any draw.
    """
    cards, cumulative = _drawn_family(b, n, m, ordered, weights)
    draws = RandomStream(seed).randrange_many(cumulative[-1], n)
    return CardSequence(b, tuple(map(cards.__getitem__, _picks(cumulative, draws))))


def _picks(cumulative, draws):
    """The index each draw selects: the first whose cumulative weight
    exceeds it.  Under unit weights, which total their count, that is
    the draw itself."""
    if cumulative[-1] == len(cumulative):
        return draws
    return map(bisect_right, itertools.repeat(cumulative), draws)


def _trial_draws(root: RandomStream, trials: range, bound: int, n: int):
    """Batches of draws, ``n`` from each trial's child stream in turn; a
    batch holds whole trials, or part of one trial longer than
    ``jugglecards.rng._BATCH``."""
    block = rng._BATCH
    if n <= block:
        yield root.split_randrange_many(trials, bound, n)
        return
    for t in trials:
        stream = root.split(t)
        for done in range(0, n, block):
            yield stream.randrange_many(bound, min(block, n - done))


def _arrangement_table(moves, start, n: int):
    """The arrangements that at most ``n`` moves reach from ``start``, in
    the order a breadth-first walk finds them, and the flat table of the
    moves between them: ``table[k*i + c] == k*j`` when ``moves[c]`` takes
    arrangement ``i`` to arrangement ``j``, ``k`` being ``len(moves)``.
    Arrangements first reached by the ``n``-th move are listed without a
    row, since no trial moves on from them."""
    k = len(moves)
    arrangements, ids, table = [start], {start: 0}, []
    for _ in range(n):
        layer = arrangements[len(table) // k:]
        if not layer:
            break
        for current in layer:
            for move in moves:
                after = move(current)
                j = ids.get(after)
                if j is None:
                    j = ids[after] = len(arrangements)
                    arrangements.append(after)
                table.append(k * j)
    return arrangements, table


def estimate_single_cycle_probability(
    b: int,
    n: int,
    m: int = 1,
    ordered: bool = True,
    weights=None,
    trials: int = 10_000,
    seed: int = 0,
) -> Fraction:
    """Monte Carlo estimate of the chance that ``n`` cards leave one cycle.

    Every trial runs on its own child stream of ``seed``, so estimates
    are reproducible and the first ``t`` trials do not depend on the
    total trial count.  A trial follows the arrangement, the inverse of
    the permutation, which has the same cycles.  Trials run in blocks of
    about ``jugglecards.rng._BATCH`` draws.  When the table of
    :func:`_arrangement_table` holds at most half as many entries as the
    trials take card steps, and at most
    ``jugglecards.enumeration._MAX_SUPPORT``, each card is one lookup in
    it; otherwise each card acts on the arrangement as one
    ``itemgetter``.  When the table's codes and the integer weight total
    both fit in a byte and a block holds at least 32 trials, every trial
    of the block takes each card step at once, in bytes
    (:func:`_byte_walk`).  Final arrangements are tallied over the whole
    estimate, and each distinct one is tested once.  A trial is a sampled
    row, so one of more than ``jugglecards.cards._MAX_ROW`` cards is
    refused before any draw; the trial count has no bound.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    cards, cumulative = _drawn_family(b, n, m, ordered, weights)
    moves = [composer(inverse(card_permutation(c))) for c in cards]
    root = RandomStream(seed)
    start = identity_perm(b)
    k = len(moves)
    entries = k * _support_bound(b, n, m)
    per_block = max(1, rng._BATCH // max(n, 1))
    blocks = (range(first, min(first + per_block, trials))
              for first in range(0, trials, per_block))

    def picks_of(block):
        return _picks(cumulative, itertools.chain.from_iterable(
            _trial_draws(root, block, cumulative[-1], n)))

    if 2 * entries <= trials * n and entries <= _MAX_SUPPORT:
        arrangements, table = _arrangement_table(moves, start, n)
        # below about 32 trials a block, the list loop steps faster
        if k * len(arrangements) <= 256 and cumulative[-1] <= 256 and per_block >= 32:
            codes = _byte_walk(root, blocks, n, cumulative, table)
        else:
            codes = Counter()
            for block in blocks:
                picks, finals = picks_of(block), []
                for _ in block:
                    state = 0
                    for c in itertools.islice(picks, n):
                        state = table[state + c]
                    finals.append(state)
                codes.update(finals)
        ends = {arrangements[code // k]: count for code, count in codes.items()}
    else:
        ends = Counter()
        for block in blocks:
            steps = map(moves.__getitem__, picks_of(block))
            finals = []
            for _ in block:
                current = start
                for move in itertools.islice(steps, n):
                    current = move(current)
                finals.append(current)
            ends.update(finals)
    return Fraction(_cycle_tally(ends).get(1, 0), trials)


def _byte_walk(root: RandomStream, blocks, n: int, cumulative, table) -> Counter:
    """How many trials of ``blocks`` end at each code, stepping all
    trials of a block at once in bytes.

    Needs ``n >= 1``, every code ``k*j`` of ``table`` and every
    ``k*j + c`` below 256, and a weight total of at most 256.  A block's
    draws are one ``bytes`` (``RandomStream._split_randrange_bytes``),
    taken to card indices by one ``translate``, and its states one
    ``bytes`` of codes.  Card step ``s`` adds the ``s``-th picks of every
    trial to the states as two big-endian ints, which carry across no
    byte, and one ``translate`` through the table takes each sum to the
    next code."""
    bound = cumulative[-1]
    to_card = bytes(_picks(cumulative, range(bound))).ljust(256, b"\0")
    step = bytes(table).ljust(256, b"\0")
    ends = Counter()
    for block in blocks:
        picks = root._split_randrange_bytes(block, bound, n).translate(to_card)
        states = picks[::n].translate(step)  # from code 0, the first step
        for s in range(1, n):
            states = (int.from_bytes(states, "big") + int.from_bytes(picks[s::n], "big")
                      ).to_bytes(len(block), "big").translate(step)
        ends.update(states)
    return ends
