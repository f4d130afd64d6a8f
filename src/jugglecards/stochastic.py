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
    _class_table,
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

    ``weights`` (defaulting to uniform) are positive ints or Fractions
    in the order of :func:`jugglecards.enumeration.throw_cards`; a float
    is refused, since ``0.1`` is a binary fraction near, not at, 1/10.
    A card's level map is its targets followed by the other levels in
    ascending order, so distinct cards have distinct level maps.
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

    A uniform draw from one ``m``-throw card family (the law of
    ``card_distribution(b, m, ordered)``, however it was built, found by
    :func:`_uniform_family`) takes the class walk: after ``n ≥ 1`` steps
    a permutation's mass is the row count of
    :func:`jugglecards.enumeration.count_by_permutation` over the
    ``|family| ** n`` rows, read from the same table,
    :func:`jugglecards.enumeration._class_table`.  For ordered families
    and single throws the mass depends only on the length of the
    permutation's increasing suffix, the top-to-random lumping of
    Diaconis, Fill and Pitman (1992), so the walk computes ``b`` counts
    instead of pushing weights over up to ``b!`` states for every step;
    for unordered multi-throw families it depends only on the descent
    set, and the counts are pushed over at most ``2^(b-1)`` tie states.
    Every other law (weighted, any other support, one with a zero mass,
    or the law on no points) runs :func:`_transfer_walk` over arrangement
    ids: each reached arrangement's moves are built once, as a row of
    ids, and later steps from it only look them up.
    :func:`step_distribution`, the plain product, shares none of its
    loop.

    On every path the result is exact.  A walk that would hold more than
    ``jugglecards.enumeration._MAX_SUPPORT`` permutations raises
    ``ValueError`` before it starts, and before ``|family| ** n`` is
    taken.
    """
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    if n >= 1 and (family := _uniform_family(step)) is not None:
        (m, ordered), b = family, step.degree
        _check_support(b, n, _support_bound(b, n, m))
        # one Fraction per class, shared by the class's permutations
        total = (math.perm if ordered else math.comb)(b, m) ** n
        return GroupDistribution(_class_table(b, n, m, ordered, lambda rows: Fraction(rows, total)))
    return _transfer_walk(step, n)


def _throws(step: GroupDistribution) -> int:
    """The fewest balls a card must throw to hold every level map of the
    support, at least 1: a permutation with increasing suffix ``k`` is
    the level map of a card of ``b - k`` throws."""
    return max(1, step.degree - min(map(increasing_suffix_length, step.prob)))


def _uniform_family(step: GroupDistribution) -> tuple[int, bool] | None:
    """``(m, ordered)`` for the ``m``-throw card family that ``step``
    draws uniformly; ``None`` if there is none.

    ``m = _throws(step)`` is the least ``m`` whose family holds the
    support.  The ordered family's level maps are the ``(b)_m``
    permutations whose increasing suffix is at least ``b - m``; the
    unordered family's are the ``C(b, m)`` permutations with no descent
    but at ``m``.  So the step is a family's when its masses are equal
    and its support has ``(b)_m`` elements, or ``C(b, m)`` elements that
    all descend at ``m`` and nowhere else.  Single throws, the same
    family ordered or not, count as ordered."""
    if len(set(step.prob.values())) != 1:
        return None
    b, m, size = step.degree, _throws(step), len(step.prob)
    if size == math.perm(b, m):
        return m, True
    descents = {i for g in step.prob for i in range(1, b) if g[i - 1] > g[i]}
    return (m, False) if descents == {m} and size == math.comb(b, m) else None


def _transfer_walk(step: GroupDistribution, n: int) -> GroupDistribution:
    """The walk over arrangements, the inverses of the permutations, one
    pass over the reached arrangements per step.

    Each level map ``g`` moves an arrangement by one fixed
    ``composer(inverse(g))``, the move of the census and the Monte Carlo
    trials.  :func:`_arrangement_table` gives the arrangement ids and the
    rows of the ids their moves reach, in the law's order, for the
    arrangements reached within ``n - 2`` steps, so steps 1 to ``n - 1``
    key their layers by id and take each move as one list lookup and one
    integer multiply-add, with no tuple built or hashed.  The last step
    builds no rows: it keys its layer by arrangement, reading the
    children of an arrangement with a row and moving one without, and
    rows are freed before each final arrangement is inverted.  Each step
    visits the arrangements, and for each the level maps in the law's
    order.  The walk runs on integer weights, the masses times the least
    common multiple of their denominators, and divides once at the end;
    a zero mass is weight 0, so the states only it reaches keep mass 0,
    as under :func:`step_distribution`.  It stays inside the support of
    the uniform walk on cards of :func:`_throws` throws.
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
    arrangements, rows = _arrangement_table(moves, identity_perm(b), n - 1)
    layer = {0: 1}
    for _ in range(n - 1):
        last, layer = layer, {}
        get = layer.get
        for i, ways in last.items():
            for j, w in zip(rows[i], weights):
                layer[j] = get(j, 0) + ways * w
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
    for w in weights:
        if not isinstance(w, (int, Fraction)):
            raise ValueError(f"weights must be exact rationals, got {w!r}")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    scale = math.lcm(*(w.denominator for w in weights))
    return [int(w * scale) for w in weights]


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

    ``weights`` (defaulting to uniform) are positive ints or Fractions,
    as for :func:`card_distribution`; the draw is exact, by
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
    the order a breadth-first walk finds them, and the rows of the moves
    between them: ``rows[i][c] == j`` when ``moves[c]`` takes arrangement
    ``i`` to arrangement ``j``.  Only the arrangements reached within
    ``n - 1`` moves get a row, since no walk moves on from the others,
    and the build stops at the first pass that finds no new arrangement.
    """
    arrangements, ids, rows = [start], {start: 0}, []
    setdefault = ids.setdefault
    for _ in range(n):
        for arrangement in arrangements[len(rows):]:  # first reached by the last pass
            rows.append([setdefault(move(arrangement), len(ids)) for move in moves])
        if len(ids) == len(arrangements):
            break
        arrangements += itertools.islice(ids, len(arrangements), None)  # ids in order
    return arrangements, rows


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
    about ``jugglecards.rng._BATCH`` draws.  When the rows of
    :func:`_arrangement_table`, one entry per card and arrangement, hold
    at most half as many entries as the trials take card steps, and at
    most ``jugglecards.enumeration._MAX_SUPPORT``, a trial follows the
    arrangement's id and each card is one row lookup,
    ``rows[state][card]``; otherwise each card acts on the arrangement as
    one ``itemgetter``.  When cards times arrangements and the integer
    weight total both fit in a byte and a block holds at least 32 trials,
    every trial of the block takes each card step at once, in bytes
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
        arrangements, rows = _arrangement_table(moves, start, n)
        # below about 32 trials a block, the list loop steps faster
        if k * len(arrangements) <= 256 and cumulative[-1] <= 256 and per_block >= 32:
            tally = _byte_walk(root, blocks, n, cumulative, rows)
        else:
            tally = Counter()
            for block in blocks:
                picks, finals = picks_of(block), []
                for _ in block:
                    state = 0
                    for c in itertools.islice(picks, n):
                        state = rows[state][c]
                    finals.append(state)
                tally.update(finals)
        ends = {arrangements[i]: count for i, count in tally.items()}
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


def _byte_walk(root: RandomStream, blocks, n: int, cumulative, rows) -> Counter:
    """How many trials of ``blocks`` end at each arrangement id, stepping
    all trials of a block at once in bytes.

    Needs ``n >= 1``, the rows of :func:`_arrangement_table` with every
    code ``k*j + c`` below 256, ``k`` being the number of cards, and a
    weight total of at most 256.  The rows flatten to a 256-byte step
    table, ``step[k*i + c] == k*j`` when card ``c`` takes arrangement
    ``i`` to ``j``.  A block's draws are one ``bytes``
    (``RandomStream._split_randrange_bytes``), taken to card indices by
    one ``translate``, and its states one ``bytes`` of codes.  Card step
    ``s`` adds the ``s``-th picks of every trial to the states as two
    big-endian ints, which carry across no byte, and one ``translate``
    through the step table takes each sum to the next code."""
    bound, k = cumulative[-1], len(rows[0])
    to_card = bytes(_picks(cumulative, range(bound))).ljust(256, b"\0")
    step = bytes(k * j for row in rows for j in row).ljust(256, b"\0")
    codes = Counter()
    for block in blocks:
        picks = root._split_randrange_bytes(block, bound, n).translate(to_card)
        states = picks[::n].translate(step)  # from code 0, the first step
        for s in range(1, n):
            states = (int.from_bytes(states, "big") + int.from_bytes(picks[s::n], "big")
                      ).to_bytes(len(block), "big").translate(step)
        codes.update(states)
    return Counter({code // k: count for code, count in codes.items()})
