"""Juggling cards and card sequences.

A card over ``b`` balls shows the balls stacked bottom to top on the left
edge, reorders them, and hands the new stack to the next card.  A
single-throw card ``C_i`` takes the bottom ball to level ``i`` while the
balls at levels ``2..i`` drop down one.  A multiplex card ``C_{s1,...,sm}``
throws the bottom ``m`` balls to the (distinct) levels ``s1..sm`` and lets
the remaining balls fill the free levels bottom up without changing their
relative order.

Permutations are tuples of length ``b`` holding the values ``1..b``;
``p[x-1]`` is the image of ``x``.  Arrangements are tuples listing the
balls bottom to top.  Both are plain tuples so they hash, compare, and
print without ceremony.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re


_MAX_LEVELS = 10**6  # the most balls a card may hold; card families count cards times balls
_MAX_ROW = 10**6  # the most cards a counted, collected or sampled row may hold


class MultiplexError(ValueError):
    """Raised by operations that are only defined for single-throw cards."""


# ---------------------------------------------------------------------------
# permutations


def identity_perm(b: int) -> tuple[int, ...]:
    return tuple(range(1, b + 1))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply ``p`` first and then ``q``.

    >>> compose((2, 1, 3), (1, 3, 2))
    (3, 1, 2)
    """
    if len(p) != len(q):
        raise ValueError(f"cannot compose permutations of sizes {len(p)} and {len(q)}")
    return tuple(q[x - 1] for x in p)


def composer(p: tuple[int, ...]):
    """The map ``q -> compose(p, q)``, built once to apply to many ``q``.

    Sizes are not checked, which is what makes it cheaper than
    :func:`compose` in inner loops.

    >>> composer((2, 1, 3))((1, 3, 2))
    (3, 1, 2)
    """
    if len(p) < 2:  # itemgetter needs an index, and returns a lone item bare
        return lambda q: tuple(q[x - 1] for x in p)
    return operator.itemgetter(*(x - 1 for x in p))


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x - 1] = i + 1
    return tuple(inv)


def _check_perm(p, b: int, name: str) -> None:
    """Refuse ``p``, called ``name``, unless it lists each of 1..b once;
    lengths are compared first, so a huge ``b`` costs nothing to refuse."""
    if len(p) != b or sorted(p) != list(range(1, b + 1)):
        raise ValueError(f"{name} {tuple(p)} is not a permutation of 1..{b}")


def is_identity(p: tuple[int, ...]) -> bool:
    return all(x == i + 1 for i, x in enumerate(p))


def cycles(p: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles of ``p``, fixed points included.

    Each cycle starts at its smallest element and cycles are listed in
    order of those starting points.

    >>> cycles((2, 4, 1, 3))
    ((1, 2, 4, 3),)
    """
    seen = [False] * len(p)
    out = []
    for start in range(1, len(p) + 1):
        if seen[start - 1]:
            continue
        cyc = [start]
        seen[start - 1] = True
        x = p[start - 1]
        while x != start:
            cyc.append(x)
            seen[x - 1] = True
            x = p[x - 1]
        out.append(tuple(cyc))
    return tuple(out)


def cycle_count(p: tuple[int, ...]) -> int:
    return len(cycles(p))


def _cycle_tally(weights: dict) -> dict:
    """``{l: summed weight}`` over the permutations keying ``weights`` that
    have ``l`` cycles, each permutation's cycles counted once."""
    tally: dict = {}
    for p, w in weights.items():
        l = cycle_count(p)
        tally[l] = tally.get(l, 0) + w
    return tally


def cycle_string(p: tuple[int, ...]) -> str:
    """One-line cycle notation with fixed points left out; identity is ``()``.

    >>> cycle_string((2, 4, 1, 3))
    '(1 2 4 3)'
    """
    parts = [c for c in cycles(p) if len(c) > 1]
    if not parts:
        return "()"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in parts)


def inversions(p: tuple[int, ...]) -> int:
    """Number of pairs written out of order by ``p``.

    >>> inversions((3, 1, 2, 4))
    2
    """
    return sum(itertools.starmap(operator.gt, itertools.combinations(p, 2)))


def increasing_suffix_length(p: tuple[int, ...]) -> int:
    """Length of the longest increasing run ending at position ``b``.

    This is the largest ``l`` with ``p(b-l+1) < ... < p(b)``; it controls
    how few distinct balls a card sequence realizing ``p`` can throw.

    >>> increasing_suffix_length((2, 4, 1, 3))
    2
    >>> increasing_suffix_length((1, 2, 3))
    3
    """
    b = len(p)
    l = 1
    while l < b and p[b - l - 1] < p[b - l]:
        l += 1
    return l


# ---------------------------------------------------------------------------
# cards


class _Value:
    """Base of the package's immutable records.  A subclass lists its fields
    in ``__slots__``, in constructor order, and sets them once: through
    ``_Value.__init__``, or with one ``object.__setattr__`` or slot setter
    each where rows build many.  Records of one class with equal fields are
    equal, and copy and pickle through the constructor, so its checks run
    again."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return self.__class__, tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__reduce__() == other.__reduce__()
        return NotImplemented

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        fields = map("{}={!r}".format, self.__slots__, self.__reduce__()[1])
        return f"{self.__class__.__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Card(_Value):
    """One juggling card over ``b`` balls.

    ``targets`` lists where the bottom ``m`` balls go: the ball entering at
    level ``j`` leaves at level ``targets[j-1]``.  A card of more than
    ``_MAX_LEVELS`` balls is refused before anything is built over its
    levels, and so is every row, since a row holds at least one card.
    Any sequence of targets is stored as a tuple.
    """

    __slots__ = ("b", "targets")

    def __init__(self, b: int, targets: tuple[int, ...]):
        m = len(targets)
        if b < 1:
            raise ValueError(f"need at least one ball, got b={b}")
        if b > _MAX_LEVELS:
            raise ValueError(f"cards hold at most {_MAX_LEVELS} balls, got b={b}")
        if not 1 <= m <= b:
            raise ValueError(f"card throws {m} balls, must be between 1 and {b}")
        if len(set(targets)) != m:
            raise ValueError(f"target levels must be distinct, got {targets}")
        for t in targets:
            if not 1 <= t <= b:
                raise ValueError(f"target level {t} outside 1..{b}")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "targets", tuple(targets))

    @property
    def m(self) -> int:
        return len(self.targets)

    @property
    def is_single_throw(self) -> bool:
        return len(self.targets) == 1

    def __str__(self) -> str:
        return "C" + ",".join(map(str, self.targets))


def single_throw(b: int, i: int) -> Card:
    """The card ``C_i``: bottom ball up to level ``i``."""
    return Card(b, (i,))


_CARD_RE = re.compile(r"^C(\d+(?:,\d+)*)$")


def _targets(text: str) -> tuple[int, ...]:
    m = _CARD_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse card {text!r}, expected e.g. C3 or C2,5")
    return tuple(int(t) for t in m.group(1).split(","))


def parse_card(text: str, b: int) -> Card:
    """Parse card names like ``C3`` or ``C2,5``."""
    return Card(b, _targets(text))


def card_permutation(card: Card) -> tuple[int, ...]:
    """Level map of one card: entry level to exit level.

    >>> card_permutation(single_throw(4, 3))
    (3, 1, 2, 4)
    >>> card_permutation(Card(5, (2, 5)))
    (2, 5, 1, 3, 4)
    """
    thrown = set(card.targets).__contains__
    return card.targets + tuple(itertools.filterfalse(thrown, range(1, card.b + 1)))


def card_crossings(card: Card) -> int:
    """Track crossings inside one card, drawn with no wasted crossings.

    These are the inversions of :func:`card_permutation`: those among
    the thrown balls, plus, for each thrown ball, the unthrown balls
    that land below its target.

    >>> card_crossings(Card(5, (2, 5)))
    4
    """
    t = card.targets
    m = len(t)
    return sum(t) - m * (m + 1) // 2 + inversions(t)


# ---------------------------------------------------------------------------
# sequences


class CardSequence(_Value):
    """A nonempty left-to-right row of cards over the same ``b`` balls,
    stored as a tuple."""

    __slots__ = ("b", "cards")

    def __init__(self, b: int, cards: tuple[Card, ...]):
        if not cards:
            raise ValueError("card sequence must hold at least one card")
        for c in cards:
            if c.b != b:
                raise ValueError(f"card {c} is over {c.b} balls, sequence over {b}")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "cards", tuple(cards))

    @property
    def n(self) -> int:
        return len(self.cards)

    def __str__(self) -> str:
        return " ".join(_per_card(self, str))


def _sequences(b: int, rows):
    """A :class:`CardSequence` over ``b`` balls for each tuple of cards in
    ``rows``, one at a time, built without the per-card check: for rows
    whose cards all come from one family over ``b``.  Copies and pickles
    still go through the checked constructor."""
    new, set_b, set_cards = object.__new__, CardSequence.b.__set__, CardSequence.cards.__set__
    for cards in rows:
        seq = new(CardSequence)
        set_b(seq, b)
        set_cards(seq, cards)
        yield seq


def sequence_of(b: int, *throws) -> CardSequence:
    """Build a sequence from target levels; ints give single throws.

    >>> str(sequence_of(4, 3, 3, 2))
    'C3 C3 C2'
    >>> str(sequence_of(5, (2, 5), 1))
    'C2,5 C1'
    """
    cards = tuple(
        Card(b, t if isinstance(t, tuple) else (t,)) for t in throws
    )
    return CardSequence(b, cards)


def parse_sequence(text: str, b: int) -> CardSequence:
    """Parse a whitespace-separated row of card names."""
    names = text.split()
    if not names:
        raise ValueError("empty card sequence")
    card = {name: parse_card(name, b) for name in dict.fromkeys(names)}
    return CardSequence(b, tuple(card[name] for name in names))


def _highest_target(text: str) -> int:
    """The highest target level in a row of card names, read by the
    grammar of :func:`parse_card`, so the fewest balls the row fits; 0
    for a row with no cards, which :func:`parse_sequence` refuses."""
    return max((max(_targets(name)) for name in text.split()), default=0)


def sequence_permutation(seq: CardSequence) -> tuple[int, ...]:
    """The level map of the whole row, leftmost card applied first."""
    return inverse(final_arrangement(seq))


def _per_card(seq: CardSequence, work):
    """``work(card)`` for each card of ``seq`` in row order, computed once
    per distinct card.  Cards are told apart by their targets, which hash
    in C, where hashing a :class:`Card` runs ``__reduce__``."""
    keys = [c.targets for c in seq.cards]
    done = dict(zip(keys, seq.cards))
    for t, card in done.items():
        done[t] = work(card)
    return map(done.__getitem__, keys)


def apply_card(arrangement: tuple[int, ...], card: Card) -> tuple[int, ...]:
    """Push one arrangement (balls listed bottom to top) through a card.

    The unthrown balls are copied and each of the ``m`` thrown balls is
    inserted at its target, lowest first.  This is the one forward
    definition of a card: rows fold it card by card, and the census
    engine's move ``composer(inverse(card_permutation(card)))`` is a
    second definition that the tests check against it.
    """
    targets = card.targets
    if len(arrangement) != card.b:
        raise ValueError("arrangement size does not match card")
    new = list(arrangement)
    del new[: len(targets)]
    for t, ball in sorted(zip(targets, arrangement)):
        new.insert(t - 1, ball)
    return tuple(new)


def arrangement_history(seq: CardSequence) -> tuple[tuple[int, ...], ...]:
    """Arrangements before the first card and after each card, in order.

    Starts from the sorted stack (ball ``j`` at level ``j``), so the entry
    after the last card is ``final_arrangement(seq)``.  An accumulation of
    :func:`apply_card`, one call per card.
    """
    return tuple(itertools.accumulate(seq.cards, apply_card, initial=identity_perm(seq.b)))


def final_arrangement(seq: CardSequence) -> tuple[int, ...]:
    """Ball order, bottom to top, after the last card.

    Equals the inverse of ``sequence_permutation`` read as a tuple: the
    ball at level ``j`` is the one whose start level maps to ``j``.  A
    fold of :func:`apply_card` that holds one arrangement, so its memory
    stays O(b) however many distinct cards the row has.
    """
    return functools.reduce(apply_card, seq.cards, identity_perm(seq.b))


def throw_pattern(seq: CardSequence) -> tuple[tuple[int, ...], ...]:
    """Balls thrown by each card, bottom throw first.

    Every entry of the result is a tuple, of length 1 for single-throw
    cards.
    """
    history = arrangement_history(seq)
    return tuple(arr[: len(card.targets)] for arr, card in zip(history, seq.cards))


def single_throws(pattern: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Flatten a single-throw pattern to one ball per card."""
    for entry in pattern:
        if len(entry) != 1:
            raise MultiplexError(f"throw {entry} is not a single throw")
    return tuple(entry[0] for entry in pattern)


def crossings(seq: CardSequence) -> int:
    """Total track crossings of the row: :func:`card_crossings` summed
    over the cards, computed once per distinct card."""
    return sum(_per_card(seq, card_crossings))


def reduced_pattern(pattern: tuple[int, ...]) -> tuple[int, ...]:
    """Collapse runs of equal consecutive throws to a single throw.

    >>> reduced_pattern((1, 1, 1, 2, 2, 2, 1, 3, 3, 3, 3, 2, 2, 4))
    (1, 2, 1, 3, 2, 4)
    """
    return tuple(ball for ball, _ in itertools.groupby(pattern))


def is_primitive(seq: CardSequence) -> bool:
    """True when no card is ``C_1`` (throw the bottom ball back to level 1)."""
    return all(c.targets != (1,) for c in seq.cards)


def uses_top_throw(seq: CardSequence) -> bool:
    """True when some card is ``C_b``."""
    return any(c.targets == (seq.b,) for c in seq.cards)


# ---------------------------------------------------------------------------
# siteswaps

def _level_map(card: Card) -> tuple[int, ...]:
    """:func:`card_permutation` of a single-throw card.  Distinct cards
    come in row order, so the first multiplex card of a row is named."""
    if not card.is_single_throw:
        raise MultiplexError(f"siteswap is undefined for multiplex card {card}")
    return card_permutation(card)


def siteswap_of(seq: CardSequence) -> tuple[int, ...]:
    """Throw heights obtained by cycling the row.

    ``t_i`` is the number of cards after which the ball thrown by card
    ``i`` is back at the bottom, reading the row cyclically.  Only defined
    for single-throw sequences.

    >>> siteswap_of(sequence_of(3, 3, 3, 3))
    (3, 3, 3)
    """
    perms = list(_per_card(seq, _level_map))
    n = seq.n
    heights = []
    for i in range(n):
        level = 1
        t = 0
        while True:  # every n cards permute the levels: 1 is back within b*n
            level = perms[(i + t) % n][level - 1]
            t += 1
            if level == 1:
                break
        heights.append(t)
    return tuple(heights)


def verify_siteswap(heights: tuple[int, ...]) -> tuple[bool, int | None]:
    """Check the landing rule; return validity and the ball count.

    A height list is juggleable when no two throws land at the same time,
    that is when ``i + t_i`` are pairwise distinct mod ``n``.  The ball
    count of a valid pattern is the average height.
    """
    n = len(heights)
    if n == 0:
        raise ValueError("empty siteswap")
    for t in heights:
        if not isinstance(t, int) or t < 1:
            raise ValueError(f"throw heights must be positive integers, got {t!r}")
    if _landing_clash(heights) is not None:
        return False, None
    # distinct landings are 0..n-1 mod n, so the heights sum to 0 mod n
    return True, sum(heights) // n


def _landing_clash(heights: tuple[int, ...]) -> tuple[int, int] | None:
    """The first two throws, as 0-based ``(i, j)`` with ``i < j``, that land
    at the same time mod ``n``: ``j`` is the first throw whose landing an
    earlier throw ``i`` already took.  ``None`` when no two throws clash."""
    n = len(heights)
    seen: dict[int, int] = {}
    for j, t in enumerate(heights):
        i = seen.setdefault((j + t) % n, j)
        if i != j:
            return i, j
    return None


# ---------------------------------------------------------------------------
# reconstruction, one card at a time

def _unthrow(
    right: tuple[int, ...], thrown: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The left side and the targets of the card that throws ``thrown``
    and leaves ``right``, a tuple; see :func:`backward_step`."""
    m = len(thrown)
    if m == 1:
        (ball,) = thrown
        try:
            i = right.index(ball)
        except ValueError:
            pass  # the loop below names the missing ball
        else:
            return (ball,) + right[:i] + right[i + 1 :], (i + 1,)
    elif len(set(thrown)) != m:
        raise ValueError(f"thrown balls must be distinct, got {thrown}")
    targets = []
    for ball in thrown:
        try:
            targets.append(right.index(ball) + 1)
        except ValueError:
            raise ValueError(f"ball {ball} does not appear on the right side") from None
    rest = list(right)
    for t in sorted(targets, reverse=True):
        del rest[t - 1]
    return tuple(thrown) + tuple(rest), tuple(targets)


def backward_step(
    right: tuple[int, ...], thrown: tuple[int, ...]
) -> tuple[tuple[int, ...], Card]:
    """Recover the card and left arrangement from its right side.

    ``thrown`` lists the balls the card threw, ordered by the level they
    came from (bottom first).  The card's targets are then forced: the
    ball thrown from level ``j`` sits at its target level in ``right``,
    and the unthrown balls keep their relative order below the thrown
    ones removed.  Listing ``thrown`` in level order (bottom to top in
    ``right``) gives the order-preserving card, whose targets are sorted.
    ``right`` must list each of ``1..b`` once (the decodes check their
    target once and skip this wrapper).  One thrown ball is found with
    one ``index`` and cut out with two slices.
    """
    _check_perm(right, len(right), "right side")
    left, targets = _unthrow(tuple(right), thrown)
    return left, Card(len(right), targets)
