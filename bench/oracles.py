"""Reference computations that share no code with the library.

Every benchmark op is checked against a value computed here, or against
a closed form from ``jugglecards.counting``, never against the engine
under test.  Cards are modelled from their definition: a card with
targets ``(t_1, ..., t_m)`` sends the ball entering at level ``j`` to
level ``t_j`` and lets the untouched balls keep their order in the
remaining levels.  Arrangements list balls bottom to top.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

_MASK = (1 << 64) - 1


# ---------------------------------------------------------------------------
# cards and rows


def card_family(b, m=1, ordered=True):
    """Target tuples of every card throwing ``m`` of ``b`` balls."""
    pick = itertools.permutations if ordered else itertools.combinations
    return list(pick(range(1, b + 1), m))


@functools.cache
def level_map(b, targets):
    """Entry level -> exit level of one card, as a tuple."""
    rest = [lv for lv in range(1, b + 1) if lv not in targets]
    return tuple(targets) + tuple(rest[: b - len(targets)])


@functools.cache
def card_crossings(b, targets):
    return inversions(level_map(b, targets))


def inversions(p):
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def push(arr, lmap):
    """Arrangement after a card with level map ``lmap``."""
    out = [0] * len(arr)
    for level, ball in enumerate(arr):
        out[lmap[level] - 1] = ball
    return tuple(out)


def cycle_count(p):
    seen = [False] * len(p)
    count = 0
    for start in range(len(p)):
        if not seen[start]:
            count += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = p[x] - 1
    return count


def invert(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x - 1] = i + 1
    return tuple(inv)


def suffix_length(p):
    """Length of the longest increasing run ending at the last entry."""
    length = 1
    while length < len(p) and p[-length - 1] < p[-length]:
        length += 1
    return length


class Row:
    """A simulated row: targets per card, plus everything derived from them."""

    def __init__(self, b, targets):
        self.b = b
        self.targets = [tuple(t) for t in targets]
        self.n = len(self.targets)
        arr = tuple(range(1, b + 1))
        pattern = []
        self.crossings = 0
        for t in self.targets:
            pattern.append(arr[: len(t)])
            self.crossings += card_crossings(b, t)
            arr = push(arr, level_map(b, t))
        self.pattern = tuple(pattern)
        self.final = arr
        self.perm = invert(arr)
        self.text = " ".join("C" + ",".join(map(str, t)) for t in self.targets)

    def all_thrown(self):
        return {ball for entry in self.pattern for ball in entry} == set(
            range(1, self.b + 1)
        )

    def blocks(self):
        """Card positions grouped by thrown ball (single-throw rows)."""
        thrown = sorted({e[0] for e in self.pattern})
        return tuple(
            tuple(j + 1 for j, e in enumerate(self.pattern) if e[0] == ball)
            for ball in thrown
        )

    def cover_rows(self):
        return tuple(
            tuple(1 if ball in entry else 0 for entry in self.pattern)
            for ball in range(1, self.b + 1)
        )

    def siteswap(self):
        """Cyclic return times of the ball thrown by each card."""
        maps = [level_map(self.b, t) for t in self.targets]
        heights = []
        for i in range(self.n):
            level, t = 1, 0
            while True:
                level = maps[(i + t) % self.n][level - 1]
                t += 1
                if level == 1:
                    break
            heights.append(t)
        return tuple(heights)

    def is_fewest_crossing(self):
        b = self.b
        return (
            all(len(t) == 1 for t in self.targets)
            and (b,) in self.targets
            and self.final == tuple(range(1, b + 1))
            and self.crossings == b * (b - 1)
        )


def row_from_pattern(pattern, b):
    """Targets of the single-throw row that throws ``pattern`` and ends sorted.

    Built backwards from the sorted stack: the card throwing ``ball``
    sent it to the level it holds on the card's right.
    """
    right = list(range(1, b + 1))
    targets = []
    for ball in reversed(pattern):
        level = right.index(ball) + 1
        targets.append((level,))
        right.remove(ball)
        right.insert(0, ball)
    return targets[::-1]


def targets_of(seq):
    """Target tuples of a library ``CardSequence``, read field by field."""
    return [tuple(card.targets) for card in seq.cards]


# ---------------------------------------------------------------------------
# census counts by dynamic programming over arrangements


def census_count(
    b, n, m=1, ordered=True, perm=None, crossings=None, max_crossings=None,
    primitive=None, uses_top=None, thrown=None,
):
    """Rows matching a census filter, counted over (arrangement, ...) states."""
    cards = []
    for t in card_family(b, m, ordered):
        if primitive is True and t == (1,):
            continue
        if uses_top is False and t == (b,):
            continue
        lmap = level_map(b, t)
        cards.append((lmap, inversions(lmap), t == (b,), t == (1,)))
    budget = crossings if crossings is not None else max_crossings
    states = {(tuple(range(1, b + 1)), 0, False, False, frozenset()): 1}
    for _ in range(n):
        nxt = {}
        for (arr, cr, top, bottom, seen), ways in states.items():
            new_seen = seen | frozenset(arr[:m]) if thrown is not None else seen
            for lmap, delta, is_top, is_bottom in cards:
                c2 = cr + delta
                if budget is not None and c2 > budget:
                    continue
                key = (push(arr, lmap), c2 if budget is not None else 0,
                       top or is_top, bottom or is_bottom, new_seen)
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    target = invert(perm) if perm is not None else None
    total = 0
    for (arr, cr, top, bottom, seen), ways in states.items():
        if target is not None and arr != target:
            continue
        if crossings is not None and cr != crossings:
            continue
        if uses_top is True and not top:
            continue
        if primitive is False and not bottom:
            continue
        if thrown is not None and len(seen) != thrown:
            continue
        total += ways
    return total


def cycle_tally(b, n):
    """Cycle-count histogram of all ``b**n`` single-throw rows."""
    maps = [level_map(b, t) for t in card_family(b)]
    states = {tuple(range(1, b + 1)): 1}
    for _ in range(n):
        nxt = {}
        for arr, ways in states.items():
            for lmap in maps:
                key = push(arr, lmap)
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    tally = {}
    for arr, ways in states.items():
        c = cycle_count(arr)
        tally[c] = tally.get(c, 0) + ways
    return tally


# ---------------------------------------------------------------------------
# walks on the symmetric group


def walk_supports(b, m, ordered, steps):
    """Support size of the walk after each of ``steps`` steps."""
    maps = [level_map(b, t) for t in card_family(b, m, ordered)]
    support = {tuple(range(1, b + 1))}
    sizes = []
    for _ in range(steps):
        support = {tuple(lmap[x - 1] for x in p) for p in support for lmap in maps}
        sizes.append(len(support))
    return sizes


def walk_cycle_law(b, m, ordered, weights, steps):
    """Exact cycle-count law of the weighted walk, by integer weights."""
    maps = [level_map(b, t) for t in card_family(b, m, ordered)]
    states = {tuple(range(1, b + 1)): 1}
    for _ in range(steps):
        nxt = {}
        for p, w in states.items():
            for lmap, wc in zip(maps, weights):
                key = tuple(lmap[x - 1] for x in p)
                nxt[key] = nxt.get(key, 0) + w * wc
        states = nxt
    total = sum(weights) ** steps
    law = {}
    for p, w in states.items():
        c = cycle_count(p)
        law[c] = law.get(c, 0) + w
    return {c: Fraction(w, total) for c, w in law.items()}


def within_sigmas(hits, trials, p, z=6):
    """Exact test that ``hits/trials`` lies within ``z`` standard errors of ``p``."""
    d = Fraction(hits, trials) - p
    return d * d * trials <= z * z * p * (1 - p)


# ---------------------------------------------------------------------------
# SplitMix64 streams, restated from the published scheme


def _mix(z):
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def sampled_targets(b, n, m, ordered, weights, seed):
    """Target tuples that a seeded weighted draw of ``n`` cards must give."""
    family = card_family(b, m, ordered)
    edges = list(itertools.accumulate(weights))
    total = edges[-1]
    limit = (1 << 64) - ((1 << 64) % total)
    key, count, out = seed & _MASK, 0, []
    for _ in range(n):
        while True:
            count += 1
            word = _mix((key + count * 0x9E3779B97F4A7C15) & _MASK)
            if word < limit:
                break
        r = word % total
        out.append(family[next(i for i, e in enumerate(edges) if r < e)])
    return out


# ---------------------------------------------------------------------------
# random structures


def random_row(rng, b, n, m=1, ordered=True):
    """A random row that throws every ball, so that it has a cover matrix."""
    family = card_family(b, m, ordered)
    while True:
        row = Row(b, [rng.choice(family) for _ in range(n)])
        if row.all_thrown():
            return row


def random_dyck(rng, semilength):
    """A uniform Dyck word, by the cycle lemma on a random bridge."""
    steps = [1] * (semilength + 1) + [-1] * semilength
    rng.shuffle(steps)
    low, low_at, h = 0, 0, 0
    for i, s in enumerate(steps):
        h += s
        if h <= low:
            low, low_at = h, i + 1
    steps = steps[low_at:] + steps[:low_at]
    return "".join("(" if s > 0 else ")" for s in steps[1:])


def nested_dyck(semilength):
    return "(" * semilength + ")" * semilength


def noncrossing_pattern(rng, n, b):
    """Restricted-growth word of a random noncrossing partition of 1..n into b blocks.

    These are exactly the throw patterns of fewest-crossing rows.
    """
    stack, word, opened = [], [], 0
    for j in range(n):
        need, left = b - opened, n - j
        if need == left or (need > 0 and (not stack or rng.random() < need / left)):
            opened += 1
            stack.append(opened)
            word.append(opened)
        else:
            i = rng.randrange(len(stack))
            word.append(stack[i])
            del stack[i + 1:]
    return tuple(word)
