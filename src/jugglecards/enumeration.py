"""Enumeration and census of card sequences.

Counts come from one exact state-transfer engine, :func:`transfer`,
which pushes weights over states one card at a time.  A census walks
states (arrangement, crossings so far, top seen, bottom seen, balls
thrown), so its cost grows with the reachable states per layer instead
of the ``b^n`` rows.  Collecting (:func:`census_rows`) runs the same
layers, keeps only the moves into states that can still reach an
accepted row, and streams the rows depth-first in tree-walk order, so
memory holds the move graph and one row.  The per-permutation and
cycle tallies use the same layers, and :mod:`jugglecards.stochastic`
runs its exact walk on :func:`transfer`.

:func:`_census_from` is the brute-force oracle: a plain tree walk over
every row, which the tests pin the engine to.  The closed forms in
:mod:`jugglecards.counting` and the maps in :mod:`jugglecards.bijections`
are checked against both over small ranges.  The structure oracles at
the end import :mod:`jugglecards.bijections` when first run, so a census
never loads it.
"""

from __future__ import annotations

import dataclasses
import itertools

from jugglecards.cards import (
    Card,
    CardSequence,
    card_crossings,
    card_permutation,
    composer,
    cycle_count,
    identity_perm,
    inverse,
)


def transfer(layer: dict, moves) -> dict:
    """One card of the exact state-transfer engine.

    Maps ``{state: weight}`` to ``{state: weight}``: each ``(child,
    factor)`` pair in ``moves(state)`` adds ``weight * factor`` to
    ``child``.  Weights may be ints or fractions.
    """
    nxt: dict = {}
    get = nxt.get
    for state, weight in layer.items():
        for child, factor in moves(state):
            nxt[child] = get(child, 0) + weight * factor
    return nxt


def throw_cards(b: int, m: int = 1, ordered: bool = True) -> tuple[Card, ...]:
    """Every card throwing ``m`` of ``b`` balls.

    ``ordered`` distinguishes all ``m``-permutations of target levels
    from just the ascending ones (which preserve the thrown balls'
    relative order).
    """
    if b < 1:
        raise ValueError(f"need at least one ball, got b={b}")
    if not 1 <= m <= b:
        raise ValueError(f"cards throw m={m} balls, must be between 1 and b={b}")
    if ordered:
        picks = itertools.permutations(range(1, b + 1), m)
    else:
        picks = itertools.combinations(range(1, b + 1), m)
    return tuple(Card(b, targets) for targets in picks)


def all_sequences(b, n, cards=None):
    """Iterate over every length-``n`` sequence built from ``cards``."""
    if cards is None:
        cards = throw_cards(b)
    for combo in itertools.product(cards, repeat=n):
        yield CardSequence(b, combo)


@dataclasses.dataclass(frozen=True)
class CensusQuery:
    """Filters for a census over all sequences of ``n`` cards on ``b`` balls.

    ``m`` and ``ordered`` pick the card family.  The remaining fields are
    optional filters: ``perm`` the exact one-line permutation the
    sequence must realize, ``crossings`` / ``max_crossings`` an exact or
    upper crossing count (both apply when both are set), ``primitive`` whether ``C_1`` is banned (True)
    or required (False), ``uses_top`` likewise for ``C_b``, and
    ``thrown`` the exact number of distinct balls thrown.
    """

    b: int
    n: int
    m: int = 1
    ordered: bool = True
    perm: tuple[int, ...] | None = None
    crossings: int | None = None
    max_crossings: int | None = None
    primitive: bool | None = None
    uses_top: bool | None = None
    thrown: int | None = None

    def __post_init__(self):
        if self.b < 1:
            raise ValueError(f"need at least one ball, got b={self.b}")
        if self.n < 1:
            raise ValueError(f"need at least one card, got n={self.n}")
        if not 1 <= self.m <= self.b:
            raise ValueError(f"cards throw m={self.m} balls, must be between 1 and b={self.b}")
        if self.perm is not None and sorted(self.perm) != list(range(1, self.b + 1)):
            raise ValueError(f"perm {self.perm} is not a permutation of 1..{self.b}")
        for name in ("crossings", "max_crossings", "thrown"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")


def _budget(query: CensusQuery) -> int | None:
    """The crossing count no row may exceed, from both crossing filters."""
    limits = [c for c in (query.crossings, query.max_crossings) if c is not None]
    return min(limits) if limits else None


def _census_from(query: CensusQuery, collect: bool):
    cards = throw_cards(query.b, query.m, query.ordered)
    perms = [card_permutation(c) for c in cards]
    deltas = [card_crossings(c) for c in cards]
    is_bottom = [c.targets == (1,) for c in cards]
    is_top = [c.targets == (query.b,) for c in cards]
    budget = _budget(query)
    target_arr = inverse(query.perm) if query.perm is not None else None
    found: list[CardSequence] = []
    count = 0

    def leaf_ok(arr, cr, top_seen, bottom_seen, thrown):
        if target_arr is not None and arr != target_arr:
            return False
        if query.crossings is not None and cr != query.crossings:
            return False
        if query.uses_top is True and not top_seen:
            return False
        if query.primitive is False and not bottom_seen:
            return False
        if query.thrown is not None and len(thrown) != query.thrown:
            return False
        return True

    def walk(depth, arr, cr, top_seen, bottom_seen, thrown, prefix):
        nonlocal count
        if depth == query.n:
            if leaf_ok(arr, cr, top_seen, bottom_seen, thrown):
                count += 1
                if collect:
                    found.append(CardSequence(query.b, tuple(prefix)))
            return
        if query.thrown is not None:
            left = (query.n - depth) * query.m
            if len(thrown) > query.thrown or len(thrown) + left < query.thrown:
                return
        for i in range(len(cards)):
            if query.primitive is True and is_bottom[i]:
                continue
            if query.uses_top is False and is_top[i]:
                continue
            cr2 = cr + deltas[i]
            if budget is not None and cr2 > budget:
                continue
            prefix.append(cards[i])
            walk(
                depth + 1,
                _apply(arr, perms[i]),
                cr2,
                top_seen or is_top[i],
                bottom_seen or is_bottom[i],
                thrown | set(arr[: query.m]),
                prefix,
            )
            prefix.pop()

    walk(0, identity_perm(query.b), 0, False, False, set(), [])
    return tuple(found) if collect else count


def _apply(arr, perm):
    # send the ball at level l to level perm[l-1]
    out = [0] * len(arr)
    for level, ball in enumerate(arr):
        out[perm[level] - 1] = ball
    return tuple(out)


class _Census:
    """The census of ``query`` as states and moves for :func:`transfer`.

    A state is (arrangement, crossings so far, top seen, bottom seen,
    bitmask of the balls thrown).  Parts that no filter reads stay
    constant, so they never split a state.  ``track_thrown`` keeps the
    bitmask even without a ``thrown`` filter.
    """

    def __init__(self, query: CensusQuery, track_thrown: bool = False):
        self.query = query
        self.cards = throw_cards(query.b, query.m, query.ordered)
        self.start = (identity_perm(query.b), 0, False, False, 0)
        self.budget = _budget(query)
        self.track_top = query.uses_top is True
        self.track_bottom = query.primitive is False
        self.track_thrown = track_thrown or query.thrown is not None
        self.target = inverse(query.perm) if query.perm is not None else None
        self.steps = []
        for i, card in enumerate(self.cards):
            is_bottom = card.targets == (1,)
            is_top = card.targets == (query.b,)
            if (query.primitive is True and is_bottom) or (query.uses_top is False and is_top):
                continue
            # the ball at level l moves to level perm[l-1]
            move = composer(inverse(card_permutation(card)))
            delta = card_crossings(card) if self.budget is not None else 0
            self.steps.append(
                (i, move, delta, self.track_top and is_top, self.track_bottom and is_bottom)
            )

    def children(self, state, left: int) -> list:
        """``(card index, child)`` for every card allowed from ``state``.

        Cards come in family order; children over the crossing budget, or
        whose thrown count can no longer end at ``thrown`` with ``left``
        more balls thrown, are pruned.
        """
        arr, cr, top, bottom, mask = state
        if self.track_thrown:
            for ball in arr[: self.query.m]:
                mask |= 1 << ball
            thrown = self.query.thrown
            if thrown is not None:
                k = mask.bit_count()
                if k > thrown or k + left < thrown:
                    return []
        budget = self.budget
        return [
            (i, (move(arr), cr + delta, top or is_top, bottom or is_bottom, mask))
            for i, move, delta, is_top, is_bottom in self.steps
            if budget is None or cr + delta <= budget
        ]

    def left(self, depth: int) -> int:
        """Balls the cards after the one at ``depth`` can still throw."""
        return (self.query.n - depth - 1) * self.query.m

    def accepts(self, state) -> bool:
        arr, cr, top, bottom, mask = state
        q = self.query
        return (
            (self.target is None or arr == self.target)
            and (q.crossings is None or cr == q.crossings)
            and (top or not self.track_top)
            and (bottom or not self.track_bottom)
            and (q.thrown is None or mask.bit_count() == q.thrown)
        )

    def final_layer(self) -> dict:
        """Rows reaching each state after all ``n`` cards."""
        layer = {self.start: 1}
        for depth in range(self.query.n):
            left = self.left(depth)
            layer = transfer(layer, lambda s: [(c, 1) for _, c in self.children(s, left)])
        return layer

    def count(self) -> int:
        return sum(ways for state, ways in self.final_layer().items() if self.accepts(state))

    def rows(self):
        """Accepted rows in tree-walk order, one at a time.

        Runs the forward layers, keeps the moves into states that can
        still reach an accepted row, then walks those moves depth-first
        with a stack of iterators (no recursion, so any ``n`` works) and
        one shared prefix: memory holds the move graph and one row.
        """
        graph = []  # per depth: state -> its moves, (card, child) once pruned
        frontier = {self.start}
        for depth in range(self.query.n):
            left = self.left(depth)
            edges = {state: self.children(state, left) for state in frontier}
            graph.append(edges)
            frontier = {c for kids in edges.values() for _, c in kids}
        live = {s for s in frontier if self.accepts(s)}
        for edges in reversed(graph):
            for state, kids in edges.items():
                kids[:] = [(self.cards[i], c) for i, c in kids if c in live]
            live = {s for s, kids in edges.items() if kids}
        if self.start not in live:
            return
        b, n = self.query.b, self.query.n
        prefix = []
        stack = [iter(graph[0][self.start])]
        while stack:
            for card, child in stack[-1]:
                prefix.append(card)
                if len(prefix) == n:
                    yield CardSequence(b, tuple(prefix))
                    prefix.pop()
                else:
                    stack.append(iter(graph[len(prefix)][child]))
                    break
            else:
                stack.pop()
                if prefix:
                    prefix.pop()


def census_rows(query: CensusQuery):
    """Yield the sequences matching ``query`` one at a time.

    Rows come in tree-walk order (cards in family order at each
    position), the order of :func:`_census_from`.  The search runs
    before the first row; after it, memory holds the move graph and one
    row, so listings far larger than memory can be streamed.
    """
    return _Census(query).rows()


def census(query: CensusQuery, collect: bool = False, jobs: int | None = None):
    """Count (or collect) all sequences matching ``query``.

    Both run the state-transfer engine in this process.  Collecting
    returns ``tuple(census_rows(query))``: the walk streams rows in
    tree-walk order, holding the move graph and one row.  ``jobs`` is
    ignored (it must still be nonnegative); it stays only for the
    benchmark's ``jobs2_speedup`` probe and goes with it.
    """
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be nonnegative, got {jobs}")
    if collect:
        return tuple(census_rows(query))
    return _Census(query).count()


def count_by_permutation(
    b: int, n: int, m: int = 1, ordered: bool = True, by_thrown: bool = False
) -> dict:
    """Sequence counts keyed by realized permutation.

    Runs the census engine with no filters and reads each final
    arrangement as a permutation, so it stays cheap for ``n`` far beyond
    exhaustive reach.  With ``by_thrown`` the keys are ``(perm, k)`` with
    ``k`` the number of distinct balls thrown.  Tests pin the engine to
    :func:`_census_from`, the brute-force oracle, and this table to a
    tally over :func:`all_sequences`.
    """
    layer = _Census(CensusQuery(b=b, n=n, m=m, ordered=ordered), by_thrown).final_layer()
    out: dict = {}
    for (arr, _, _, _, mask), ways in layer.items():
        key = (inverse(arr), mask.bit_count()) if by_thrown else inverse(arr)
        out[key] = out.get(key, 0) + ways
    return out


def brute_js(sigma: tuple[int, ...], n: int, b: int, m: int = 1) -> int:
    """Exhaustively count sequences realizing the permutation ``sigma``.

    Oracle for the closed-form :func:`jugglecards.counting.js_count`;
    ``m > 1`` searches over ordered ``m``-subset cards.
    """
    return _census_from(CensusQuery(b=b, n=n, m=m, perm=tuple(sigma)), False)


def enumerate_plus(
    b: int, n: int, d: int, primitive: bool = False
) -> tuple[CardSequence, ...]:
    """All single-throw sequences with ``d`` crossings above the minimum.

    They fix the sorted stack and use the full-height throw; with
    ``primitive`` the do-nothing card ``C_1`` is banned as well.
    """
    if d < 0 or d % 2:
        raise ValueError(f"crossing surplus must be even and nonnegative, got {d}")
    query = CensusQuery(
        b=b,
        n=n,
        perm=identity_perm(b),
        crossings=b * (b - 1) + d,
        uses_top=True,
        primitive=True if primitive else None,
    )
    return census(query, collect=True)


def enumerate_minimal(b: int, n: int) -> tuple[CardSequence, ...]:
    """All single-throw sequences with the fewest crossings ``b(b-1)``.

    They fix the sorted stack, use the full-height throw, and every pair
    of balls crosses exactly twice.
    """
    return enumerate_plus(b, n, 0)


def enumerate_plus_two(b: int, n: int) -> tuple[CardSequence, ...]:
    """Like :func:`enumerate_minimal` but with two extra crossings."""
    return enumerate_plus(b, n, 2)


def cycle_census(b: int, n: int) -> dict[int, int]:
    """How many of the ``b^n`` single-throw sequences have each cycle count.

    Tallies the cycle counts of :func:`count_by_permutation`, which runs
    the census engine; tests pin it to a tally over :func:`all_sequences`.
    """
    tally: dict[int, int] = {}
    for perm, ways in count_by_permutation(b, n).items():
        l = cycle_count(perm)
        tally[l] = tally.get(l, 0) + ways
    return tally


def enumerate_set_partitions(n: int, k: int | None = None):
    """All partitions of 1..n (into ``k`` blocks if given), blocks by minima."""

    def extend(x, blocks):
        if x > n:
            if k is None or len(blocks) == k:
                yield tuple(tuple(block) for block in blocks)
            return
        for block in blocks:
            block.append(x)
            yield from extend(x + 1, blocks)
            block.pop()
        if k is None or len(blocks) < k:
            blocks.append([x])
            yield from extend(x + 1, blocks)
            blocks.pop()

    yield from extend(1, [])


def enumerate_noncrossing_partitions(n: int, k: int | None = None):
    """The partitions from :func:`enumerate_set_partitions` with no crossing."""
    from jugglecards.bijections import is_noncrossing

    for blocks in enumerate_set_partitions(n, k):
        if is_noncrossing(blocks):
            yield blocks


def enumerate_dyck_words(n: int):
    """All balanced-parenthesis words with ``n`` opening brackets."""
    if n == 0:
        yield ""
        return
    for inner in range(n):
        for left in enumerate_dyck_words(inner):
            for right in enumerate_dyck_words(n - 1 - inner):
                yield "(" + left + ")" + right


def enumerate_2covers(n: int, k: int):
    """Canonical 2-covers of ``n`` columns by ``k`` rows.

    Columns have weight two and no row is zero; one representative (rows
    sorted) per row multiset, since relabeling the virtual balls only
    permutes rows.
    """
    from jugglecards.bijections import CoverMatrix

    pairs = list(itertools.combinations(range(k), 2))
    for cols in itertools.product(pairs, repeat=n):
        rows = tuple(
            tuple(1 if i in col else 0 for col in cols) for i in range(k)
        )
        if any(not any(row) for row in rows):
            continue
        if rows != tuple(sorted(rows)):
            continue
        yield CoverMatrix(rows)


def enumerate_labeled_digraphs(n: int, k: int):
    """All loopless multi-digraphs with arcs labeled 1..n covering 1..k."""
    from jugglecards.bijections import LabeledDigraph

    arcs = [(t, h) for t in range(1, k + 1) for h in range(1, k + 1) if t != h]
    for combo in itertools.product(arcs, repeat=n):
        used = {v for arc in combo for v in arc}
        if len(used) == k:
            yield LabeledDigraph(k, combo)
