"""Enumeration and census of card sequences.

A census walks one table of state ids, one state per (arrangement, top
seen, bottom seen, balls thrown), so its cost grows with the reachable
states instead of the ``b^n`` rows.  Each state lists its child ids once,
the first time a layer reaches it, and a count pushes integers over
those ids one card at a time.  Crossings are not part of a state: under
a crossing filter each weight is a polynomial in the crossings, packed
one coefficient to a fixed number of bits in one int, so a card is a
shift and the budget one mask.  Collecting (:func:`census_rows`) walks
the same table with (state id, crossings so far) keys.  Two passes of
small-int bitsets over the ids, forward from the start and backward from
the accepted states, find the live keys, those some accepted row passes
through, before any move is built; the move graph holds only the live
keys and the moves between them.  The rows stream in tree-walk order: a
depth-first walk to a split depth, each prefix followed by the
completions listed backwards from the accepted keys.  Memory holds the
move graph, tails no larger than the moves out of every reached key,
and one row.
The moves carry a label per card of the family, so a row is one tuple
of labels: :func:`census_rows` labels with the family's cards and wraps
each tuple as a :class:`CardSequence` without checking its cards again,
and the command line labels with the cards' names and writes each row
by joining them.

Rows of uniform ordered ``m``-throw cards that reach a permutation
depend only on the length of its increasing suffix, so the
per-permutation and cycle tallies of those families, and the lumped
exact walk in :mod:`jugglecards.stochastic`, read one table,
:func:`_lumped_table`: each suffix class gets its counts from
:func:`jugglecards.counting.gen_stirling`, and only the reachable
permutations are listed.  Unordered multi-throw families tally the
census engine's final layer, which stays the oracle for the table.

:func:`_census_from` is the brute-force oracle the tests pin the
engine to: it walks every row on an explicit stack, prunes nothing, and
tests each filter once per row, at its leaf.  It moves the balls with
:func:`jugglecards.cards.apply_card`, from each card's targets, and
reads a card's crossings as the inversions of its level map, where the
engine composes level maps and sums the closed form
:func:`jugglecards.cards.card_crossings`, so the two check two
definitions of a card against each other.  The closed forms in
:mod:`jugglecards.counting` and the maps in :mod:`jugglecards.bijections`
are checked against both over small ranges.  The structure listings at
the end walk explicit stacks too, so no input meets the recursion limit;
they import :mod:`jugglecards.bijections` when first run, so a census
never loads it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from jugglecards.cards import (
    _MAX_LEVELS,
    _MAX_ROW,
    _Value,
    _check_perm,
    _cycle_tally,
    _sequences,
    Card,
    CardSequence,
    apply_card,
    card_crossings,
    card_permutation,
    composer,
    identity_perm,
    increasing_suffix_length,
    inverse,
    inversions,
)

_MAX_SUPPORT = 10**6  # permutations an exact table or walk may hold


def _check_family(b: int, m: int, ordered: bool) -> None:
    """Refuse a malformed family, or one past ``_MAX_LEVELS`` levels (``b``
    per card), counted one factor at a time: a huge ``perm(b, m)`` takes seconds."""
    if b < 1:
        raise ValueError(f"need at least one ball, got b={b}")
    if not 1 <= m <= b:
        raise ValueError(f"cards throw m={m} balls, must be between 1 and b={b}")
    levels = b
    for i in range(m if ordered else min(m, b - m)):
        if levels > _MAX_LEVELS:
            break
        levels = levels * (b - i) // (1 if ordered else i + 1)
    if levels > _MAX_LEVELS:
        raise ValueError(f"cards throwing {m} of {b} balls are too many to list")


def throw_cards(b: int, m: int = 1, ordered: bool = True) -> tuple[Card, ...]:
    """Every card throwing ``m`` of ``b`` balls.

    ``ordered`` distinguishes all ``m``-permutations of target levels
    from just the ascending ones (which preserve the thrown balls'
    relative order).  A family past ``_MAX_LEVELS`` levels is refused.
    """
    _check_family(b, m, ordered)
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


class CensusQuery(_Value):
    """Filters for a census over all sequences of ``n`` cards on ``b`` balls.

    ``m`` and ``ordered`` pick the card family.  The remaining fields are
    optional filters: ``perm`` the exact one-line permutation the
    sequence must realize, ``crossings`` / ``max_crossings`` an exact or
    upper crossing count (both apply when both are set), ``primitive`` whether ``C_1`` is banned (True)
    or required (False), ``uses_top`` likewise for ``C_b``, and
    ``thrown`` the exact number of distinct balls thrown.  A row of more
    than ``_MAX_ROW`` cards is refused before any layer is built.
    """

    __slots__ = ("b", "n", "m", "ordered", "perm", "crossings", "max_crossings", "primitive",
                 "uses_top", "thrown")

    def __init__(
        self, b: int, n: int, m: int = 1, ordered: bool = True,
        perm: tuple[int, ...] | None = None, crossings: int | None = None,
        max_crossings: int | None = None, primitive: bool | None = None,
        uses_top: bool | None = None, thrown: int | None = None,
    ):
        super().__init__(b, n, m, ordered, perm, crossings, max_crossings, primitive, uses_top,
                         thrown)
        _check_family(self.b, self.m, self.ordered)
        if self.n < 1:
            raise ValueError(f"need at least one card, got n={self.n}")
        if self.n > _MAX_ROW:
            raise ValueError(f"rows hold at most {_MAX_ROW} cards, got n={self.n}")
        if self.perm is not None:
            _check_perm(self.perm, self.b, "perm")
        for name in ("crossings", "max_crossings", "thrown"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")


def _census_from(query: CensusQuery, collect: bool):
    """The brute-force census of ``query``: the oracle for :func:`census`.

    Walks every row of the family depth first on an explicit stack and
    prunes nothing; children pop in family order, so rows come in
    tree-walk order.  A node carries its cards, the arrangement they
    reach by :func:`jugglecards.cards.apply_card`, their crossings (per
    card, the inversions of its level map) and the balls they threw.
    Each of the six filters is tested once, at the leaf.
    """
    q = query
    cards = [(c, inversions(card_permutation(c))) for c in throw_cards(q.b, q.m, q.ordered)]
    cards.reverse()  # pushed last, the first card pops first
    bottom, top = Card(q.b, (1,)), Card(q.b, (q.b,))
    target = inverse(q.perm) if q.perm is not None else None
    found = []
    stack = [((), identity_perm(q.b), 0, frozenset())]
    while stack:
        row, arr, cr, thrown = stack.pop()
        if len(row) < q.n:
            thrown = thrown.union(arr[: q.m])
            stack.extend(
                (row + (card,), apply_card(arr, card), cr + delta, thrown)
                for card, delta in cards
            )
        elif (
            (target is None or arr == target)
            and (q.crossings is None or cr == q.crossings)
            and (q.max_crossings is None or cr <= q.max_crossings)
            and (q.primitive is None or q.primitive == (bottom not in row))
            and (q.uses_top is None or q.uses_top == (top in row))
            and (q.thrown is None or len(thrown) == q.thrown)
        ):
            found.append(row)
    return tuple(CardSequence(q.b, row) for row in found) if collect else len(found)


class _Census:
    """The census of ``query`` on one table of state ids.

    A state is (arrangement, top seen, bottom seen, bitmask of the balls
    thrown), with no crossing count.  A flag that no filter reads starts
    true and stays true, and the bitmask stays 0 unless ``track_thrown``
    or a ``thrown`` filter keeps it, so parts no filter reads never split
    a state.  ``keys[i]`` is the state with id ``i``, the start being 0.
    :meth:`row` gives a state's child ids, one per allowed card in family
    order; ``table`` keeps each row as a tuple of ids, built the first
    time a layer reaches its state past the thrown-count prune.

    A count carries crossings as powers of x, ``width`` bits per
    coefficient of one int.  A card crossing ``delta`` times shifts a
    weight by ``width * delta``, and ``& keep`` drops the powers past
    ``budget``: the tighter crossing filter, cut to ``n`` times the most
    any allowed card crosses.  Fewer than ``2**(width - 1)`` rows exist,
    so no coefficient carries into the next.  Without a crossing filter
    every card counts 0 crossings and the budget is 0.  Collecting walks
    the same table with ``(id, crossings so far)`` keys and builds moves
    only between the live ones (:meth:`move_graph`).
    """

    def __init__(self, query: CensusQuery, track_thrown: bool = False):
        q = self.query = query
        self.cards = throw_cards(q.b, q.m, q.ordered)
        self.keys = [(identity_perm(q.b), q.uses_top is not True, q.primitive is not False, 0)]
        self.ids = {self.keys[0]: 0}
        self.table: dict[int, tuple[int, ...]] = {}  # id -> its row
        self.track_thrown = track_thrown or q.thrown is not None
        self.target = inverse(q.perm) if q.perm is not None else None
        limits = [c for c in (q.crossings, q.max_crossings) if c is not None]
        self.steps = []
        for i, card in enumerate(self.cards):
            is_bottom, is_top = card.targets == (1,), card.targets == (q.b,)
            if not ((q.primitive is True and is_bottom) or (q.uses_top is False and is_top)):
                # the ball at level l moves to level perm[l-1]
                move = composer(inverse(card_permutation(card)))
                delta = card_crossings(card) if limits else 0
                self.steps.append((i, move, delta, is_top, is_bottom))
        # no row crosses more often than n times its most crossing card
        self.budget = min(limits + [q.n * max((d for _, _, d, _, _ in self.steps), default=0)])
        self.width = q.n * len(self.cards).bit_length() + 1
        self.keep = (1 << self.width * (self.budget + 1)) - 1

    def row(self, sid: int, depth: int) -> tuple[int, ...]:
        """Child ids of state ``sid`` at ``depth``, one per allowed card in
        family order; none once its thrown count can no longer end at
        ``thrown`` with the cards after this one."""
        q = self.query
        arr, top, bottom, mask = self.keys[sid]
        if self.track_thrown:
            mask |= sum(1 << ball for ball in arr[: q.m])
            if q.thrown is not None and not (
                    q.thrown - (q.n - depth - 1) * q.m <= mask.bit_count() <= q.thrown):
                return ()
        kids = self.table.get(sid)
        if kids is None:
            kids = []
            for _, move, _, is_top, is_bottom in self.steps:
                key = (move(arr), top or is_top, bottom or is_bottom, mask)
                kids.append(self.ids.setdefault(key, len(self.keys)))
                if kids[-1] == len(self.keys):
                    self.keys.append(key)
            kids = self.table[sid] = tuple(kids)
        return kids

    def accepts(self, sid: int) -> bool:
        arr, top, bottom, mask = self.keys[sid]
        return (self.target in (None, arr) and top and bottom
                and self.query.thrown in (None, mask.bit_count()))

    def step(self, layer: dict, depth: int) -> dict:
        """One card: ``{id: weight}`` at ``depth`` to the next layer's.
        Each weight is cut to the budget before it moves, and a state
        with nothing left moves nowhere."""
        nxt: dict = {}
        get = nxt.get
        shifts = [self.width * delta for _, _, delta, _, _ in self.steps]
        for sid, weight in layer.items():
            weight &= self.keep
            for kid, shift in zip(self.row(sid, depth) if weight else (), shifts):
                nxt[kid] = get(kid, 0) + (weight << shift)
        return nxt

    def final_layer(self) -> dict:
        """``{id: weight}`` after all ``n`` cards: the rows reaching each
        state, packed by their crossings.  The powers past the budget
        that the last card shifted in are not masked yet."""
        return functools.reduce(self.step, range(self.query.n), {0: 1})

    def count(self) -> int:
        total = sum(w for sid, w in self.final_layer().items() if self.accepts(sid)) & self.keep
        # The budget is at most ``crossings``, so the shift leaves that one
        # coefficient, or none; without it, all of them.  As 2**width is 1
        # modulo 2**width - 1, the remainder sums what is left, and that
        # sum, a count of rows, is below the modulus.
        return (total >> self.width * (self.query.crossings or 0)) % ((1 << self.width) - 1)

    def move_graph(self, labels) -> tuple[list, int, dict]:
        """``(graph, split, tails)``: per depth, each live key's moves into
        live keys as ``(label, child)`` pairs in family order,
        ``labels[i]`` standing for the family's card ``i``, and every
        completion of each live key at depth ``split`` (at least 1) as a
        tuple of labels.  A key is ``(id, crossings so far)`` and is live
        when some accepted row passes through it.

        Two passes of small-int bitsets over the ids find the live keys
        before any move is built.  Forward, bit ``c`` of ``reach[d][id]``
        is set when ``d`` cards take the start to ``id`` with ``c``
        crossings within the budget.  Backward over the ids each depth
        reaches, bit ``c`` of ``ahead[d][id]`` is set when ``c`` more
        crossings take ``id`` to an accepted state.  An edge pass then
        walks from the root, through the keys whose ``ahead`` bits,
        shifted by their crossings, meet the crossings wanted, and builds
        the moves between them.  Each ``reach`` layer goes once the
        backward pass has read it, and each ``ahead`` layer once the edge
        pass has.

        A cell is one label in one listed tail.  The room is the count of
        moves within the budget over every reached key, live or not; the
        tails are listed backwards from the accepted keys and stop before
        the level whose cells would take the running total past the
        room, so they never outgrow the moves a full build would make (a
        bound on the tails alone would let one ball list n²/2 cells).
        """
        n, budget, crossings = self.query.n, self.budget, self.query.crossings
        full = (1 << budget + 1) - 1
        want = full if crossings is None else full & 1 << crossings  # none past the budget
        deltas = [delta for _, _, delta, _, _ in self.steps]
        # per card, the crossings so far it can add its own to within the budget
        fits = [(1 << budget - delta + 1) - 1 if delta <= budget else 0 for delta in deltas]
        reach, room = [{0: 1}], 0
        for depth in range(n):
            nxt: dict = {}
            get = nxt.get
            for sid, bits in reach[-1].items():
                for kid, delta, fit in zip(self.row(sid, depth), deltas, fits):
                    if fitting := bits & fit:
                        room += fitting.bit_count()
                        nxt[kid] = get(kid, 0) | fitting << delta
            reach.append(nxt)
        later = {sid: 1 for sid in reach.pop() if self.accepts(sid)}
        ahead = [later]
        for depth in reversed(range(n)):
            layer = {}
            for sid in reach.pop():
                bits = 0
                for kid, delta in zip(self.row(sid, depth), deltas):
                    bits |= later.get(kid, 0) << delta
                if bits := bits & full:
                    layer[sid] = bits
            ahead.append(layer)
            later = layer
        graph, frontier = [], [(0, 0)] if ahead.pop().get(0, 0) & want else []
        for depth in range(n):
            later = ahead.pop()
            edges = {(sid, cr): [
                (labels[i], (kid, cr + delta))
                for (i, _, delta, _, _), kid in zip(self.steps, self.row(sid, depth))
                if later.get(kid, 0) << cr + delta & want
            ] for sid, cr in frontier}
            graph.append(edges)
            frontier = {c for kids in edges.values() for _, c in kids}
        split, tails = n, dict.fromkeys(frontier, ((),))
        for depth in reversed(range(1, n)):
            edges = graph[depth]
            cells = (n - depth) * sum(len(tails[c]) for kids in edges.values() for _, c in kids)
            if cells > room:
                break
            room -= cells
            split = depth
            tails = {
                state: [(label,) + tail for label, child in kids for tail in tails[child]]
                for state, kids in edges.items()
            }
        return graph, split, tails

    def rows(self, labels):
        """Accepted rows in tree-walk order, one tuple of labels at a time:
        ``labels[i]`` wherever a row holds the family's card ``i``.

        Builds :meth:`move_graph`, which holds only live keys and lists
        every completion of those at a split depth.  A depth-first walk
        over the moves from the root down to that depth, with a stack of
        iterators (no recursion, so any ``n`` works) and one shared
        prefix, yields the prefix followed by each tail of the key it
        reaches; every key it enters has a row, and with no accepted row
        the graph holds no root and nothing is yielded.  Memory holds the
        move graph, tails no larger than the moves out of every reached
        key, and one row.
        """
        graph, split, tails = self.move_graph(labels)
        prefix = []
        stack = [iter(graph[0].get((0, 0), ()))]
        while stack:
            for label, child in stack[-1]:
                prefix.append(label)
                if len(prefix) == split:
                    head = tuple(prefix)
                    for tail in tails[child]:
                        yield head + tail
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
    position), the order of :func:`_census_from`.  The search, two
    bitset passes that find the live keys and one that builds the moves
    between them, runs before the first row; after it, memory holds the
    move graph of live keys, tails no larger than the moves out of every
    reached key, and one row, so listings far larger than memory can be
    streamed.  The walk yields tuples of the family's cards,
    each wrapped without re-checking its cards' ``b``.
    """
    engine = _Census(query)
    return _sequences(query.b, engine.rows(engine.cards))


def census(query: CensusQuery, collect: bool = False, jobs: int | None = None):
    """Count (or collect) all sequences matching ``query``.

    Both walk one table of state ids in this process.  A count pushes
    integers over the ids, each a polynomial in the crossings when a
    crossing filter is set, whose budget is first cut to ``n`` times the
    most any allowed card crosses.  Collecting returns
    ``tuple(census_rows(query))``: the walk streams rows in tree-walk
    order over moves built only between live keys, holding that move
    graph, tails no larger than the moves out of every reached key, and
    one row.  ``jobs`` is ignored (it must still be nonnegative); it
    stays only for the benchmark's ``jobs2_speedup`` probe and goes with
    it.
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

    Ordered families, and single throws either way, read
    :func:`_lumped_table`: a permutation with increasing suffix ``s`` is
    reached by ``js_count(s, n, b, m)`` rows, so only the ``b`` suffix
    classes are counted and the reachable permutations listed.  With
    ``by_thrown`` the keys are ``(perm, k)`` with ``k`` the number of
    distinct balls thrown, reached by ``gen_stirling(n, k, m)`` rows for
    each ``k`` from ``b - s`` (at least 1) to ``b``.  Unordered
    multi-throw families run the census engine with no filters and read
    each final arrangement as a permutation; tests pin the table to that
    engine and to a tally over :func:`all_sequences`.  Either way a
    table past ``_MAX_SUPPORT`` permutations raises ``ValueError``
    before anything is counted.

    >>> table = count_by_permutation(3, 2)
    >>> [table[p] for p in sorted(table)]
    [2, 1, 2, 1, 2, 1]
    >>> count_by_permutation(3, 2, by_thrown=True)[(1, 2, 3), 1]
    1
    """
    query = CensusQuery(b=b, n=n, m=m, ordered=ordered)
    if not ordered and m > 1:
        _check_support(b, n, _support_bound(b, n, m))
        return _census_by_permutation(query, by_thrown)
    if not by_thrown:
        return _lumped_table(b, n, m, lambda ks: sum(ks.values()))
    table = _lumped_table(b, n, m, dict)
    return {(perm, k): ways for perm, ks in table.items() for k, ways in ks.items()}


def _census_by_permutation(query: CensusQuery, by_thrown: bool) -> dict:
    """:func:`count_by_permutation` from the census engine's final layer."""
    out: dict = {}
    engine = _Census(query, by_thrown)
    for sid, ways in engine.final_layer().items():
        arr, _, _, mask = engine.keys[sid]
        key = (inverse(arr), mask.bit_count()) if by_thrown else inverse(arr)
        out[key] = out.get(key, 0) + ways
    return out


def _suffix_classes(b: int, n: int, m: int) -> dict[int, dict[int, int]]:
    """``{s: {k: rows}}``: the rows of ``n`` uniform ordered ``m``-throw
    cards landing on one permutation with increasing suffix ``s``, by
    the number ``k`` of distinct balls they throw.

    The permutation needs its ``b - s`` head balls thrown, and the rows
    throwing exactly ``k`` balls number ``gen_stirling(n, k, m)`` for
    every ``k`` from ``b - s`` (at least 1) to ``b``, so the sum over
    ``k`` is ``js_count(s, n, b, m)``.  Only the classes some row
    reaches, ``s >= b - nm``, are keyed.
    """
    from jugglecards.counting import gen_stirling

    rows = {k: ways for k in range(1, b + 1) if (ways := gen_stirling(n, k, m))}
    return {
        s: {k: ways for k, ways in rows.items() if k >= b - s}
        for s in range(max(1, b - n * m), b + 1)
    }


def _support_bound(b: int, n: int, m: int) -> int:
    """How many permutations ``n`` cards of at most ``m`` throws reach:
    those whose increasing suffix is at least ``b - nm`` long, capped
    once the count is sure to pass ``_MAX_SUPPORT``.

    The count is ``(b)_k`` with ``k = min(b - 1, nm)``, or 0 for no
    points, and every one of its factors is at least 2, so at most
    ``_MAX_SUPPORT.bit_length()`` of them are multiplied: the result is
    the full count up to ``_MAX_SUPPORT`` and passes it whenever the full
    count does, at no cost for any ``b``."""
    return math.perm(b, max(0, min(b - 1, n * m, _MAX_SUPPORT.bit_length())))


def _check_support(b: int, n: int, support: int) -> None:
    """Refuse a table of ``support`` permutations past ``_MAX_SUPPORT``."""
    if support > _MAX_SUPPORT:
        raise ValueError(
            f"a table of the permutations of {b} points reached in {n} steps "
            f"would hold more than {_MAX_SUPPORT} permutations"
        )


def _lumped_table(b: int, n: int, m: int, value) -> dict:
    """``{perm: value(rows)}`` over the permutations of ``1..b`` that ``n``
    uniform ordered ``m``-throw cards reach, ``rows`` being the
    ``{k: rows}`` of the permutation's suffix class from
    :func:`_suffix_classes`.

    ``value`` runs once per class and its result is shared by the
    class.  A permutation with suffix ``s`` needs ``b - s`` distinct
    balls thrown and ``n`` cards throw at most ``nm``, so the reachable
    ones end in an increasing tail of ``b - nm`` points (at least one)
    after any order of the others: each tail from
    ``itertools.combinations`` behind each ``itertools.permutations`` of
    the head.  A support past ``_MAX_SUPPORT`` permutations raises
    ``ValueError`` before anything is counted or listed.
    """
    _check_support(b, n, _support_bound(b, n, m))
    per_class = {s: value(ks) for s, ks in _suffix_classes(b, n, m).items()}
    least = max(1, b - n * m)
    points = range(1, b + 1)
    support = []
    for tail in itertools.combinations(points, least):
        head = [x for x in points if x not in tail]
        support.extend(map(operator.add, itertools.permutations(head), itertools.repeat(tail)))
    classes = map(increasing_suffix_length, support)
    return dict(zip(support, map(per_class.__getitem__, classes)))


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

    Tallies the cycle counts of :func:`count_by_permutation`, which for
    single throws reads the suffix-class table; tests pin it to a tally
    over :func:`all_sequences`.
    """
    return _cycle_tally(count_by_permutation(b, n))


def enumerate_set_partitions(n: int, k: int | None = None):
    """All partitions of 1..n (into ``k`` blocks if given), blocks by minima.

    A depth-first walk on an explicit stack places 1, 2, ..., n in turn,
    each into the open blocks in order and then into a new block, and
    drops a branch as soon as it can no longer end with ``k`` blocks.

    >>> list(enumerate_set_partitions(3, 2))
    [((1, 2), (3,)), ((1, 3), (2,)), ((1,), (2, 3))]
    """
    stack = [(1, ())]
    while stack:
        x, blocks = stack.pop()
        if k is not None and not len(blocks) <= k <= len(blocks) + n + 1 - x:
            continue
        if x > n:
            yield blocks
            continue
        stack.append((x + 1, blocks + ((x,),)))
        for i in reversed(range(len(blocks))):
            stack.append((x + 1, blocks[:i] + (blocks[i] + (x,),) + blocks[i + 1 :]))


def enumerate_noncrossing_partitions(n: int, k: int | None = None):
    """The partitions from :func:`enumerate_set_partitions` with no crossing."""
    from jugglecards.bijections import is_noncrossing

    yield from filter(is_noncrossing, enumerate_set_partitions(n, k))


def enumerate_dyck_words(n: int):
    """All balanced-parenthesis words with ``n`` opening brackets, in
    lexicographic order with ``(`` first.

    >>> list(enumerate_dyck_words(3))
    ['((()))', '(()())', '(())()', '()(())', '()()()']
    """
    stack = [("", 0)]  # a prefix and its opening brackets
    while stack:
        word, opened = stack.pop()
        if len(word) == 2 * n:
            yield word
            continue
        if 2 * opened > len(word):
            stack.append((word + ")", opened))
        if opened < n:
            stack.append((word + "(", opened + 1))


def _product_prefixes(choices, n: int, keep):
    """The tuples of ``itertools.product(choices, repeat=n)``, in order,
    whose every prefix passes ``keep``; a failing prefix is not extended."""
    stack = [()]
    while stack:
        prefix = stack.pop()
        if not keep(prefix):
            continue
        if len(prefix) == n:
            yield prefix
            continue
        stack.extend(prefix + (choice,) for choice in reversed(choices))


def enumerate_2covers(n: int, k: int):
    """Canonical 2-covers of ``n`` columns by ``k`` rows.

    Columns have weight two and no row is zero; one representative (rows
    sorted) per row multiset, since relabeling the virtual balls only
    permutes rows.  A prefix of columns is dropped once its rows are out
    of order or more rows are still zero than two per column left.
    """
    from jugglecards.bijections import CoverMatrix, _incidence

    def keep(cols):
        prefix = _incidence(k, cols)
        zero = prefix.count((0,) * len(cols))
        return zero <= 2 * (n - len(cols)) and prefix == tuple(sorted(prefix))

    pairs = list(itertools.combinations(range(1, k + 1), 2))
    for cols in _product_prefixes(pairs, n, keep):
        yield CoverMatrix(_incidence(k, cols))


def enumerate_labeled_digraphs(n: int, k: int):
    """All loopless multi-digraphs with arcs labeled 1..n covering 1..k; a
    prefix of arcs is dropped once it leaves over two vertices per arc left."""
    from jugglecards.bijections import LabeledDigraph

    def keep(combo):
        return k - len({v for arc in combo for v in arc}) <= 2 * (n - len(combo))

    arcs = [(t, h) for t in range(1, k + 1) for h in range(1, k + 1) if t != h]
    for combo in _product_prefixes(arcs, n, keep):
        yield LabeledDigraph(k, combo)
