"""Bijections between card sequences and other combinatorial structures.

Card sequences starting from the sorted stack correspond to set
partitions (which ball is thrown when), ordered set families and
edge-labeled digraphs (multiplex throws), 0/1 cover matrices and
multigraphs (order-preserving throws), and Dyck paths (fewest-crossing
sequences).  Each correspondence here comes as a pair of maps; the test
suite drives them around in both directions over exhaustive small ranges.

A partition is read as its canonical throw pattern, and the stack scan
that writes a pattern's Dyck word runs to the end exactly on the
Narayana family: noncrossing partitions and fewest-crossing patterns.

Conventions: patterns and partitions index card positions from 1;
arrangements list balls bottom to top; a "canonical" pattern or family
names its balls 1..k in order of first appearance.
"""

from __future__ import annotations

from jugglecards.cards import (
    Card,
    CardSequence,
    _Value,
    _check_perm,
    _unthrow,
    crossings,
    identity_perm,
    increasing_suffix_length,
    inverse,
    is_identity,
    sequence_permutation,
    single_throws,
    throw_pattern,
    uses_top_throw,
)

Blocks = tuple[tuple[int, ...], ...]
Family = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# set partitions from single-throw sequences


def sequence_to_partition(seq: CardSequence) -> Blocks:
    """Group card positions by the ball thrown there.

    Starting from the sorted stack the balls are first thrown in
    increasing order, so block ``i`` (holding the positions where ball
    ``i`` was thrown) automatically has the ``i``-th smallest minimum.
    """
    blocks: dict[int, list[int]] = {}
    for j, ball in enumerate(single_throws(throw_pattern(seq)), start=1):
        blocks.setdefault(ball, []).append(j)
    thrown = sorted(blocks)
    assert thrown == list(range(1, len(thrown) + 1)), "balls must appear in order"
    return tuple(tuple(blocks[i]) for i in thrown)


def _blocks_to_pattern(blocks: Blocks) -> tuple[int, ...]:
    """The canonical throw pattern: position ``j`` holds its block's number.
    Blocks must be nonempty and sorted, partition 1..n and come in the
    order of their minima, which is the pattern being canonical."""
    owner: dict[int, int] = {}
    for i, block in enumerate(blocks, start=1):
        if not block:
            raise ValueError("empty block in partition")
        if list(block) != sorted(block):
            raise ValueError(f"block {block} is not sorted")
        owner.update(dict.fromkeys(block, i))
    n = max(owner, default=0)
    if len(owner) != sum(map(len, blocks)) or owner.keys() != set(range(1, n + 1)):
        raise ValueError("blocks must partition 1..n")
    pattern = tuple(owner[j] for j in range(1, n + 1))
    if pattern != canonical_pattern(pattern):
        raise ValueError("blocks must be ordered by their minima")
    return pattern


def _row(b: int, steps: list[tuple[int, ...]]) -> CardSequence:
    """The row over ``b`` balls whose cards, read right to left, have the
    targets ``steps``; one :class:`Card` per distinct targets tuple."""
    card = {targets: Card(b, targets) for targets in set(steps)}
    return CardSequence(b, tuple(card[targets] for targets in reversed(steps)))


def _rebuild(
    family: Family, target: tuple[int, ...], b: int, counted: str
) -> CardSequence:
    """The row over ``b`` balls throwing ``family[j-1]`` at card ``j`` and
    ending at ``target``, built right to left one
    :func:`~jugglecards.cards.backward_step` at a time.

    ``family`` names its balls 1..k.  The count ``k`` must satisfy
    ``b - L <= k <= b`` where ``L`` is the increasing-suffix length of the
    target's level map; outside that range no row exists and the
    ValueError counts the balls as ``counted``.  Fewer than one ball is
    refused first, in :class:`~jugglecards.cards.Card`'s words.
    """
    if b < 1:
        raise ValueError(f"need at least one ball, got b={b}")
    _check_perm(target, b, "target")
    k = max(max(entry) for entry in family)
    low = b - increasing_suffix_length(inverse(tuple(target)))
    if not low <= k <= b:
        raise ValueError(
            f"{k} {counted} cannot reach this arrangement; need {max(low, 1)}..{b}"
        )
    right = tuple(target)
    steps = []
    for entry in reversed(family):
        right, targets = _unthrow(right, entry)
        steps.append(targets)
    assert right == identity_perm(b), "backward construction must end sorted"
    return _row(b, steps)


def partition_to_sequence(
    blocks: Blocks, target: tuple[int, ...], b: int
) -> CardSequence:
    """The unique single-throw sequence throwing ball ``i`` at ``blocks[i-1]``.

    ``target`` is the required final arrangement over ``b`` balls.  The
    block count ``k`` must satisfy ``b - L <= k <= b`` where ``L`` is the
    increasing-suffix length of the target's level map; outside that
    range no sequence exists and a ValueError is raised.
    """
    if not blocks:
        raise ValueError("partition needs at least one block")
    return _rebuild(tuple((i,) for i in _blocks_to_pattern(blocks)), target, b, "blocks")


def is_noncrossing(blocks: Blocks) -> bool:
    """No two blocks interleave as a < b < c < d with a,c and b,d split.

    That is the Dyck scan of its throw pattern running to the end: the
    scan stacks open balls by latest throw, so a ball coming back after
    a later-thrown one closed over it is such an a < b < c < d.

    >>> is_noncrossing(((1, 4), (2, 3)))
    True
    >>> is_noncrossing(((1, 3), (2, 4)))
    False
    """
    return _pattern_to_dyck(_blocks_to_pattern(blocks)) is not None


# ---------------------------------------------------------------------------
# ordered families from multiplex sequences


def canonicalize_family(family: Family, k: int | None = None) -> Family:
    """Relabel symbols as 1..k in order of first appearance.

    With ``k`` given, it is an error for some of the ``k`` symbols never
    to occur.

    >>> canonicalize_family(((7, 2), (2, 7), (2, 5)))
    ((1, 2), (2, 1), (2, 3))
    """
    if not family:
        raise ValueError("family needs at least one entry")
    for entry in family:
        if not entry:
            raise ValueError("empty entry in family")
        if len(set(entry)) != len(entry):
            raise ValueError(f"repeated symbol in entry {entry}")
    pattern = canonical_pattern(tuple(sym for entry in family for sym in entry))
    if k is not None and max(pattern) != k:
        raise ValueError(f"family uses {max(pattern)} of {k} declared symbols")
    labels = iter(pattern)
    return tuple(tuple(next(labels) for _ in entry) for entry in family)


def sequence_to_family(seq: CardSequence) -> Family:
    """Balls thrown by each card, bottom throw first; canonical as-is."""
    family = throw_pattern(seq)
    assert family == canonicalize_family(family), "first throws must be in order"
    return family


def family_to_sequence(family: Family, target: tuple[int, ...], b: int) -> CardSequence:
    """The unique sequence throwing exactly ``family[j-1]`` at card ``j``.

    ``family`` must be canonical; its symbols are the thrown balls.  As
    with partitions, the symbol count is constrained by the increasing
    suffix of the target's level map.
    """
    if family != canonicalize_family(family):
        raise ValueError("family must be canonical (symbols 1..k in first-use order)")
    return _rebuild(family, target, b, "thrown balls")


# ---------------------------------------------------------------------------
# edge-labeled digraphs


def _check_pairs(pairs, k: int, name: str) -> None:
    """Refuse any of ``pairs`` that is not two distinct vertices of 1..k,
    calling it a ``name``: its length first, then its range, then a loop."""
    for pair in pairs:
        if len(pair) != 2:
            raise ValueError(f"{name} {pair} is not a pair")
        u, v = pair
        if not (1 <= u <= k and 1 <= v <= k):
            raise ValueError(f"{name} ({u},{v}) outside vertices 1..{k}")
        if u == v:
            raise ValueError(f"loop at vertex {u}")


class LabeledDigraph(_Value):
    """Loopless multi-digraph on vertices 1..k with arcs in label order."""

    __slots__ = ("k", "arcs")

    def __init__(self, k: int, arcs: tuple[tuple[int, int], ...]):
        super().__init__(k, arcs)
        if self.k < 1:
            raise ValueError("need at least one vertex")
        if not self.arcs:
            raise ValueError("need at least one arc")
        _check_pairs(self.arcs, self.k, "arc")

    @property
    def n(self) -> int:
        return len(self.arcs)


def digraph_to_family(g: LabeledDigraph) -> Family:
    """Read arcs as ordered pairs (tail, head), then canonicalize.

    Every vertex must carry at least one arc end.
    """
    return canonicalize_family(g.arcs, k=g.k)


def family_to_digraph(family: Family) -> LabeledDigraph:
    """Inverse of :func:`digraph_to_family` on canonical pair families."""
    if family != canonicalize_family(family):
        raise ValueError("family must be canonical")
    k = max(max(entry) for entry in family)
    _check_pairs(family, k, "entry")
    return LabeledDigraph(k, family)


# ---------------------------------------------------------------------------
# cover matrices and order-preserving sequences


class CoverMatrix(_Value):
    """0/1 matrix whose column ``j`` marks the balls thrown at time ``j``.

    Rows are virtual balls, columns card positions; every column sums to
    the same ``m`` (each time exactly ``m`` balls go up) and no row is
    all zero (every virtual ball is thrown eventually).
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        super().__init__(rows)
        if not self.rows:
            raise ValueError("cover needs at least one row")
        n = len(self.rows[0])
        if n < 1:
            raise ValueError("cover needs at least one column")
        for row in self.rows:
            if len(row) != n:
                raise ValueError("ragged cover matrix")
            if row.count(0) + row.count(1) != n:
                raise ValueError("cover entries must be 0 or 1")
            if not any(row):
                raise ValueError("cover has an all-zero row")
        sums = set(map(sum, zip(*self.rows)))
        if len(sums) != 1:
            raise ValueError(f"column sums differ: {sorted(sums)}")

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @property
    def m(self) -> int:
        return sum(row[0] for row in self.rows)


def cover_partial_order(M: CoverMatrix) -> tuple[tuple[int, ...], ...]:
    """Order the virtual balls from the cover, bottom class first.

    Ball ``u`` sits below ``v`` when the first column separating them
    (containing exactly one of the two) contains ``u``, that is when row
    ``u`` is lexicographically larger; equal rows are never separated and
    share a class.  So the classes are the distinct rows, largest first.

    >>> cover_partial_order(CoverMatrix(((1, 0), (0, 1), (1, 0), (0, 1))))
    ((1, 3), (2, 4))
    """
    classes: dict[tuple[int, ...], list[int]] = {}
    for ball, row in enumerate(M.rows, start=1):
        classes.setdefault(tuple(row), []).append(ball)
    return tuple(tuple(classes[row]) for row in sorted(classes, reverse=True))


def cover_canonical_order(M: CoverMatrix) -> tuple[int, ...]:
    """The order's flattening with equivalent balls by row index."""
    return tuple(x for cls in cover_partial_order(M) for x in cls)


def cover_to_sequence(
    M: CoverMatrix,
    terminal: tuple[int, ...],
    initial: tuple[int, ...] | None = None,
) -> tuple[CardSequence, tuple[int, ...]]:
    """Build the unique order-preserving sequence realizing the cover.

    ``terminal`` gives the virtual balls bottom to top after the last
    card.  The starting arrangement is forced: classes follow the cover's
    order and equivalent balls keep the terminal's relative order (they
    are always thrown together, so their order never changes).  It is
    returned alongside the cards.  Each card comes from
    :func:`backward_step` with its column's balls listed in level order,
    which is what makes it order-preserving.

    Passing ``initial`` asserts the expected start; it is rejected if it
    differs from the forced arrangement, naming the first equivalent pair
    it orders differently from ``terminal`` if there is one.
    """
    k = M.k
    _check_perm(terminal, k, "terminal")
    order = cover_partial_order(M)
    if initial is not None:
        _check_perm(initial, k, "initial")
    right = tuple(terminal)
    steps = []
    for j in range(M.n - 1, -1, -1):
        thrown = tuple(ball for ball in right if M.rows[ball - 1][j])
        right, targets = _unthrow(right, thrown)
        steps.append(targets)
    start = right
    expected = tuple(
        x for cls in order for x in sorted(cls, key=terminal.index)
    )
    assert start == expected, "start must follow the cover's order"
    if initial is not None and initial != start:
        for cls in order:  # a reordered equivalent pair always moves initial off start
            by_initial = [x for x in initial if x in cls]
            by_terminal = [x for x in terminal if x in cls]
            for u, v in zip(by_initial, by_terminal):
                if u != v:
                    raise ValueError(
                        f"equivalent balls {u} and {v} cannot change relative order"
                    )
        raise ValueError(f"cover forces the start {start}, not {tuple(initial)}")
    return _row(k, steps), start


def _incidence(k: int, columns) -> tuple[tuple[int, ...], ...]:
    """The 0/1 rows of vertices 1..k against ``columns``, each a
    collection of those vertices: row ``v`` has a 1 where ``v`` is in
    the column.  One write per incidence, not one test per cell."""
    rows = [[0] * len(columns) for _ in range(k)]
    for j, column in enumerate(columns):
        for v in column:
            rows[v - 1][j] = 1
    return tuple(map(tuple, rows))


def sequence_to_cover(seq: CardSequence) -> CoverMatrix:
    """Incidence matrix of balls (rows) against card positions (columns).

    Requires every ball to be thrown at least once and all cards to
    throw the same number of balls.
    """
    return CoverMatrix(_incidence(seq.b, throw_pattern(seq)))


def cover_to_multigraph(M: CoverMatrix) -> tuple[tuple[int, int], ...]:
    """Edges (one per column) of the multigraph behind a 2-cover."""
    if M.m != 2:
        raise ValueError(f"multigraph view needs column sums 2, got {M.m}")
    edges = []
    for j in range(M.n):
        u, v = (i + 1 for i, row in enumerate(M.rows) if row[j])
        edges.append((u, v))
    return tuple(edges)


def multigraph_to_cover(k: int, edges: tuple[tuple[int, int], ...]) -> CoverMatrix:
    """Incidence matrix of a loopless multigraph with labeled edges."""
    if not edges:
        raise ValueError("need at least one edge")
    _check_pairs(edges, k, "edge")
    return CoverMatrix(_incidence(k, edges))


# ---------------------------------------------------------------------------
# fewest-crossing sequences and Dyck paths


def _minimal_fault(seq: CardSequence) -> str | None:
    """The first fewest-crossing condition ``seq`` fails, in words, or None."""
    b = seq.b
    if not all(c.is_single_throw for c in seq.cards):
        return "multiplex cards are not allowed"
    if not uses_top_throw(seq):
        return f"the top card C{b} is never used"
    if not is_identity(sequence_permutation(seq)):
        return "the balls do not return to their starting levels"
    if (count := crossings(seq)) != b * (b - 1):
        return f"crossing number is {count}, not {b * (b - 1)}"
    return None


def is_minimal(seq: CardSequence) -> bool:
    """Single-throw, fixes the sorted stack, uses ``C_b``, crossings ``b(b-1)``."""
    return _minimal_fault(seq) is None


def _pattern_to_dyck(pattern: tuple[int, ...]) -> str | None:
    """The stack scan of :func:`minimal_to_dyck` on a throw pattern, or
    None when a ball comes back after its card was closed.  A canonical
    pattern is fewest-crossing exactly when the scan finishes: ``)`` only
    closes down to a ball thrown again at once, and new balls come in
    first-use order, so :func:`dyck_to_pattern` gives the pattern back."""
    open_: dict[int, bool] = {}  # balls seen, True while their card is open
    stack: list[int] = []  # balls of the open cards, each at most once
    out: list[str] = []
    for ball in pattern:
        if ball in open_:
            if not open_[ball]:
                return None
            closed = None
            while closed != ball:
                closed = stack.pop()
                open_[closed] = False
                out.append(")")
        open_[ball] = True
        stack.append(ball)
        out.append("(")
    out.append(")" * len(stack))
    return "".join(out)


def minimal_to_dyck(seq: CardSequence) -> str:
    """Balanced parentheses for a fewest-crossing sequence.

    Every card opens a ``(``.  A card throwing a ball thrown before first
    closes the open cards down to that ball's previous throw; cards still
    open at the end close last.  This is the recursive ``(B)C`` cut at
    ball 1's second throw, ``B`` the cards in between and ``C`` the rest,
    unrolled with a stack; the single card ``C_1`` maps to ``()``.
    """
    if not is_minimal(seq):
        raise ValueError("can only encode a fewest-crossing sequence")
    return _pattern_to_dyck(single_throws(throw_pattern(seq)))


def dyck_to_pattern(word: str) -> tuple[int, ...]:
    """Throw pattern of the fewest-crossing sequence behind a Dyck word.

    Every ``(`` is a card.  Right after a ``)`` it throws the ball of the
    card that ``)`` closed; anywhere else it throws a new ball.  A word
    that is not balanced parentheses raises ValueError naming its first
    fault.

    >>> dyck_to_pattern("(()())()")
    (1, 2, 2, 1)
    """
    pattern: list[int] = []
    stack: list[int] = []  # balls of the open cards
    balls = 0
    closed = None  # the ball a ``)`` just closed
    for i, ch in enumerate(word, start=1):
        if ch == "(":
            if closed is None:
                balls += 1
                closed = balls
            pattern.append(closed)
            stack.append(closed)
            closed = None
        elif ch == ")":
            if not stack:
                raise ValueError(f"unmatched ')' at position {i}")
            closed = stack.pop()
        else:
            raise ValueError(f"unexpected character {ch!r} at position {i}")
    if stack:
        raise ValueError(f"{len(stack)} unclosed '('")
    return tuple(pattern)


def dyck_to_minimal(word: str) -> CardSequence | None:
    """Rebuild the fewest-crossing sequence behind balanced parentheses.

    The empty word gives None (the empty sequence); anything unbalanced
    raises.
    """
    pattern = dyck_to_pattern(word)
    return sequence_from_pattern(pattern, max(pattern)) if pattern else None


def dyck_peaks(word: str) -> int:
    """Number of up-down corners, i.e. ``()`` factors."""
    return word.count("()")


# ---------------------------------------------------------------------------
# throw patterns with one extra crossing pair


def canonical_pattern(pattern: tuple[int, ...]) -> tuple[int, ...]:
    """Relabel a throw pattern so balls appear as 1, 2, ... in first use."""
    relabel: dict[int, int] = {}
    for ball in pattern:
        if ball not in relabel:
            relabel[ball] = len(relabel) + 1
    return tuple(relabel[ball] for ball in pattern)


def sequence_from_pattern(pattern: tuple[int, ...], b: int) -> CardSequence:
    """The unique sequence over ``b`` balls fixing the sorted stack while
    throwing ``pattern[j-1]`` at card ``j``.

    The pattern must be canonical; its distinct balls may number at most
    ``b``.
    """
    if pattern != canonical_pattern(pattern):
        raise ValueError("pattern must be canonical (balls 1..k in first-use order)")
    if not pattern:
        raise ValueError("partition needs at least one block")
    return _rebuild(tuple((ball,) for ball in pattern), identity_perm(b), b, "blocks")


def decompose_plus_two(
    pattern: tuple[int, ...], b: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...], int]:
    """Split a two-extra-crossings pattern into four plain parts.

    Cut down to two balls, a fewest-crossing or plus-two pattern falls
    into ``r`` runs, and the two balls cross ``2 * (r // 2)`` times.  So
    the four-crossing pair is the one pair with four runs or more; the
    ends ``i1 < i2 < i3 < i4`` of its first four runs cut the pattern into
    ``P1 = (i1, i2]``, ``P2 = (i2, i3]``, ``P3 = (i3, i4]`` and ``P0`` (the
    rest), each relabelled canonically.  The pattern is accepted only if
    it throws ``b`` balls and :func:`compose_plus_two`, which checks that
    every part is fewest-crossing, joins the parts back into it.  Returns
    ``(P0, P1, P2, P3, i1)``; ``i1`` marks the cut inside ``P0``.

    >>> decompose_plus_two((1, 2, 1, 2), 2)
    ((1,), (1,), (1,), (1,), 1)
    """
    if pattern != canonical_pattern(pattern) or max(pattern, default=0) != b:
        raise ValueError(f"pattern must throw balls 1..{b} in first-use order")
    runs: dict[tuple[int, int], int] = {}
    latest: dict[int, None] = {}  # balls in the order of their latest throw
    for ball in pattern:
        # a new run for the ball and each ball thrown since its last throw
        for other in reversed(latest):
            if other == ball:
                break
            pair = (other, ball) if other < ball else (ball, other)
            runs[pair] = runs.get(pair, 1) + 1
        latest[ball] = latest.pop(ball, None)  # now the latest
    special = [pair for pair, r in runs.items() if r >= 4]
    if len(special) != 1:
        raise ValueError("crossings are not two plus a single four-crossing pair")
    throws = [j for j, ball in enumerate(pattern) if ball in special[0]]
    ends = [j + 1 for j, k in zip(throws, throws[1:]) if pattern[j] != pattern[k]]
    i1, i2, i3, i4 = (ends + [throws[-1] + 1])[:4]
    slices = (pattern[:i1] + pattern[i4:], pattern[i1:i2], pattern[i2:i3], pattern[i3:i4])
    parts = tuple(map(canonical_pattern, slices))
    if compose_plus_two(*parts, i1) != pattern:
        raise ValueError("pattern is not the join of its four parts")
    return (*parts, i1)


def compose_plus_two(
    p0: tuple[int, ...],
    p1: tuple[int, ...],
    p2: tuple[int, ...],
    p3: tuple[int, ...],
    i1: int,
) -> tuple[int, ...]:
    """Inverse of :func:`decompose_plus_two`.

    Takes four canonical patterns that the Dyck scan runs through
    (fewest-crossing) and the cut position ``1 <= i1 <= len(p0)``.  The
    ball at ``p0[i1-1]`` is identified with the last ball of ``p2``, and
    the last balls of ``p1`` and ``p3`` with each other, producing the
    four-crossing pair of the result.

    >>> compose_plus_two((1,), (1,), (1,), (1,), 1)
    (1, 2, 1, 2)
    """
    parts = (p0, p1, p2, p3)
    for part in parts:
        if not part:
            raise ValueError("all four patterns must be nonempty")
        if part != canonical_pattern(part):
            raise ValueError(f"pattern {part} is not canonical")
        if _pattern_to_dyck(part) is None:
            raise ValueError(f"pattern {part} is not a fewest-crossing pattern")
    if not 1 <= i1 <= len(p0):
        raise ValueError(f"cut position {i1} outside 1..{len(p0)}")
    # ball x of part i is (i, x), except for the two shared balls
    shared = {(0, p0[i1 - 1]): "a", (2, p2[-1]): "a", (1, p1[-1]): "z", (3, p3[-1]): "z"}
    w0, w1, w2, w3 = (
        [shared.get((i, x), (i, x)) for x in part] for i, part in enumerate(parts)
    )
    return canonical_pattern(w0[:i1] + w1 + w2 + w3 + w0[i1:])
