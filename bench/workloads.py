"""The four workloads, as seeded cycles of ops with their expected results.

A cycle is a fixed list of op slots.  Sizes that set an op's cost are
fixed per slot and span the ranges each workload names, so different
seeds give different inputs of the same cost: the seed draws contents
(permutations, weights, rows, words, stream seeds), not sizes.  Each
op's expected result is computed while the cycle is built, from
:mod:`oracles` or from closed forms in ``jugglecards.counting``; the
ops themselves only call the library through the ``L`` they are given.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import re
from fractions import Fraction
from typing import Callable

import oracles as O


@dataclasses.dataclass
class Op:
    """One closed-loop operation.

    ``call(L, ctx)`` does the timed work; ``check(result, ctx)`` compares
    it with the expected value; ``counters(result)`` gives work counts for
    traced runs.  ``ctx`` is shared by the ops of one cycle, so a decode
    op can hand its output to the encode op that follows it.
    """

    kind: str
    call: Callable
    check: Callable
    counters: Callable | None = None


def equals(expected):
    return lambda result, ctx: result == expected


def _perm(rng, b):
    return tuple(rng.sample(range(1, b + 1), b))


# ---------------------------------------------------------------------------
# census: the exhaustive-count engines


def census_cycle(lib, rng, smoke):
    L, Query = lib.L, lib.CensusQuery
    ops = []

    def count(kind, space, expected, **query):
        q = Query(**query)
        ops.append(Op(
            kind, lambda L, ctx: L.census(q), equals(expected),
            lambda r: {"enumeration.rows_space": space, "enumeration.rows_matched": r},
        ))

    def collect(kind, b, n, d, primitive, expected):
        def check(rows, ctx):
            seen = set()
            for seq in rows:
                row = O.Row(seq.b, O.targets_of(seq))
                if (seq.b != b or row.n != n or row.final != tuple(range(1, b + 1))
                        or row.crossings != b * (b - 1) + d or (b,) not in row.targets
                        or (primitive and (1,) in row.targets)):
                    return False
                seen.add(tuple(row.targets))
            return len(rows) == len(seen) == expected

        ops.append(Op(
            kind,
            (lambda L, ctx: L.enumerate_minimal(b, n)) if d == 0 else
            (lambda L, ctx: L.enumerate_plus(b, n, d, primitive=primitive)),
            check,
            lambda r: {"enumeration.rows_space": b**n, "enumeration.rows_matched": len(r)},
        ))

    def js(sigma, n, m):
        return L.js_count(O.suffix_length(sigma), n, len(sigma), m)

    def cycles(b, n):
        tally = O.cycle_tally(b, n)
        ops.append(Op(
            "cycle_census", lambda L, ctx: L.cycle_census(b, n),
            lambda r, ctx: r == tally and r[1] == b ** (n - 1),
            lambda r: {"enumeration.rows_space": b**n,
                       "enumeration.rows_matched": sum(r.values())},
        ))

    def by_permutation(b, n):
        by_perm, by_thrown = {}, {}
        for sigma in itertools.permutations(range(1, b + 1)):
            ways = js(sigma, n, 1)
            if ways:
                by_perm[sigma] = ways
            for k in range(max(1, b - O.suffix_length(sigma)), b + 1):
                ways = L.gen_stirling(n, k, 1)
                if ways:
                    by_thrown[(sigma, k)] = ways
        ops.append(Op("count_by_permutation",
                      lambda L, ctx: L.count_by_permutation(b, n), equals(by_perm)))
        ops.append(Op("count_by_permutation.thrown",
                      lambda L, ctx: L.count_by_permutation(b, n, by_thrown=True),
                      equals(by_thrown)))

    # (b, n) per slot; smoke shrinks n so every slot runs in milliseconds
    n8, n9, n10, n5 = (3, 4, 5, 3) if smoke else (8, 9, 10, 5)

    count("count.all", 4**n8, 4**n8, b=4, n=n8)
    s = _perm(rng, 4)
    count("count.perm", 4**n9, js(s, n9, 1), b=4, n=n9, perm=s)
    s = _perm(rng, 3)
    count("count.perm", 3**n10, js(s, n10, 1), b=3, n=n10, perm=s)
    # k thrown balls reach sigma in T(n, k) ways when b - suffix(sigma) <= k,
    # which holds for every sigma at k = b - 1; all b! arrangements at k = b
    s = _perm(rng, 4)
    count("count.thrown", 4**n8, L.gen_stirling(n8, 3, 1), b=4, n=n8, perm=s, thrown=3)
    count("count.thrown", 4**n8, L.gen_stirling(n8, 4, 1) * 24, b=4, n=n8, thrown=4)
    for b, n, budget in ((4, n9, 10), (5, n8 - 1, 12)):
        s = _perm(rng, b)
        count("count.max_crossings", b**n,
              O.census_count(b, n, perm=s, max_crossings=budget),
              b=b, n=n, perm=s, max_crossings=budget)
    # the remaining filters, at sizes near the cycle's median op so that
    # op_p50_ms falls among several ops of like cost
    s = _perm(rng, 4)
    count("count.crossings", 4**n9, O.census_count(4, n9, perm=s, crossings=10),
          b=4, n=n9, perm=s, crossings=10)
    for flag in ({"uses_top": True}, {"primitive": False}):
        s = _perm(rng, 4)
        count("count.flags", 4**n8, O.census_count(4, n8, perm=s, **flag),
              b=4, n=n8, perm=s, **flag)
    s = _perm(rng, 3)
    count("count.perm", 3**n10, js(s, n10, 1), b=3, n=n10, perm=s)
    s = _perm(rng, 4)
    count("count.m2_ordered", 12 ** (n5 - 1), js(s, n5 - 1, 2), b=4, n=n5 - 1, m=2, perm=s)
    s = _perm(rng, 3)
    count("count.m2_ordered", 6 ** (n5 + 1), js(s, n5 + 1, 2), b=3, n=n5 + 1, m=2, perm=s)
    s = _perm(rng, 4)
    count("count.m2_unordered", 6 ** (n5 + 1),
          O.census_count(4, n5 + 1, m=2, ordered=False, perm=s),
          b=4, n=n5 + 1, m=2, ordered=False, perm=s)
    count("count.m2_unordered", 6 ** (n5 + 1),
          O.census_count(4, n5 + 1, m=2, ordered=False, perm=(1, 2, 3, 4), thrown=4),
          b=4, n=n5 + 1, m=2, ordered=False, perm=(1, 2, 3, 4), thrown=4)

    collect("collect.minimal", 4, n9, 0, False, L.narayana(4, n9))
    collect("collect.plus2", 3, n10 + 1, 2, False, L.plus_two_count(3, n10 + 1))
    collect("collect.plus2", 4, n8, 2, False, L.plus_two_count(4, n8))
    collect("collect.plus4_primitive", 4, n9, 4, True, L.p4(n9, 4))

    cycles(4, n8)
    by_permutation(6, n10)
    return ops


# ---------------------------------------------------------------------------
# walk: exact and Monte Carlo walks on the symmetric group


def walk_cycle(lib, rng, smoke):
    ops = []
    supports = lib.memo.setdefault("supports", {})

    def support(b, m, ordered, steps):
        key = (b, m, ordered, steps)
        if key not in supports:
            supports[key] = O.walk_supports(b, m, ordered, steps)
        return supports[key]

    def exact(kind, b, steps, m=1, ordered=True, weights=None):
        """Uniform ordered families put mass exactly 1/b on b-cycles; the
        single-cycle mass of weighted or unordered ones has no closed form."""
        sizes = support(b, m, ordered, steps)
        law = None
        if weights is not None or not ordered:
            law = O.walk_cycle_law(
                b, m, ordered, weights or [1] * len(O.card_family(b, m, ordered)), steps)

        def check(dist, ctx):
            by_cycles = {}
            for p, mass in dist.prob.items():
                c = O.cycle_count(p)
                by_cycles[c] = by_cycles.get(c, 0) + mass
            if len(dist.prob) != sizes[-1] or sum(by_cycles.values()) != 1:
                return False
            if law is None:
                return by_cycles.get(1, 0) == Fraction(1, b)
            return by_cycles == law

        ops.append(Op(
            kind,
            lambda L, ctx: L.exact_step_distribution(
                L.card_distribution(b, m=m, ordered=ordered, weights=weights), steps),
            check,
            lambda r: {"stochastic.support_states": sum(sizes)},
        ))

    def weights(b, m=1, ordered=True):
        return [rng.randint(1, 9) for _ in O.card_family(b, m, ordered)]

    def monte_carlo(b, steps, trials, m=1):
        """Uniform ordered families only, whose single-cycle mass is 1/b."""
        seed = rng.getrandbits(64)

        def check(estimate, ctx):
            hits = estimate * trials
            return hits.denominator == 1 and O.within_sigmas(
                int(hits), trials, Fraction(1, b))

        ops.append(Op(
            "mc",
            lambda L, ctx: L.estimate_single_cycle_probability(
                b, steps, m=m, trials=trials, seed=seed),
            check,
            lambda r: {"stochastic.trials": trials, "rng.draws": trials * steps},
        ))

    def sample(b, n, m=1, ordered=True):
        drawn = weights(b, m, ordered)
        seed = rng.getrandbits(64)
        expected = O.sampled_targets(b, n, m, ordered, drawn, seed)
        ops.append(Op(
            "sample",
            lambda L, ctx: L.sample_sequence(
                b, n, m=m, ordered=ordered, weights=drawn, seed=seed),
            lambda seq, ctx: O.targets_of(seq) == expected,
            lambda r: {"rng.draws": n},
        ))

    if smoke:
        exact("exact.uniform", 4, 3)
        exact("exact.weighted", 4, 3, weights=weights(4))
        exact("exact.m2_unordered", 4, 3, m=2, ordered=False)
        monte_carlo(3, 4, 50)
        monte_carlo(3, 4, 50, m=2)
        sample(4, 30)
        return ops
    for steps in (6, 13, 20):
        exact("exact.uniform", 5, steps)
    exact("exact.uniform", 6, 8)
    exact("exact.uniform", 7, 6)
    exact("exact.weighted", 5, 10, weights=weights(5))
    exact("exact.weighted", 6, 6, weights=weights(6))
    for steps in (6, 13):
        exact("exact.m2_unordered", 5, steps, m=2, ordered=False)
    monte_carlo(4, 10, 10_000)
    monte_carlo(5, 8, 5_000)
    monte_carlo(3, 12, 2_000)
    monte_carlo(4, 8, 2_000, m=2)
    for b, n in ((5, 2000), (6, 3000), (7, 4000), (8, 5000)):
        sample(b, n)
    sample(5, 3000, m=2, ordered=False)
    return ops


# ---------------------------------------------------------------------------
# rows: single-row analysis and structure conversion

README_ROW = ("C3 C3 C2 C4 C3 C4 C3 C2 C2", 4)


def rows_cycle(lib, rng, smoke):
    Seq, Card = lib.CardSequence, lib.Card
    ops = []

    def seq_of(row):
        return Seq(row.b, tuple(Card(row.b, t) for t in row.targets))

    def converted(row):
        return lambda r: {"bijections.cards_converted": row.n}

    def same_row(row):
        return lambda seq, ctx: seq.b == row.b and O.targets_of(seq) == row.targets

    def analysis(row):
        seq = seq_of(row)
        heights = row.siteswap()
        blocks = row.blocks()

        def siteswap(L, ctx):
            found = L.siteswap_of(seq)
            return found, L.verify_siteswap(found)

        ops.extend([
            Op("cards.parse", lambda L, ctx: L.parse_sequence(row.text, row.b), same_row(row)),
            Op("cards.permutation", lambda L, ctx: L.sequence_permutation(seq),
               equals(row.perm)),
            Op("cards.siteswap", siteswap,
               equals((heights, (True, sum(heights) // row.n)))),
            Op("cards.crossings", lambda L, ctx: L.crossings(seq), equals(row.crossings)),
            Op("encode.partition", lambda L, ctx: L.sequence_to_partition(seq),
               equals(blocks), converted(row)),
            Op("decode.partition",
               lambda L, ctx: L.partition_to_sequence(blocks, row.final, row.b),
               same_row(row), converted(row)),
        ])
        family(row, seq)
        cover(row, seq)
        ops.append(render(row, seq))

    def family(row, seq):
        ops.extend([
            Op("encode.family", lambda L, ctx: L.sequence_to_family(seq),
               equals(row.pattern), converted(row)),
            Op("decode.family",
               lambda L, ctx: L.family_to_sequence(row.pattern, row.final, row.b),
               same_row(row), converted(row)),
        ])

    def cover(row, seq):
        rows = row.cover_rows()
        ident = tuple(range(1, row.b + 1))
        matrix = lib.CoverMatrix(rows)
        ops.extend([
            Op("encode.cover", lambda L, ctx: L.sequence_to_cover(seq),
               lambda M, ctx: M.rows == rows, converted(row)),
            Op("decode.cover", lambda L, ctx: L.cover_to_sequence(matrix, row.final),
               lambda r, ctx: same_row(row)(r[0], ctx) and tuple(r[1]) == ident,
               converted(row)),
        ])

    def render(row, seq, golden=None):
        def check(doc, ctx):
            if golden is not None:
                return doc == golden
            meta = re.search(r"<metadata>(.*?)</metadata>", doc)
            return (doc.startswith("<svg") and doc.count('<g id="card-') == row.n
                    and meta is not None and json.loads(meta.group(1))["crossings"]
                    == row.crossings)

        return Op("svg.render", lambda L, ctx: L.render_svg(seq), check,
                  lambda doc: {"svg.bytes_out": len(doc.encode())})

    def dyck(word):
        semilength = len(word) // 2
        b = semilength + 1 - word.count("()")

        def decoded(seq, ctx):
            ctx[word] = seq
            row = O.Row(seq.b, O.targets_of(seq))
            return seq.b == b and row.n == semilength and row.is_fewest_crossing()

        ops.extend([
            Op("dyck.decode", lambda L, ctx: L.dyck_to_minimal(word), decoded,
               lambda r: {"bijections.cards_converted": semilength}),
            Op("dyck.encode", lambda L, ctx: L.minimal_to_dyck(ctx[word]), equals(word),
               lambda r: {"bijections.cards_converted": semilength}),
        ])

    def plus_two(sizes):
        parts = [O.noncrossing_pattern(rng, n, b) for n, b in sizes]
        cut = rng.randint(1, len(parts[0]))
        length = sum(len(p) for p in parts)
        balls = sum(len(set(p)) for p in parts) - 2
        key = ("plus_two", len(ops))

        def composed(pattern, ctx):
            ctx[key] = pattern
            return len(pattern) == length and len(set(pattern)) == balls

        ops.extend([
            Op("plus_two.compose", lambda L, ctx: L.compose_plus_two(*parts, cut), composed,
               lambda r: {"bijections.cards_converted": length}),
            Op("plus_two.decompose",
               lambda L, ctx: L.decompose_plus_two(ctx[key], balls),
               equals((*parts, cut)),
               lambda r: {"bijections.cards_converted": length}),
        ])

    sizes = ((3, 6),) if smoke else ((3, 20), (5, 30), (4, 60), (6, 150), (8, 400))
    for b, n in sizes:
        analysis(O.random_row(rng, b, n))
    n = 8 if smoke else 40
    row = O.random_row(rng, 4, n, 2, True)
    family(row, seq_of(row))
    row = O.random_row(rng, 4, n, 2, False)
    cover(row, seq_of(row))
    readme = O.Row(README_ROW[1], [(int(c[1:]),) for c in README_ROW[0].split()])
    ops.append(render(readme, seq_of(readme), golden=lib.golden_svg))
    for semilength in ((3, 4) if smoke else (8, 16, 32, 64)):
        dyck(O.random_dyck(rng, semilength))
        dyck(O.nested_dyck(semilength))
    for _ in range(2):
        plus_two(((2, 1),) * 4 if smoke else ((8, 3), (5, 2), (10, 4), (6, 3)))
    return ops


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per op


def cli_cycle(lib, rng, smoke):
    ops = []

    def command(*argv):
        argv = [str(a) for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib.cli_main(argv)
        expected = (code, out.getvalue())
        kind = "cli." + "_".join(argv[:2]) if argv[0] in ("count", "convert") else "cli." + argv[0]
        ops.append(Op(kind, lambda L, ctx: L.cli(argv), lambda r, ctx: r[:2] == expected))

    def payload(obj):
        return "--payload", json.dumps(obj)

    small = smoke
    row = O.random_row(rng, 5, 6 if small else 20)
    minimal = O.Row(4, O.row_from_pattern(O.noncrossing_pattern(rng, 10, 4), 4))
    word = O.random_dyck(rng, 4 if small else 12)

    # table sizes are fixed per slot, so every cold @cache table has the same size
    command("count", "js", "--arrangement", ",".join(map(str, _perm(rng, 5))),
            "--n", 40, "--m", rng.randint(1, 2))
    command("count", "gen-stirling", "--n", 90, "--k", rng.randint(90, 150), "--m", 2)
    command("count", "stirling2", "--n", 150, "--k", rng.randint(20, 40))
    command("count", "stirling1", "--n", 100, "--k", rng.randint(10, 30))
    command("count", "p4", "--n", 60 + rng.randint(3, 20), "--b", 60)
    command("count", "qd", "--d", rng.choice((0, 2, 4)), "--n", 60, "--b", rng.randint(10, 40))
    command("count", "narayana", "--b", rng.randint(5, 30), "--n", 60)

    command("convert", "sequence", "partition", *payload({"b": row.b, "cards": row.text}))
    command("convert", "partition", "sequence", *payload(
        {"blocks": [list(x) for x in row.blocks()], "target": list(row.final), "b": row.b}))
    command("convert", "dyck", "sequence", *payload({"dyck": word}))
    command("convert", "sequence", "dyck", *payload({"b": minimal.b, "cards": minimal.text}))
    command("convert", "sequence", "cover", *payload({"b": row.b, "cards": row.text}))

    command("verify", "siteswap", ",".join(map(str, row.siteswap())))
    command("verify", "dyck", word)
    command("verify", "minimal", minimal.text, "--b", minimal.b)
    command("verify", "cover", json.dumps({"rows": [list(r) for r in minimal.cover_rows()]}))
    command("render", row.text, "--b", row.b)
    command("census", "--b", 3, "--n", 4 if small else 7, "--perm", ",".join(map(str, _perm(rng, 3))))
    command("census", "--b", 3, "--n", 4 if small else 7, "--perm", "id", "--crossings", 6,
            "--uses-top", "--collect")
    command("sample", "--b", 5, "--n", 300, "--seed", rng.getrandbits(32))
    command("walk", "--b", 4, "--steps", 6)
    command("walk", "--b", 4, "--steps", 8, "--trials", 50 if small else 500,
            "--seed", rng.getrandbits(32))
    if small:  # one op each of count, convert and render
        return [next(op for op in ops if op.kind.startswith(prefix))
                for prefix in ("cli.count", "cli.convert", "cli.render")]
    return ops


@dataclasses.dataclass(frozen=True)
class Workload:
    build: Callable
    why: str
    pool: int  # distinct cycles built in set-up; untraced runs loop over them
    trace_cycles: int  # cycles in one traced pass
    timeout_s: float  # per op; an op that runs longer fails
    imports: str  # what set-up imports in a fresh interpreter
    # ops run inside this process, not in fresh interpreters
    in_process: bool = True


WORKLOADS = {
    "census": Workload(
        census_cycle,
        "exhaustive census, collect, multiplex, cycle and per-permutation counts: "
        "enumeration does the work; bijections, svg and stochastic are idle",
        pool=4, trace_cycles=2, timeout_s=20.0, imports="jugglecards"),
    "walk": Workload(
        walk_cycle,
        "exact Fraction walks, Monte Carlo estimates and long seeded samples: "
        "stochastic and rng do the work, bypassing the census tree walk and bijections",
        pool=4, trace_cycles=4, timeout_s=20.0, imports="jugglecards"),
    "rows": Workload(
        rows_cycle,
        "single-row analysis, structure encode/decode, Dyck words up to nested "
        "semilength 64 and SVG: cards, bijections and svg with no engine work",
        pool=8, trace_cycles=6, timeout_s=10.0, imports="jugglecards"),
    "cli": Workload(
        cli_cycle,
        "one fresh python -m jugglecards.cli per op over every subcommand: pays "
        "interpreter start, imports, argparse and cold count tables each call",
        pool=2, trace_cycles=1, timeout_s=30.0, imports="jugglecards.cli", in_process=False),
}
