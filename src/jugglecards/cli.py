"""Command line front end.

Subcommands cover exact counting, conversion between the structure
representations, validity checks, SVG rendering, exhaustive census
queries, reproducible sampling, and exact walk distributions. Output is
machine-parseable JSON (bare integers count as JSON) unless ``--human``
asks for plain text. Exit status is 0 for a semantically valid result,
1 for a failed check, 2 for unusable input.

Each subcommand imports the library modules it runs when it runs, so a
``count`` never loads the bijections, the census engine or the walks.
"""

from __future__ import annotations

import argparse
import json
import sys

from jugglecards import __version__


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _perm(text: str, b: int) -> tuple[int, ...]:
    if text == "id":
        return tuple(range(1, b + 1))
    perm = _ints(text)
    if sorted(perm) != list(range(1, b + 1)):
        raise ValueError(f"{text!r} is not a permutation of 1..{b}")
    return perm


def _infer_b(cards_text: str) -> int:
    targets = [
        int(level)
        for token in cards_text.split()
        for level in token.lstrip("Cc").split(",")
        if level
    ]
    if not targets:
        raise ValueError("empty card sequence")
    return max(targets)


def _sequence(cards_text: str, b: int | None) -> CardSequence:
    from jugglecards.cards import parse_sequence

    return parse_sequence(cards_text, _infer_b(cards_text) if b is None else b)


def _payload(args) -> dict:
    text = args.payload if args.payload is not None else sys.stdin.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"payload is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ValueError("payload must be a JSON object")
    return data


def _need(data: dict, key: str):
    if key not in data:
        raise ValueError(f"payload is missing {key!r}")
    return data[key]


def _emit(args, obj, human: str) -> None:
    print(human if args.human else json.dumps(obj, sort_keys=True))


# ---------------------------------------------------------------------------
# count


def _require(args, parser, *names):
    values = []
    for name in names:
        value = getattr(args, name)
        if value is None:
            parser.error(f"count {args.kind} needs --{name}")
        values.append(value)
    return values


def cmd_count(args, parser) -> int:
    from jugglecards.counting import (
        gen_stirling,
        js_count,
        narayana,
        p0,
        p2,
        p4,
        plus_two_count,
        q_from_p,
        stirling1,
        stirling2,
    )

    kind = args.kind
    if kind == "stirling2":
        n, k = _require(args, parser, "n", "k")
        value = stirling2(n, k)
    elif kind == "gen-stirling":
        n, k, m = _require(args, parser, "n", "k", "m")
        value = gen_stirling(n, k, m)
    elif kind == "js":
        from jugglecards.cards import increasing_suffix_length, inverse

        text, n, m = _require(args, parser, "arrangement", "n", "m")
        arrangement = _ints(text)
        b = len(arrangement)
        sigma = inverse(_perm(text, b))
        value = js_count(increasing_suffix_length(sigma), n, b, m)
    elif kind == "narayana":
        b, n = _require(args, parser, "b", "n")
        value = narayana(b, n)
    elif kind == "g":
        b, n = _require(args, parser, "b", "n")
        value = plus_two_count(b, n)
    elif kind in ("p0", "p2", "p4"):
        n, b = _require(args, parser, "n", "b")
        value = {"p0": p0, "p2": p2, "p4": p4}[kind](n, b)
    elif kind == "qd":
        d, n, b = _require(args, parser, "d", "n", "b")
        value = q_from_p(d, n, b)
    else:
        n, k = _require(args, parser, "n", "k")
        value = stirling1(n, k)
    print(value)
    return 0


# ---------------------------------------------------------------------------
# convert


def _seq_json(seq: CardSequence) -> dict:
    return {"b": seq.b, "cards": str(seq)}


def _load_sequence(data: dict) -> CardSequence:
    from jugglecards.cards import parse_sequence

    return parse_sequence(_load_text(data, "cards"), _load_int(data, "b"))


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(type(x) is int for x in value)


def _load_text(data: dict, key: str) -> str:
    value = _need(data, key)
    if not isinstance(value, str):
        raise ValueError(f"{key!r} must be a string")
    return value


def _load_int(data: dict, key: str) -> int:
    value = _need(data, key)
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer")
    return value


def _load_ints(data: dict, key: str) -> tuple[int, ...]:
    value = _need(data, key)
    if not _is_int_list(value):
        raise ValueError(f"{key!r} must be a list of integers")
    return tuple(value)


def _load_int_lists(data: dict, key: str) -> tuple[tuple[int, ...], ...]:
    value = _need(data, key)
    if not isinstance(value, list) or not all(map(_is_int_list, value)):
        raise ValueError(f"{key!r} must be a list of lists of integers")
    return tuple(map(tuple, value))


def _convert(kind: tuple[str, str], data: dict):
    from jugglecards.bijections import (
        CoverMatrix,
        LabeledDigraph,
        cover_to_multigraph,
        cover_to_sequence,
        digraph_to_family,
        dyck_to_minimal,
        family_to_digraph,
        family_to_sequence,
        minimal_to_dyck,
        multigraph_to_cover,
        partition_to_sequence,
        sequence_to_cover,
        sequence_to_family,
        sequence_to_partition,
    )
    from jugglecards.cards import final_arrangement

    if kind == ("partition", "sequence"):
        target = _load_ints(data, "target")
        b = _load_int(data, "b") if "b" in data else len(target)
        seq = partition_to_sequence(_load_int_lists(data, "blocks"), target, b)
        return _seq_json(seq), str(seq)
    if kind == ("sequence", "partition"):
        seq = _load_sequence(data)
        blocks = sequence_to_partition(seq)
        out = {
            "blocks": [list(block) for block in blocks],
            "target": list(final_arrangement(seq)),
        }
        human = "/".join("{" + ",".join(map(str, block)) + "}" for block in blocks)
        return out, human
    if kind == ("dyck", "sequence"):
        seq = dyck_to_minimal(_load_text(data, "dyck"))
        if seq is None:
            raise ValueError("the empty word has no cards")
        return _seq_json(seq), str(seq)
    if kind == ("sequence", "dyck"):
        word = minimal_to_dyck(_load_sequence(data))
        return {"dyck": word}, word
    if kind == ("digraph", "sequence"):
        g = LabeledDigraph(_load_int(data, "k"), _load_int_lists(data, "arcs"))
        target = _load_ints(data, "target")
        seq = family_to_sequence(digraph_to_family(g), target, len(target))
        return _seq_json(seq), str(seq)
    if kind == ("sequence", "digraph"):
        seq = _load_sequence(data)
        g = family_to_digraph(sequence_to_family(seq))
        out = {
            "k": g.k,
            "arcs": [list(arc) for arc in g.arcs],
            "target": list(final_arrangement(seq)),
        }
        human = " ".join(f"{t}->{h}" for t, h in g.arcs)
        return out, human
    if kind == ("cover", "sequence"):
        M = CoverMatrix(_load_int_lists(data, "rows"))
        initial = _load_ints(data, "initial") if data.get("initial") is not None else None
        seq, start = cover_to_sequence(M, _load_ints(data, "terminal"), initial)
        return {**_seq_json(seq), "start": list(start)}, str(seq)
    if kind == ("sequence", "cover"):
        seq = _load_sequence(data)
        M = sequence_to_cover(seq)
        out = {
            "rows": [list(row) for row in M.rows],
            "terminal": list(final_arrangement(seq)),
        }
        human = "\n".join("".join(map(str, row)) for row in M.rows)
        return out, human
    if kind == ("cover", "multigraph"):
        M = CoverMatrix(_load_int_lists(data, "rows"))
        edges = cover_to_multigraph(M)
        out = {"k": M.k, "edges": [list(e) for e in edges]}
        return out, " ".join(f"{u}-{v}" for u, v in edges)
    if kind == ("multigraph", "cover"):
        M = multigraph_to_cover(_load_int(data, "k"), _load_int_lists(data, "edges"))
        out = {"rows": [list(row) for row in M.rows]}
        return out, "\n".join("".join(map(str, row)) for row in M.rows)
    raise ValueError(f"no converter from {kind[0]} to {kind[1]}")


def cmd_convert(args, parser) -> int:
    out, human = _convert((args.source, args.dest), _payload(args))
    _emit(args, out, human)
    return 0


# ---------------------------------------------------------------------------
# verify


def _siteswap_report(text: str) -> tuple[bool, str | None, dict]:
    from jugglecards.cards import verify_siteswap

    heights = _ints(text)
    valid, balls = verify_siteswap(heights)
    if valid:
        return True, None, {"balls": balls}
    n = len(heights)
    seen: dict[int, int] = {}
    for i, t in enumerate(heights):
        slot = (i + t) % n
        if slot in seen:
            return False, (
                f"throws {seen[slot] + 1} and {i + 1} land together (mod {n})"
            ), {}
        seen[slot] = i
    raise AssertionError("invalid siteswap must have a collision")


def _dyck_report(word: str) -> tuple[bool, str | None, dict]:
    from jugglecards.bijections import dyck_peaks, dyck_to_pattern

    try:
        dyck_to_pattern(word)
    except ValueError as exc:
        return False, str(exc), {}
    return True, None, {"semilength": len(word) // 2, "peaks": dyck_peaks(word)}


def _minimal_report(seq: CardSequence) -> tuple[bool, str | None, dict]:
    from jugglecards.bijections import is_minimal
    from jugglecards.cards import crossings, is_identity, sequence_permutation

    b = seq.b
    info = {"b": b, "n": seq.n, "crossings": crossings(seq)}
    if not all(card.is_single_throw for card in seq.cards):
        return False, "multiplex cards are not allowed", info
    if not any(card.targets == (b,) for card in seq.cards):
        return False, f"the top card C{b} is never used", info
    if not is_identity(sequence_permutation(seq)):
        return False, "the balls do not return to their starting levels", info
    if crossings(seq) != b * (b - 1):
        return False, (
            f"crossing number is {crossings(seq)}, not {b * (b - 1)}"
        ), info
    assert is_minimal(seq)
    return True, None, info


def cmd_verify(args, parser) -> int:
    text = args.payload if args.payload is not None else sys.stdin.read().strip()
    if args.kind == "siteswap":
        valid, reason, info = _siteswap_report(text)
    elif args.kind == "cover":
        from jugglecards.bijections import CoverMatrix

        data = json.loads(text)
        rows = _load_int_lists(data if isinstance(data, dict) else {}, "rows")
        try:
            M = CoverMatrix(rows)
            valid, reason, info = True, None, {"k": M.k, "n": M.n, "m": M.m}
        except ValueError as exc:
            valid, reason, info = False, str(exc), {}
    elif args.kind == "dyck":
        valid, reason, info = _dyck_report(text)
    else:
        valid, reason, info = _minimal_report(_sequence(text, args.b))
    out = {"kind": args.kind, "valid": valid, "reason": reason, **info}
    _emit(args, out, "pass" if valid else f"fail: {reason}")
    return 0 if valid else 1


# ---------------------------------------------------------------------------
# render, census, sample, walk


def cmd_render(args, parser) -> int:
    from jugglecards.svg import RenderSpec, render_svg

    spec = RenderSpec(
        card_width=args.card_width,
        card_height=args.card_height,
        level_spacing=args.level_spacing,
        ball_labels=args.ball_labels,
        thrown_labels=args.thrown_labels,
    )
    doc = render_svg(_sequence(args.cards, args.b), spec)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(doc)
    else:
        sys.stdout.write(doc)
    return 0


def cmd_census(args, parser) -> int:
    from jugglecards.enumeration import CensusQuery, census, census_rows

    query = CensusQuery(
        b=args.b,
        n=args.n,
        m=args.m,
        ordered=not args.unordered,
        perm=_perm(args.perm, args.b) if args.perm is not None else None,
        crossings=args.crossings,
        max_crossings=args.max_crossings,
        primitive=args.primitive,
        uses_top=args.uses_top,
        thrown=args.thrown,
    )
    if not args.collect:
        print(census(query))
        return 0
    # Stream the rows; the bytes equal _emit of the whole list: a JSON list
    # of strings, or one row per line and a lone newline when there are none.
    rows = map(str, census_rows(query))
    first = next(rows, "")
    write = sys.stdout.write
    if args.human:
        write(first + "\n")
        for row in rows:
            write(row + "\n")
    else:
        write("[" + (json.dumps(first) if first else ""))
        for row in rows:
            write(", " + json.dumps(row))
        write("]\n")
    return 0


def cmd_sample(args, parser) -> int:
    from jugglecards.stochastic import sample_sequence

    seq = sample_sequence(
        b=args.b,
        n=args.n,
        m=args.m,
        ordered=not args.unordered,
        weights=_ints(args.weights) if args.weights else None,
        seed=args.seed,
    )
    _emit(args, {**_seq_json(seq), "seed": args.seed}, str(seq))
    return 0


def cmd_walk(args, parser) -> int:
    from jugglecards.cards import cycle_string
    from jugglecards.stochastic import (
        card_distribution,
        cycle_count_distribution,
        estimate_single_cycle_probability,
        exact_step_distribution,
        single_cycle_mass,
    )

    weights = _ints(args.weights) if args.weights else None
    if args.trials is not None:
        estimate = estimate_single_cycle_probability(
            args.b,
            args.steps,
            m=args.m,
            ordered=not args.unordered,
            weights=weights,
            trials=args.trials,
            seed=args.seed,
        )
        out = {
            "b": args.b,
            "steps": args.steps,
            "trials": args.trials,
            "seed": args.seed,
            "single_cycle_mass": str(estimate),
        }
        _emit(args, out, f"single-cycle mass ~ {estimate}")
        return 0
    gd = card_distribution(
        args.b, m=args.m, ordered=not args.unordered, weights=weights
    )
    dist = exact_step_distribution(gd, args.steps)
    mass = single_cycle_mass(dist)
    out = {
        "b": args.b,
        "steps": args.steps,
        "single_cycle_mass": str(mass),
        "cycle_counts": {
            str(l): str(p) for l, p in sorted(cycle_count_distribution(dist).items())
        },
        "distribution": {
            cycle_string(g): str(p) for g, p in sorted(dist.prob.items())
        },
    }
    lines = [f"single-cycle mass: {mass}"] + [
        f"{l} cycles: {p}" for l, p in sorted(cycle_count_distribution(dist).items())
    ]
    _emit(args, out, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jugglecards",
        description="Exact counting, conversion, and simulation of card rows.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="evaluate one exact counting formula")
    count.add_argument(
        "kind",
        choices=[
            "stirling2", "gen-stirling", "js", "narayana", "g",
            "p0", "p2", "p4", "qd", "stirling1",
        ],
    )
    count.add_argument("--n", type=int)
    count.add_argument("--k", type=int)
    count.add_argument("--b", type=int)
    count.add_argument("--m", type=int)
    count.add_argument("--d", type=int)
    count.add_argument("--arrangement", help="final ball order, bottom to top")
    count.set_defaults(run=cmd_count)

    convert = sub.add_parser(
        "convert", help="translate between structure representations"
    )
    kinds = [
        "partition", "sequence", "dyck", "digraph", "cover", "multigraph",
    ]
    convert.add_argument("source", choices=kinds)
    convert.add_argument("dest", choices=kinds)
    convert.add_argument(
        "--payload", help="JSON payload (read from stdin when omitted)"
    )
    convert.add_argument("--human", action="store_true")
    convert.set_defaults(run=cmd_convert)

    verify = sub.add_parser("verify", help="check one object and report")
    verify.add_argument("kind", choices=["siteswap", "cover", "dyck", "minimal"])
    verify.add_argument(
        "payload", nargs="?", help="object text (read from stdin when omitted)"
    )
    verify.add_argument("--b", type=int, help="ball count for minimal checks")
    verify.add_argument("--human", action="store_true")
    verify.set_defaults(run=cmd_verify)

    render = sub.add_parser("render", help="draw a card row as SVG")
    render.add_argument("cards", help='card tokens, e.g. "C3 C3 C2"')
    render.add_argument("--b", type=int, help="ball count (default: highest target)")
    render.add_argument("--card-width", type=int, default=70)
    render.add_argument("--card-height", type=int, default=120)
    render.add_argument("--level-spacing", type=int, default=24)
    render.add_argument(
        "--ball-labels", action=argparse.BooleanOptionalAction, default=True
    )
    render.add_argument(
        "--thrown-labels", action=argparse.BooleanOptionalAction, default=True
    )
    render.add_argument("--output", help="write here instead of stdout")
    render.set_defaults(run=cmd_render)

    cen = sub.add_parser("census", help="count or list rows matching a filter")
    cen.add_argument("--b", type=int, required=True)
    cen.add_argument("--n", type=int, required=True)
    cen.add_argument("--m", type=int, default=1)
    cen.add_argument("--unordered", action="store_true")
    cen.add_argument("--perm", help='"id" or a comma-separated level map')
    cen.add_argument("--crossings", type=int)
    cen.add_argument("--max-crossings", type=int)
    cen.add_argument("--primitive", action=argparse.BooleanOptionalAction)
    cen.add_argument("--uses-top", action=argparse.BooleanOptionalAction)
    cen.add_argument("--thrown", type=int, help="exact count of distinct balls")
    cen.add_argument("--collect", action="store_true", help="list instead of count")
    cen.add_argument("--human", action="store_true")
    cen.set_defaults(run=cmd_census)

    sample = sub.add_parser("sample", help="draw a random card row")
    sample.add_argument("--b", type=int, required=True)
    sample.add_argument("--n", type=int, required=True)
    sample.add_argument("--m", type=int, default=1)
    sample.add_argument("--unordered", action="store_true")
    sample.add_argument("--weights", help="comma-separated card weights")
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--human", action="store_true")
    sample.set_defaults(run=cmd_sample)

    walk = sub.add_parser("walk", help="distribution after n random cards")
    walk.add_argument("--b", type=int, required=True)
    walk.add_argument("--steps", type=int, required=True)
    walk.add_argument("--m", type=int, default=1)
    walk.add_argument("--unordered", action="store_true")
    walk.add_argument("--weights", help="comma-separated card weights")
    walk.add_argument("--trials", type=int, help="Monte Carlo instead of exact")
    walk.add_argument("--seed", type=int, default=0)
    walk.add_argument("--human", action="store_true")
    walk.set_defaults(run=cmd_walk)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args, parser)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so the flush at
        # exit does not raise again (the recipe in Python's signal docs).
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
