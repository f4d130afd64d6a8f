"""Command line front end.

Subcommands cover exact counting, conversion between the structure
representations, validity checks, SVG rendering, exhaustive census
queries, reproducible sampling, and exact walk distributions. Output is
machine-parseable JSON (bare integers count as JSON) unless ``--human``
asks for plain text. Exit status is 0 for a semantically valid result,
1 for a failed check, 2 for unusable input. A run that runs out of
memory also exits 2, with the one stderr line ``error: out of memory``,
printed once the failed run's objects are freed.

Each subcommand imports the library modules it runs when it runs, so a
``count`` never loads the bijections, the census engine or the walks.
"""

from __future__ import annotations

import argparse
import json
import sys

import jugglecards


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _perm(text: str, b: int, name: str) -> tuple[int, ...]:
    from jugglecards.cards import _check_perm

    if text == "id":
        return tuple(range(1, b + 1))
    perm = _ints(text)
    _check_perm(perm, b, name)
    return perm


def _sequence(cards_text: str, b: int | None) -> jugglecards.CardSequence:
    from jugglecards.cards import _highest_target, parse_sequence

    return parse_sequence(cards_text, _highest_target(cards_text) if b is None else b)


def _payload(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"payload is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ValueError("payload must be a JSON object")
    return data


def _emit(args, obj, human: str) -> None:
    print(human if args.human else json.dumps(obj, sort_keys=True))


# ---------------------------------------------------------------------------
# count


# each kind: its function in jugglecards.counting and the flags it takes, in order
_COUNTS = {
    "stirling2": ("stirling2", ("n", "k")),
    "gen-stirling": ("gen_stirling", ("n", "k", "m")),
    "js": ("js_count", ("arrangement", "n", "m")),
    "narayana": ("narayana", ("b", "n")),
    "g": ("plus_two_count", ("b", "n")),
    "p0": ("p0", ("n", "b")),
    "p2": ("p2", ("n", "b")),
    "p4": ("p4", ("n", "b")),
    "qd": ("q_from_p", ("d", "n", "b")),
    "stirling1": ("stirling1", ("n", "k")),
}


def cmd_count(args, parser) -> int:
    from jugglecards import counting

    name, flags = _COUNTS[args.kind]
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        parser.error(f"count {args.kind} needs --{flags[values.index(None)]}")
    if flags[0] == "arrangement":
        # the count depends on the arrangement through its size and the
        # increasing suffix of its level map
        from jugglecards.cards import increasing_suffix_length, inverse

        text, n, m = values
        sigma = inverse(_perm(text, len(_ints(text)), "arrangement"))
        values = increasing_suffix_length(sigma), n, len(sigma), m
    print(getattr(counting, name)(*values))
    return 0


# ---------------------------------------------------------------------------
# convert


# The payload field readers: each returns the field's value, or None when
# the JSON value is not of its kind.


def _text(value) -> str | None:
    return value if isinstance(value, str) else None


def _int(value) -> int | None:
    return value if type(value) is int else None


def _int_list(value) -> tuple[int, ...] | None:
    ints = isinstance(value, list) and all(type(x) is int for x in value)
    return tuple(value) if ints else None


def _int_lists(value) -> tuple[tuple[int, ...], ...] | None:
    lists = isinstance(value, list) and all(_int_list(x) is not None for x in value)
    return tuple(map(tuple, value)) if lists else None


# what a field must be, by its reader
_KINDS = {
    _text: "a string",
    _int: "an integer",
    _int_list: "a list of integers",
    _int_lists: "a list of lists of integers",
}


def _field(data: dict, key: str, read):
    """The payload field ``key`` as ``read`` reads it; a missing field or
    a value of another kind is refused, naming the field."""
    if key not in data:
        raise ValueError(f"payload is missing {key!r}")
    value = read(data[key])
    if value is None:
        raise ValueError(f"{key!r} must be {_KINDS[read]}")
    return value


def _read(source: str, data: dict) -> tuple[jugglecards.CardSequence, dict]:
    """The card row a ``source`` payload names, and the fields the output
    adds to the row's: only a cover's forced start."""
    if source == "sequence":
        from jugglecards.cards import parse_sequence

        return parse_sequence(_field(data, "cards", _text), _field(data, "b", _int)), {}
    from jugglecards import bijections as bij

    if source == "partition":
        target = _field(data, "target", _int_list)
        b = _field(data, "b", _int) if "b" in data else len(target)
        return bij.partition_to_sequence(_field(data, "blocks", _int_lists), target, b), {}
    if source == "dyck":
        seq = bij.dyck_to_minimal(_field(data, "dyck", _text))
        if seq is None:
            raise ValueError("the empty word has no cards")
        return seq, {}
    if source == "digraph":
        g = bij.LabeledDigraph(_field(data, "k", _int), _field(data, "arcs", _int_lists))
        target = _field(data, "target", _int_list)
        return bij.family_to_sequence(bij.digraph_to_family(g), target, len(target)), {}
    M = bij.CoverMatrix(_field(data, "rows", _int_lists))
    initial = _field(data, "initial", _int_list) if data.get("initial") is not None else None
    seq, start = bij.cover_to_sequence(M, _field(data, "terminal", _int_list), initial)
    return seq, {"start": list(start)}


def _cover_text(M) -> str:
    return "\n".join("".join(map(str, row)) for row in M.rows)


def _write(dest: str, seq: jugglecards.CardSequence) -> tuple[dict, str]:
    """The ``dest`` payload of the row ``seq`` and its ``--human`` text."""
    if dest == "sequence":
        return {"b": seq.b, "cards": str(seq)}, str(seq)
    from jugglecards import bijections as bij
    from jugglecards.cards import final_arrangement

    if dest == "dyck":
        word = bij.minimal_to_dyck(seq)
        return {"dyck": word}, word
    end = list(final_arrangement(seq))
    if dest == "partition":
        blocks = bij.sequence_to_partition(seq)
        human = "/".join("{" + ",".join(map(str, block)) + "}" for block in blocks)
        return {"blocks": [list(block) for block in blocks], "target": end}, human
    if dest == "digraph":
        g = bij.family_to_digraph(bij.sequence_to_family(seq))
        human = " ".join(f"{t}->{h}" for t, h in g.arcs)
        return {"k": g.k, "arcs": [list(arc) for arc in g.arcs], "target": end}, human
    M = bij.sequence_to_cover(seq)
    return {"rows": [list(row) for row in M.rows], "terminal": end}, _cover_text(M)


def _convert(kind: tuple[str, str], data: dict):
    """Read the source into its card row and write the row out; a cover
    and its multigraph are the one pair converted directly."""
    from jugglecards.bijections import CoverMatrix, cover_to_multigraph, multigraph_to_cover

    source, dest = kind
    if kind == ("cover", "multigraph"):
        M = CoverMatrix(_field(data, "rows", _int_lists))
        edges = cover_to_multigraph(M)
        out = {"k": M.k, "edges": [list(e) for e in edges]}
        return out, " ".join(f"{u}-{v}" for u, v in edges)
    if kind == ("multigraph", "cover"):
        M = multigraph_to_cover(_field(data, "k", _int), _field(data, "edges", _int_lists))
        return {"rows": [list(row) for row in M.rows]}, _cover_text(M)
    if "multigraph" in kind or (source == "sequence") == (dest == "sequence"):
        raise ValueError(f"no converter from {source} to {dest}")
    seq, extra = _read(source, data)
    out, human = _write(dest, seq)
    return {**out, **extra}, human


def cmd_convert(args, parser) -> int:
    text = args.payload if args.payload is not None else sys.stdin.read()
    out, human = _convert((args.source, args.dest), _payload(text))
    _emit(args, out, human)
    return 0


# ---------------------------------------------------------------------------
# verify


def _siteswap_report(text: str) -> tuple[bool, str | None, dict]:
    from jugglecards.cards import _landing_clash, verify_siteswap

    heights = _ints(text)
    valid, balls = verify_siteswap(heights)
    if valid:
        return True, None, {"balls": balls}
    i, j = _landing_clash(heights)
    return False, f"throws {i + 1} and {j + 1} land together (mod {len(heights)})", {}


def _dyck_report(word: str) -> tuple[bool, str | None, dict]:
    from jugglecards.bijections import dyck_peaks, dyck_to_pattern

    try:
        dyck_to_pattern(word)
    except ValueError as exc:
        return False, str(exc), {}
    return True, None, {"semilength": len(word) // 2, "peaks": dyck_peaks(word)}


def _minimal_report(seq: jugglecards.CardSequence) -> tuple[bool, str | None, dict]:
    from jugglecards.bijections import _minimal_fault
    from jugglecards.cards import crossings

    reason = _minimal_fault(seq)
    return reason is None, reason, {"b": seq.b, "n": seq.n, "crossings": crossings(seq)}


def cmd_verify(args, parser) -> int:
    text = args.payload if args.payload is not None else sys.stdin.read().strip()
    if args.kind == "siteswap":
        valid, reason, info = _siteswap_report(text)
    elif args.kind == "cover":
        from jugglecards.bijections import CoverMatrix

        rows = _field(_payload(text), "rows", _int_lists)
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

    # the spec's fields are the geometry and label flags; an unset flag is
    # None and leaves its field to the spec's own default
    spec = RenderSpec(**{k: v for k in RenderSpec.__slots__ if (v := getattr(args, k)) is not None})
    doc = render_svg(_sequence(args.cards, args.b), spec)
    if args.output:
        try:
            handle = open(args.output, "w")
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc.strerror}")
        with handle:
            handle.write(doc)
    else:
        sys.stdout.write(doc)
    return 0


def _family(args) -> dict:
    """The ``--b``, ``--m`` and ``--unordered`` flags as the library's
    ``b``, ``m`` and ``ordered``."""
    return {"b": args.b, "m": args.m, "ordered": args.ordered}


def cmd_census(args, parser) -> int:
    from jugglecards.enumeration import CensusQuery, _Census, _check_family, census

    _check_family(**_family(args))  # before --perm id lists 1..b
    query = CensusQuery(
        **_family(args),
        n=args.n,
        perm=_perm(args.perm, args.b, "perm") if args.perm is not None else None,
        crossings=args.crossings,
        max_crossings=args.max_crossings,
        primitive=args.primitive,
        uses_top=args.uses_top,
        thrown=args.thrown,
    )
    if not args.collect:
        print(census(query))
        return 0
    # Stream the rows, written from one name per card of the family; the
    # bytes equal _emit of the whole list: a JSON list of strings, or one
    # row per line and a lone newline when there are none.
    engine = _Census(query)
    rows = map(" ".join, engine.rows([str(card) for card in engine.cards]))
    first = next(rows, "")
    write = sys.stdout.write
    if args.human:
        write(first + "\n")
        for row in rows:
            write(row + "\n")
    else:
        quote = json.encoder.encode_basestring_ascii  # what json.dumps does for a str
        write("[" + (quote(first) if first else ""))
        for row in rows:
            write(", " + quote(row))
        write("]\n")
    return 0


def cmd_sample(args, parser) -> int:
    from jugglecards.stochastic import sample_sequence

    seq = sample_sequence(**_family(args), n=args.n, weights=args.weights, seed=args.seed)
    out, human = _write("sequence", seq)
    _emit(args, {**out, "seed": args.seed}, human)
    return 0


def cmd_walk(args, parser) -> int:
    from jugglecards.cards import cycle_string
    from jugglecards.stochastic import (
        card_distribution,
        cycle_count_distribution,
        estimate_single_cycle_probability,
        exact_step_distribution,
    )

    if args.trials is not None:
        estimate = estimate_single_cycle_probability(
            **_family(args), n=args.steps, weights=args.weights, trials=args.trials,
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
    gd = card_distribution(**_family(args), weights=args.weights)
    dist = exact_step_distribution(gd, args.steps)
    cycles = sorted(cycle_count_distribution(dist).items())
    mass = dict(cycles).get(1, 0)
    out = {
        "b": args.b,
        "steps": args.steps,
        "single_cycle_mass": str(mass),
        "cycle_counts": {str(l): str(p) for l, p in cycles},
        "distribution": {
            cycle_string(g): str(p) for g, p in sorted(dist.prob.items())
        },
    }
    lines = [f"single-cycle mass: {mass}"] + [f"{l} cycles: {p}" for l, p in cycles]
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
        "--version", action="version", version=f"%(prog)s {jugglecards.__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="evaluate one exact counting formula")
    count.add_argument("kind", choices=_COUNTS)
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
    render.add_argument("--card-width", type=int)
    render.add_argument("--card-height", type=int)
    render.add_argument("--level-spacing", type=int)
    render.add_argument("--ball-labels", action=argparse.BooleanOptionalAction)
    render.add_argument("--thrown-labels", action=argparse.BooleanOptionalAction)
    render.add_argument("--output", help="write here instead of stdout")
    render.set_defaults(run=cmd_render)

    # the card family and output flags of census, sample and walk
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--b", type=int, required=True)
    family.add_argument("--m", type=int, default=1)
    family.add_argument("--unordered", dest="ordered", action="store_false")
    family.add_argument("--human", action="store_true")
    # the draw flags of sample and walk
    draws = argparse.ArgumentParser(add_help=False)
    draws.add_argument("--weights", type=_ints, help="comma-separated card weights")
    draws.add_argument("--seed", type=int, default=0)

    cen = sub.add_parser(
        "census", parents=[family], help="count or list rows matching a filter"
    )
    cen.add_argument("--n", type=int, required=True)
    cen.add_argument("--perm", help='"id" or a comma-separated level map')
    cen.add_argument("--crossings", type=int)
    cen.add_argument("--max-crossings", type=int)
    cen.add_argument("--primitive", action=argparse.BooleanOptionalAction)
    cen.add_argument("--uses-top", action=argparse.BooleanOptionalAction)
    cen.add_argument("--thrown", type=int, help="exact count of distinct balls")
    cen.add_argument("--collect", action="store_true", help="list instead of count")
    cen.set_defaults(run=cmd_census)

    sample = sub.add_parser(
        "sample", parents=[family, draws], help="draw a random card row"
    )
    sample.add_argument("--n", type=int, required=True)
    sample.set_defaults(run=cmd_sample)

    walk = sub.add_parser(
        "walk", parents=[family, draws], help="distribution after n random cards"
    )
    walk.add_argument("--steps", type=int, required=True)
    walk.add_argument("--trials", type=int, help="Monte Carlo instead of exact")
    walk.set_defaults(run=cmd_walk)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # count, census and walk read only argv, so their exact integers print at
    # any size; convert and verify keep the limit on the digits they parse
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if digits and args.command in ("count", "census", "walk"):
        sys.set_int_max_str_digits(0)
    try:
        code = args.run(args, parser)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        code = None  # reported below, once the error and the frames it holds are freed
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so the flush at
        # exit does not raise again (the recipe in Python's signal docs).
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)
    if code is None:
        print("error: out of memory", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
