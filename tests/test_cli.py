import hashlib
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from jugglecards import enumeration
from jugglecards.bijections import dyck_to_minimal, minimal_to_dyck
from jugglecards.cli import main
from jugglecards.enumeration import CensusQuery, census

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def fresh(*args, cap_mb=None):
    """A fresh interpreter running ``args``, with this checkout's ``src``
    ahead of the inherited ``PYTHONPATH`` and its address space capped at
    ``cap_mb`` megabytes when given."""

    def cap():
        import resource

        limit = cap_mb * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=30,
        preexec_fn=cap if cap_mb else None,
    )


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["count", "narayana", "--b", "5", "--n", "8"], "490"),
        (["count", "p4", "--n", "6", "--b", "2"], "1"),
        (["count", "js", "--arrangement", "3,1,4,2", "--n", "9", "--m", "1"], "11050"),
        (["count", "g", "--b", "2", "--n", "6"], "15"),
        (["count", "stirling2", "--n", "9", "--k", "3"], "3025"),
        (["count", "gen-stirling", "--n", "2", "--k", "3", "--m", "2"], "4"),
        (["count", "stirling1", "--n", "4", "--k", "2"], "11"),
        (["count", "p0", "--n", "5", "--b", "4"], "5"),
        (["count", "p2", "--n", "4", "--b", "2"], "1"),
        (["count", "qd", "--d", "4", "--n", "7", "--b", "3"], "35"),
    ],
)
def test_count_prints_exact_integers(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected + "\n", "")


def test_count_missing_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "narayana", "--b", "5"])
    assert exc.value.code == 2


def test_count_rejects_bad_arrangement(capsys):
    code, out, err = run(
        capsys, "count", "js", "--arrangement", "3,1,4", "--n", "2", "--m", "1"
    )
    assert code == 2 and out == "" and "not a permutation" in err


def test_convert_partition_to_sequence(capsys):
    payload = json.dumps(
        {"blocks": [[1, 4, 9], [2, 6], [3, 5, 8], [7]], "target": [3, 1, 4, 2]}
    )
    code, out, _ = run(capsys, "convert", "partition", "sequence", "--payload", payload)
    assert code == 0
    assert json.loads(out) == {"b": 4, "cards": "C3 C3 C2 C4 C3 C4 C3 C2 C2"}


def test_convert_sequence_to_partition_roundtrips(capsys):
    payload = json.dumps({"b": 4, "cards": "C3 C3 C2 C4 C3 C4 C3 C2 C2"})
    code, out, _ = run(capsys, "convert", "sequence", "partition", "--payload", payload)
    assert code == 0
    parsed = json.loads(out)
    assert parsed == {
        "blocks": [[1, 4, 9], [2, 6], [3, 5, 8], [7]],
        "target": [3, 1, 4, 2],
    }
    code, out, _ = run(
        capsys, "convert", "partition", "sequence", "--payload", json.dumps(parsed)
    )
    assert json.loads(out)["cards"] == "C3 C3 C2 C4 C3 C4 C3 C2 C2"


def test_convert_dyck_both_ways(capsys):
    payload = json.dumps({"b": 5, "cards": "C3 C5 C1 C5 C2 C5 C2 C5"})
    _, out, _ = run(capsys, "convert", "sequence", "dyck", "--payload", payload)
    assert json.loads(out) == {"dyck": "((()()))(())(())"}
    _, out, _ = run(
        capsys, "convert", "dyck", "sequence", "--payload", '{"dyck": "()"}'
    )
    assert json.loads(out) == {"b": 1, "cards": "C1"}


def test_convert_digraph_to_sequence(capsys):
    payload = json.dumps(
        {
            "k": 5,
            "arcs": [[3, 5], [1, 3], [2, 1], [5, 2], [1, 4], [3, 4]],
            "target": [4, 5, 2, 1, 3],
        }
    )
    _, out, _ = run(capsys, "convert", "digraph", "sequence", "--payload", payload)
    assert json.loads(out) == {"b": 5, "cards": "C2,4 C2,5 C2,3 C5,4 C5,2 C4,2"}


def test_convert_sequence_to_digraph(capsys):
    payload = json.dumps({"b": 3, "cards": "C3,2 C2,3"})
    code, out, _ = run(capsys, "convert", "sequence", "digraph", "--payload", payload)
    assert (code, out) == (0, '{"arcs": [[1, 2], [3, 2]], "k": 3, "target": [1, 3, 2]}\n')
    code, out, _ = run(capsys, "convert", "sequence", "digraph", "--human", "--payload", payload)
    assert (code, out) == (0, "1->2 3->2\n")


def test_convert_cover_to_sequence_reports_the_forced_start(capsys):
    payload = json.dumps(
        {
            "rows": [
                [1, 0, 1, 0, 0, 0, 1],
                [0, 1, 0, 0, 1, 0, 0],
                [1, 0, 0, 1, 0, 1, 0],
                [0, 1, 0, 0, 1, 0, 0],
                [0, 0, 1, 1, 0, 1, 1],
            ],
            "terminal": [4, 1, 5, 3, 2],
        }
    )
    _, out, _ = run(capsys, "convert", "cover", "sequence", "--payload", payload)
    assert json.loads(out) == {
        "b": 5,
        "cards": "C4,5 C4,5 C1,5 C3,4 C4,5 C2,4 C2,3",
        "start": [1, 3, 4, 2, 5],
    }


def test_convert_sequence_to_cover_and_back_to_multigraph(capsys):
    payload = json.dumps({"b": 4, "cards": "C2,4 C1,3 C2,3"})
    _, out, _ = run(capsys, "convert", "sequence", "cover", "--payload", payload)
    cover = json.loads(out)
    assert cover["rows"] == [[1, 1, 0], [1, 0, 0], [0, 1, 1], [0, 0, 1]]
    _, out, _ = run(
        capsys, "convert", "cover", "multigraph", "--payload", json.dumps(cover)
    )
    graph = json.loads(out)
    _, out, _ = run(
        capsys, "convert", "multigraph", "cover", "--payload", json.dumps(graph)
    )
    assert json.loads(out)["rows"] == cover["rows"]


def test_convert_reads_stdin_and_rejects_unknown_pairs(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"dyck": "(())"}'))
    code, out, _ = run(capsys, "convert", "dyck", "sequence")
    assert code == 0 and json.loads(out) == {"b": 2, "cards": "C2 C2"}
    code, _, err = run(
        capsys, "convert", "partition", "dyck", "--payload", '{"blocks": []}'
    )
    assert code == 2 and "no converter" in err


def test_convert_decodes_a_deeply_nested_dyck_word(capsys):
    word = "(" * 1200 + ")" * 1200
    code, out, _ = run(capsys, "convert", "dyck", "sequence", "--payload",
                       json.dumps({"dyck": word}))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["b"] == 1200
    seq = dyck_to_minimal(word)
    assert str(seq) == parsed["cards"]
    assert minimal_to_dyck(seq) == word


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "cover", '{"rows": 5}'],
        ["verify", "cover", '{"rows": [[1, "1"]]}'],
        ["convert", "partition", "sequence", "--payload", '{"blocks": 3, "target": [1,2]}'],
        ["convert", "cover", "multigraph", "--payload", '{"rows": [1, 0]}'],
        ["convert", "digraph", "sequence", "--payload",
         '{"k": 2, "arcs": [[1, null]], "target": [1, 2]}'],
        ["convert", "multigraph", "cover", "--payload", '{"k": 2, "edges": {"a": 1}}'],
        ["convert", "partition", "sequence", "--payload", '{"blocks": [[1]], "target": 3}'],
        ["convert", "partition", "sequence", "--payload",
         '{"blocks": [[1]], "target": [1], "b": "1"}'],
        ["convert", "digraph", "sequence", "--payload",
         '{"k": "2", "arcs": [[1, 2]], "target": [2, 1]}'],
        ["convert", "cover", "sequence", "--payload",
         '{"rows": [[1, 0], [0, 1]], "terminal": 5}'],
        ["convert", "cover", "sequence", "--payload",
         '{"rows": [[1, 0], [0, 1]], "terminal": [1, 2], "initial": "12"}'],
        ["convert", "multigraph", "cover", "--payload", '{"k": [2], "edges": [[1, 2]]}'],
        ["convert", "sequence", "dyck", "--payload", '{"b": 2, "cards": 5}'],
        ["convert", "dyck", "sequence", "--payload", '{"dyck": 5}'],
        ["verify", "cover", '{"rows": [[[1]]]}'],
        ["verify", "cover", '{"rows": [["1"]]}'],
        ["verify", "cover", '{"rows": [[null]]}'],
        # convert keeps the interpreter's digit limit on what it parses
        ["convert", "dyck", "sequence", "--payload", '{"dyck": "()", "pad": ' + "1" * 5000 + "}"],
    ],
)
def test_malformed_payloads_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "siteswap", "3,x"], "expected comma-separated integers, got '3,x'\n"),
        (["convert", "dyck", "sequence", "--payload", '{"dyck": '], "payload is not valid JSON: "),
        (["convert", "dyck", "sequence", "--payload", "[1]"], "payload must be a JSON object\n"),
        (["convert", "dyck", "sequence", "--payload", "{}"], "payload is missing 'dyck'\n"),
        (["convert", "dyck", "sequence", "--payload", '{"dyck": ""}'],
         "the empty word has no cards\n"),
        (["count", "qd", "--d", "1", "--n", "5", "--b", "3"], "no closed form for surplus 1\n"),
        (["convert", "partition", "sequence", "--payload", '{"blocks": [[1]], "target": []}'],
         "need at least one ball, got b=0\n"),
        (["convert", "digraph", "sequence", "--payload",
          '{"k": 2, "arcs": [[1, 2]], "target": []}'], "need at least one ball, got b=0\n"),
        (["render", " ".join(["C1"] * 1001), "--b", "1000"],
         "renders draw at most 1000000 tracks (cards times balls), got 1001000\n"),
        # one malformed field of each kind the payload reader checks
        (["convert", "sequence", "dyck", "--payload", '{"b": 2, "cards": 5}'],
         "'cards' must be a string\n"),
        (["convert", "sequence", "dyck", "--payload", '{"b": "2", "cards": "C2"}'],
         "'b' must be an integer\n"),
        (["convert", "partition", "sequence", "--payload", '{"blocks": [[1]], "target": [true]}'],
         "'target' must be a list of integers\n"),
        (["convert", "partition", "sequence", "--payload", '{"blocks": [1], "target": [1]}'],
         "'blocks' must be a list of lists of integers\n"),
        (["verify", "cover", '{"rows": [[1], [0.0]]}'],
         "'rows' must be a list of lists of integers\n"),
        # an edge or arc of three vertices is named, not unpacked
        (["convert", "multigraph", "cover", "--payload", '{"k": 3, "edges": [[1, 2, 3]]}'],
         "edge (1, 2, 3) is not a pair\n"),
        (["convert", "digraph", "sequence", "--payload",
          '{"k": 3, "arcs": [[1, 2, 3]], "target": [1, 2, 3]}'], "arc (1, 2, 3) is not a pair\n"),
    ],
)
def test_unusable_input_is_refused_in_one_line_naming_why(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message) and err.count("\n") == 1


def test_convert_names_the_violated_precondition(capsys):
    payload = json.dumps({"blocks": [[1, 2]], "target": [3, 2, 1]})
    code, _, err = run(capsys, "convert", "partition", "sequence", "--payload", payload)
    assert code == 2 and "blocks cannot reach this arrangement" in err


STRUCTURES = ["partition", "sequence", "dyck", "digraph", "cover", "multigraph"]
CONVERTERS = {  # a valid payload for each pair with a converter
    ("partition", "sequence"): {
        "blocks": [[1, 4, 9], [2, 6], [3, 5, 8], [7]], "target": [3, 1, 4, 2],
    },
    ("sequence", "partition"): {"b": 4, "cards": "C3 C3 C2 C4 C3 C4 C3 C2 C2"},
    ("dyck", "sequence"): {"dyck": "(()())()"},
    ("sequence", "dyck"): {"b": 5, "cards": "C3 C5 C1 C5 C2 C5 C2 C5"},
    ("digraph", "sequence"): {"k": 3, "arcs": [[1, 2], [3, 1]], "target": [1, 2, 3]},
    ("sequence", "digraph"): {"b": 3, "cards": "C3,2 C2,3"},
    ("cover", "sequence"): {"rows": [[1, 0], [0, 1], [1, 1]], "terminal": [1, 2, 3]},
    ("sequence", "cover"): {"b": 2, "cards": "C1,2 C2,1"},
    ("cover", "multigraph"): {"rows": [[1, 0], [0, 1], [1, 1]]},
    ("multigraph", "cover"): {"k": 3, "edges": [[1, 2], [2, 3]]},
}
WRITTEN = {  # the keys each structure is written with
    "partition": {"blocks", "target"}, "sequence": {"b", "cards"}, "dyck": {"dyck"},
    "digraph": {"k", "arcs", "target"}, "cover": {"rows", "terminal"},
    "multigraph": {"k", "edges"},
}


@pytest.mark.parametrize("dest", STRUCTURES)
@pytest.mark.parametrize("source", STRUCTURES)
def test_convert_has_exactly_the_ten_converters(capsys, source, dest):
    # each converter has a sequence side, but for cover and multigraph
    if (source, dest) in CONVERTERS:
        payload = json.dumps(CONVERTERS[source, dest])
        code, out, err = run(capsys, "convert", source, dest, "--payload", payload)
        assert (code, err) == (0, "")
        written = WRITTEN[dest] - ({"terminal"} if source == "multigraph" else set())
        extra = {"start"} if source == "cover" and dest == "sequence" else set()
        assert set(json.loads(out)) == written | extra
    else:
        payload = json.dumps(next(p for (s, _), p in CONVERTERS.items() if s == source))
        assert run(capsys, "convert", source, dest, "--payload", payload) == (
            2, "", f"error: no converter from {source} to {dest}\n")


def test_the_render_flags_are_the_spec_fields(capsys):
    from jugglecards.cards import parse_sequence
    from jugglecards.cli import build_parser
    from jugglecards.svg import RenderSpec, render_svg

    args = vars(build_parser().parse_args(["render", "C1"]))
    fields = set(args) - {"command", "run", "cards", "b", "output"}
    assert fields == set(RenderSpec.__slots__)
    # an unset flag is None, so the spec alone holds the defaults
    assert {args[field] for field in fields} == {None}
    expected = render_svg(parse_sequence("C1", 1), RenderSpec())
    assert run(capsys, "render", "C1") == (0, expected, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "partition", "sequence", "--payload",
         json.dumps({"blocks": [[1]], "target": [1], "b": 10**9})],
        ["census", "--b", str(10**9), "--n", "1", "--perm", "1"],
    ],
)
def test_a_huge_b_is_compared_by_length_first(argv):
    # listing 1..b would need gigabytes; the cap turns that into a MemoryError,
    # which would print "error: out of memory" in place of the refusal
    refusal = {
        "convert": "target (1,) is not a permutation of 1..1000000000",
        "census": "cards throwing 1 of 1000000000 balls are too many to list",
    }[argv[0]]
    done = fresh("-m", "jugglecards.cli", *argv, cap_mb=256)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {refusal}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--b", str(10**9), "--n", "1"],
        ["census", "--b", str(10**9), "--n", "1", "--perm", "id"],
        ["walk", "--b", str(10**9), "--steps", "1"],
        ["walk", "--b", str(10**9), "--steps", "1", "--trials", "3"],
        ["sample", "--b", str(10**9), "--n", "1"],
    ],
)
def test_a_huge_card_family_is_refused_before_it_is_listed(argv):
    # listing b cards, or 1..b for --perm id, would end in a MemoryError
    done = fresh("-m", "jugglecards.cli", *argv, cap_mb=256)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "too many to list" in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["-c", "from jugglecards.counting import gen_stirling as T; print(T(1, 20000, 20000))"],
        ["-m", "jugglecards.cli", "count", "gen-stirling", "--n", "1", "--k", "100000",
         "--m", "100000"],
    ],
)
def test_gen_stirling_of_one_card_builds_one_weight(argv):
    # all m + 1 weights of the one column would take gigabytes; the row
    # before is column 0 alone, so only the weight of j = 0 is built
    done = fresh(*argv, cap_mb=256)
    assert (done.returncode, done.stdout, done.stderr) == (0, "1\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--b", "1", "--n", str(10**7), "--collect"],
        ["census", "--b", "1", "--n", str(3 * 10**6)],
        ["census", "--b", "2", "--n", str(2 * 10**6), "--perm", "id", "--crossings", "2"],
    ],
)
def test_a_huge_census_row_is_refused_before_any_layer(argv):
    # one move-graph layer per card would end in a MemoryError, or run for
    # seconds, under the cap
    done = fresh("-m", "jugglecards.cli", *argv, cap_mb=256)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: rows hold at most 1000000 cards, got n={argv[4]}\n"


def test_a_long_collect_drops_each_search_layer_once_read():
    # the search keeps one dict per depth in each of its passes; kept to
    # the end, the layers of this one-ball row would pass the cap
    argv = ["census", "--b", "1", "--n", "300000", "--collect"]
    done = fresh("-m", "jugglecards.cli", *argv, cap_mb=256)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == '["' + " ".join(["C1"] * 300000) + '"]\n'


@pytest.mark.parametrize("flag, expected", [("--max-crossings", "243"), ("--crossings", "0")])
def test_a_huge_crossing_budget_is_cut_to_what_the_row_can_cross(flag, expected):
    # five cards on three balls cross at most 10 times; a polynomial sized
    # by the budget as given would take about 10**9 coefficients under the cap
    argv = ["census", "--b", "3", "--n", "5", flag, str(10**9)]
    done = fresh("-m", "jugglecards.cli", *argv, cap_mb=256)
    assert (done.returncode, done.stdout, done.stderr) == (0, expected + "\n", "")


def test_a_huge_sampled_row_is_refused_before_any_draw():
    # a billion draws would end in a MemoryError under the cap
    done = fresh("-m", "jugglecards.cli", "sample", "--b", "3", "--n", str(10**9), cap_mb=256)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: sampled rows hold at most 1000000 cards, got n=1000000000\n"


def test_a_huge_monte_carlo_trial_is_refused_before_any_draw():
    # a trial of 10**8 cards would run for minutes; trials stay unbounded
    argv = ["walk", "--b", "3", "--steps", str(10**8), "--trials", "1"]
    done = fresh("-m", "jugglecards.cli", *argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: sampled rows hold at most 1000000 cards, got n=100000000\n"


def test_a_huge_unordered_walk_is_refused_before_its_row_total():
    # C(20, 2) ** 10**9, the walk's row total, would run for minutes and
    # end in a MemoryError under the cap
    argv = ["walk", "--b", "20", "--m", "2", "--unordered", "--steps", str(10**9)]
    done = fresh("-m", "jugglecards.cli", *argv, cap_mb=256)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        "error: a table of the permutations of 20 points reached in 1000000000 steps "
        "would hold more than 1000000 permutations\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "minimal", "C1000000000"],
        ["render", "C3", "--b", str(10**9)],
        ["convert", "sequence", "dyck", "--payload",
         json.dumps({"b": 10**9, "cards": "C1000000000"})],
    ],
)
def test_a_row_over_a_huge_b_is_refused_before_it_is_built(argv):
    # the row's level maps would list 1..b and end in a MemoryError
    done = fresh("-m", "jugglecards.cli", *argv, cap_mb=256)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: cards hold at most 1000000 balls, got b=1000000000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["render", "C1", "--b", "1000000"],
        ["census", "--b", "2", "--n", "1000000", "--collect"],
    ],
)
def test_a_run_out_of_memory_exits_2_with_one_line(argv):
    # at the ball and row bounds, the SVG lines or the move graph take
    # about four times the cap: the render about 1 GB, the census more
    done = fresh("-m", "jugglecards.cli", *argv, cap_mb=256)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")


def test_the_unordered_census_of_one_perm_answers_at_once(capsys):
    # the census engine held all 8! arrangement states for seconds; the tie
    # table holds at most 2**7 states
    argv = ["census", "--b", "8", "--n", "12", "--m", "2", "--unordered", "--perm", "id"]
    start = time.perf_counter()
    assert run(capsys, *argv) == (0, "5958009377752\n", "")
    assert time.perf_counter() - start < 1


def test_the_tie_state_bound_exits_2_with_one_line(capsys):
    built, moves = [], enumeration._tie_moves

    def spy(*args):
        built.append(args)
        return moves(*args)

    argv = ["census", "--b", "8", "--n", "12", "--m", "2", "--unordered", "--perm", "id"]
    with mock.patch.object(enumeration, "_MAX_SUPPORT", 3), \
            mock.patch.object(enumeration, "_tie_moves", side_effect=spy):
        assert run(capsys, *argv) == (2, "", (
            "error: a table of the tie states of 8 points after 12 cards "
            "would hold more than 3 states\n"))
    # one state after the first card and three after the second: the third
    # layer is refused while the second layer's moves are built
    assert len(built) <= 5


def test_the_unordered_walk_on_nine_balls_fits_under_the_cap():
    code = (
        "from jugglecards.stochastic import card_distribution, exact_step_distribution, "
        "single_cycle_mass; "
        "print(single_cycle_mass(exact_step_distribution("
        "card_distribution(9, 2, ordered=False), 6)))"
    )
    done = fresh("-c", code, cap_mb=256)
    assert (done.returncode, done.stdout, done.stderr) == (0, "1/9\n", "")


def test_verify_siteswap(capsys):
    code, out, _ = run(capsys, "verify", "siteswap", "3,4,5")
    assert code == 0
    assert json.loads(out) == {
        "kind": "siteswap", "valid": True, "reason": None, "balls": 4,
    }
    code, out, _ = run(capsys, "verify", "siteswap", "3,5,4", "--human")
    assert code == 1 and out.startswith("fail:") and "land together" in out


@pytest.mark.parametrize(
    "heights, reason",
    [
        ("4,3,2", "throws 1 and 2 land together (mod 3)"),
        ("1,1,2", "throws 1 and 3 land together (mod 3)"),
        ("2,3,1,1", "throws 2 and 4 land together (mod 4)"),
    ],
)
def test_verify_siteswap_names_the_first_two_throws_landing_together(capsys, heights, reason):
    out = json.dumps({"kind": "siteswap", "reason": reason, "valid": False}, sort_keys=True)
    assert run(capsys, "verify", "siteswap", heights) == (1, out + "\n", "")


def test_verify_dyck(capsys):
    code, out, _ = run(capsys, "verify", "dyck", "((()()))(())(())")
    assert code == 0
    assert json.loads(out)["peaks"] == 4
    code, out, _ = run(capsys, "verify", "dyck", "(()")
    assert code == 1 and "unclosed" in json.loads(out)["reason"]
    code, out, _ = run(capsys, "verify", "dyck", ")(")
    assert code == 1 and "unmatched" in json.loads(out)["reason"]


def test_verify_cover(capsys):
    code, out, _ = run(capsys, "verify", "cover", '{"rows": [[1,0],[0,1],[0,1]]}')
    assert code == 1 and json.loads(out)["valid"] is False
    assert "column" in json.loads(out)["reason"]
    code, out, _ = run(capsys, "verify", "cover", '{"rows": [[1,1],[1,0],[0,1]]}')
    assert code == 0 and json.loads(out) == {
        "kind": "cover", "valid": True, "reason": None, "k": 3, "n": 2, "m": 2,
    }


@pytest.mark.parametrize(
    "rows, reason",
    [
        ([], "cover needs at least one row"),
        ([[]], "cover needs at least one column"),
        ([[1, 0], [1]], "ragged cover matrix"),
        ([[1, 2], [1, 0]], "cover entries must be 0 or 1"),
        ([[1, 0], [0, 0], [0, 1]], "cover has an all-zero row"),
        ([[1, 1], [1, 0]], "column sums differ: [1, 2]"),
    ],
)
def test_verify_cover_names_each_refusal(capsys, rows, reason):
    code, out, err = run(capsys, "verify", "cover", json.dumps({"rows": rows}))
    assert (code, err) == (1, "")
    assert json.loads(out) == {"kind": "cover", "valid": False, "reason": reason}


def test_verify_minimal(capsys):
    code, out, _ = run(capsys, "verify", "minimal", "C1")
    assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = run(capsys, "verify", "minimal", "C3 C3", "--b", "3")
    assert code == 1
    assert "starting levels" in json.loads(out)["reason"]
    code, out, _ = run(capsys, "verify", "minimal", "C1 C1", "--b", "2")
    assert code == 1 and "C2 is never used" in json.loads(out)["reason"]
    code, out, _ = run(capsys, "verify", "minimal", "C2,1")
    assert code == 1 and json.loads(out)["reason"] == "multiplex cards are not allowed"
    code, out, _ = run(capsys, "verify", "minimal", "C2 C2 C2 C2")
    assert code == 1 and json.loads(out)["reason"] == "crossing number is 4, not 2"


def test_render_writes_the_golden_document(capsys, tmp_path):
    out_file = tmp_path / "row.svg"
    code, out, _ = run(
        capsys, "render", "C3 C3 C2 C4 C3 C4 C3 C2 C2", "--output", str(out_file)
    )
    assert code == 0 and out == ""
    assert out_file.read_text() == (GOLDEN / "nine_card_row.svg").read_text()
    code, out, _ = run(capsys, "render", "C3", "--b", "4")
    assert out == (GOLDEN / "single_card.svg").read_text()


def test_render_rejects_nonpositive_dimensions(capsys):
    code, _, err = run(capsys, "render", "C3", "--card-width", "0")
    assert code == 2 and "card_width" in err


@pytest.mark.parametrize("value", [10**400, 10**6 + 1])
@pytest.mark.parametrize("flag", ["--card-width", "--card-height", "--level-spacing"])
def test_render_refuses_a_dimension_past_a_million_pixels(capsys, flag, value):
    code, out, err = run(capsys, "render", "C3", "--b", "4", flag, str(value))
    assert (code, out) == (2, "")
    field = flag[2:].replace("-", "_")
    assert err == f"error: {field} must be at most 1000000 px, got {value}\n"


def test_render_into_a_missing_directory_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "row.svg"
    code, out, err = run(capsys, "render", "C2", "--b", "2", "--output", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_census_counts_and_collects(capsys):
    code, out, _ = run(
        capsys, "census", "--b", "2", "--n", "6",
        "--crossings", "4", "--perm", "id", "--uses-top",
    )
    assert (code, out) == (0, "15\n")
    code, out, _ = run(
        capsys, "census", "--b", "2", "--n", "4",
        "--crossings", "2", "--perm", "id", "--uses-top", "--collect",
    )
    rows = json.loads(out)
    assert len(rows) == 6 and all("C2" in row for row in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["--b", "0", "--n", "4"],
        ["--b", "3", "--n", "-1"],
        ["--b", "3", "--n", "4", "--m", "5"],
        ["--b", "3", "--n", "4", "--thrown", "-1"],
        ["--b", "3", "--n", "4", "--max-crossings", "-1"],
        ["--b", "3", "--n", "0"],
    ],
)
def test_census_rejects_bad_queries_with_one_line(capsys, argv):
    code, out, err = run(capsys, "census", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_census_has_no_jobs_flag_or_variable(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--b", "3", "--n", "4", "--collect", "--jobs", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    plain = run(capsys, "census", "--b", "3", "--n", "4", "--collect")
    monkeypatch.setenv("JUGGLECARDS_JOBS", "abc")
    assert run(capsys, "census", "--b", "3", "--n", "4", "--collect") == plain


@pytest.mark.parametrize(
    "argv, query, size",
    [
        (["--b", "2", "--n", "3", "--perm", "id", "--crossings", "99"],
         CensusQuery(b=2, n=3, perm=(1, 2), crossings=99), 0),
        (["--b", "2", "--n", "3", "--crossings", "0"], CensusQuery(b=2, n=3, crossings=0), 1),
        (["--b", "2", "--n", "3"], CensusQuery(b=2, n=3), 8),
        # multiplex names such as C2,3, from ordered and unordered families
        (["--b", "3", "--n", "2", "--m", "2"], CensusQuery(b=3, n=2, m=2), 36),
        (["--b", "4", "--n", "3", "--m", "2", "--unordered", "--thrown", "3",
          "--max-crossings", "4"],
         CensusQuery(b=4, n=3, m=2, ordered=False, thrown=3, max_crossings=4), 43),
        (["--b", "3", "--n", "2", "--m", "2", "--unordered", "--thrown", "1"],
         CensusQuery(b=3, n=2, m=2, ordered=False, thrown=1), 0),
    ],
)
def test_census_collect_streams_the_bytes_of_the_whole_list(capsys, argv, query, size):
    rows = [str(seq) for seq in census(query, True)]
    assert len(rows) == size
    argv = ["census", *argv, "--collect"]
    assert run(capsys, *argv) == (0, json.dumps(rows, sort_keys=True) + "\n", "")
    assert run(capsys, *argv, "--human") == (0, "\n".join(rows) + "\n", "")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--b", "4", "--n", "9", "--crossings", "12"],
         "20f83fc7e42772bba51f79b102ad61b6bf1ef2511fad1578ee9ac0567d9e3f98"),
        (["--b", "4", "--n", "9", "--crossings", "12", "--human"],
         "23978a1ba079acc9a3da832472873b9f8f410b5b33fda25d953875f4f316e02c"),
        (["--b", "4", "--n", "8", "--crossings", "14"],
         "2d3651f093335f81292fa7b072fa2b2c8a41e672805ead9c3f277f1cc4f7779a"),
        (["--b", "4", "--n", "8", "--crossings", "14", "--human"],
         "40e0d96e3433d0600581708c8c8f3a89f94d3dde85cd31052d7144daf06f4d3a"),
    ],
)
def test_census_collect_bytes_are_pinned_where_tails_start_mid_row(capsys, argv, digest):
    # rows are a walked prefix of a few cards and a listed tail; these row
    # spaces (4**9 and 4**8) are past the seeded comparison with the oracle
    code, out, err = run(capsys, "census", *argv, "--perm", "id", "--uses-top", "--collect")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("human", [[], ["--human"]])
def test_census_collect_into_a_closed_pipe_exits_1_quietly(human):
    argv = ["census", "--b", "3", "--n", "12", "--collect", *human]
    with subprocess.Popen(
        [sys.executable, "-m", "jugglecards.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(20)
        proc.stdout.close()
        assert proc.wait(timeout=30) == 1
        assert proc.stderr.read() == b""


def test_sample_is_reproducible(capsys):
    code, out, _ = run(capsys, "sample", "--b", "4", "--n", "10", "--seed", "7")
    assert code == 0
    assert json.loads(out) == {
        "b": 4, "cards": "C4 C1 C3 C4 C3 C2 C3 C3 C2 C2", "seed": 7,
    }
    _, again, _ = run(capsys, "sample", "--b", "4", "--n", "10", "--seed", "7")
    assert again == out
    _, human, _ = run(
        capsys, "sample", "--b", "4", "--n", "10", "--seed", "7", "--human"
    )
    assert human == "C4 C1 C3 C4 C3 C2 C3 C3 C2 C2\n"


def test_walk_exact_reports_the_one_over_b_mass(capsys):
    code, out, _ = run(capsys, "walk", "--b", "3", "--steps", "5")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["single_cycle_mass"] == "1/3"
    assert parsed["cycle_counts"]["1"] == "1/3"
    shares = [Fraction(v) for v in parsed["distribution"].values()]
    assert len(shares) == 6 and sum(shares) == 1
    code, out, _ = run(capsys, "walk", "--b", "3", "--steps", "5", "--human")
    assert out.splitlines()[0] == "single-cycle mass: 1/3"


def test_walk_monte_carlo_is_reproducible(capsys):
    argv = ["walk", "--b", "3", "--steps", "4", "--trials", "50", "--seed", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["single_cycle_mass"] == "21/50"
    _, again, _ = run(capsys, *argv)
    assert again == out


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--b", "3", "--n", "4", "--m", "5"],
        ["sample", "--b", "0", "--n", "4"],
        ["walk", "--b", "3", "--steps", "2", "--m", "5", "--trials", "5"],
        ["walk", "--b", "4", "--steps", "-1", "--trials", "10"],
        ["walk", "--b", "12", "--steps", "12"],  # 12! permutations
    ],
)
def test_walks_and_samples_reject_bad_families_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_count_builds_long_stirling_rows_without_recursion(capsys):
    n = 5000
    code, out, _ = run(capsys, "count", "stirling2", "--n", str(n), "--k", "3")
    assert code == 0 and int(out) == (3**n - 3 * 2**n + 3) // 6
    code, out, _ = run(capsys, "count", "gen-stirling", "--n", "3000", "--k", "2", "--m", "1")
    assert code == 0 and int(out) == 2**2999 - 1


def test_count_refuses_a_stirling_band_past_a_million_entries(capsys):
    code, out, err = run(capsys, "count", "stirling1", "--n", "4000", "--k", "2000")
    assert (code, out) == (2, "")
    assert err.startswith("error: the Stirling band for n=4000, k=2000 ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["count", "stirling2", "--n", "14300", "--k", "2"], None, 2**14299 - 1),
        (["census", "--b", "2", "--n", "14300"], None, 2**14300),
        (["walk", "--b", "2", "--steps", "9100", "--weights", "1,2"], "single_cycle_mass",
         Fraction(3**9100 - 1, 2 * 3**9100)),  # an odd count of the 2-in-3 swaps
        (["count", "js", "--arrangement", "2,1", "--n", "14300", "--m", "1"], None, 2**14299),
    ],
    ids=["stirling2", "census", "walk", "js"],
)
def test_results_past_the_interpreter_digit_limit_print_in_full(capsys, argv, key, value):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert limit != 0  # no earlier main left the limit lifted
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    # Decimal reads and compares integers of any length exactly
    printed = out.strip() if key is None else json.loads(out)[key]
    num, _, den = printed.partition("/")
    value = Fraction(value)
    assert (Decimal(num), Decimal(den or 1)) == (value.numerator, value.denominator)


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--b", "2", "--n", "3", "--weights", "18446744073709551616,1"],
        ["walk", "--b", "3", "--steps", "2", "--trials", "5",
         "--weights", "18446744073709551615,18446744073709551615,5"],
    ],
)
def test_weights_past_one_word_are_rejected_not_drawn_forever(argv):
    # integer weights totalling more than 2**64 once made every draw a
    # rejection; the timeout turns such a hang into a failure
    done = fresh("-m", "jugglecards.cli", *argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv, total",
    [
        (["sample", "--b", "2", "--n", "3", "--weights", "18446744073709551616,1"],
         2**64 + 1),
        (["walk", "--b", "3", "--steps", "2", "--trials", "5",
          "--weights", "18446744073709551615,18446744073709551615,5"], 2**65 + 3),
    ],
)
def test_weight_totals_past_one_word_name_the_weights(capsys, argv, total):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: card weights total {total} as integers, more than 2**64\n"


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "jugglecards 0.1.0\n"


_LOADED = """
import contextlib, io, json, sys
from jugglecards import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(json.loads(sys.argv[1]))
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""
SUBMODULES = {"cards", "counting", "enumeration", "bijections", "stochastic", "rng", "svg"}
# stdlib modules that cost milliseconds to import and that no subcommand needs
HEAVY = {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["--version"], SUBMODULES),
        (["count", "narayana", "--b", "5", "--n", "8"], SUBMODULES - {"counting"}),
        (["count", "js", "--b", "3", "--n", "4", "--m", "1", "--arrangement", "2,3,1"],
         SUBMODULES - {"counting", "cards"}),
        (["census", "--b", "3", "--n", "4"], {"bijections", "stochastic", "svg", "rng"}),
        (["census", "--b", "3", "--n", "4", "--collect"], {"bijections", "stochastic", "svg", "rng"}),
        (["sample", "--b", "3", "--n", "4"], {"bijections", "svg", "counting"}),
        (["walk", "--b", "3", "--steps", "2"], {"bijections", "svg"}),
        (["walk", "--b", "3", "--steps", "2", "--trials", "5"], {"bijections", "svg", "counting"}),
        (["render", "C3 C2"], {"counting", "enumeration", "stochastic", "bijections"}),
        (["verify", "minimal", "C3 C5 C1 C5 C2 C5 C2 C5"], SUBMODULES - {"cards", "bijections"}),
        (["convert", "dyck", "sequence", "--payload", '{"dyck": "(()())()"}'],
         SUBMODULES - {"cards", "bijections"}),
    ],
)
def test_each_subcommand_loads_only_the_modules_it_runs(argv, unused):
    done = fresh("-c", _LOADED, json.dumps(argv))
    code, loaded = json.loads(done.stdout)
    assert code == 0
    ours = {m for m in loaded if m.split(".")[0] == "jugglecards"}
    assert {"jugglecards", "jugglecards.cli"} <= ours
    assert ours - {"jugglecards", "jugglecards.cli"} <= {
        "jugglecards." + name for name in SUBMODULES - unused
    }
    bare = fresh("-c", "import json, sys; print(json.dumps(sorted(sys.modules)))")
    assert HEAVY & set(loaded) <= set(json.loads(bare.stdout))
    if argv[0] == "count":
        assert "fractions" not in loaded


# A hypothesis fuzz of main over malformed argv and payloads, for every
# subcommand: a valid command with some flags or payload fields replaced by
# junk.  Sizes stay at b, n <= 6; census takes m <= 2 and n <= 3, so a
# --collect lists at most 30**3 rows.
_FUZZ = r"""
import contextlib, io, json, sys
from hypothesis import HealthCheck, given, settings, strategies as st
from jugglecards.cli import main

size = st.sampled_from(["1", "2", "3", "4", "5", "6", "0", "-1"])
junk = st.sampled_from([
    "", "x", "1.5", "id", "0,0", "1,2", "2,1,3", "3,1,2", "3,4,5", "5,3,1",
    "C1", "C2 C1", "C3 C1 C2", "C2,3 C1", "C9", "C0", "((", "(())()", ")(",
    "{", "[1]", "null", "{}",
])
value = size | size | size | junk
leaf = (
    st.integers(1, 6) | st.integers(1, 6) | st.integers(-1, 0)
    | st.none() | st.booleans() | st.just(1.5) | junk
)
field = st.recursive(leaf, lambda inner: st.lists(inner, max_size=4), max_leaves=10)
keys = [
    "blocks", "target", "b", "cards", "dyck", "k", "arcs", "rows", "terminal", "initial", "edges",
]
payloads = {  # a valid payload for each converter, and a pair with no converter
    ("partition", "sequence"): {
        "blocks": [[1, 4, 9], [2, 6], [3, 5, 8], [7]], "target": [3, 1, 4, 2],
    },
    ("sequence", "partition"): {"b": 4, "cards": "C3 C3 C2 C4 C3 C4 C3 C2 C2"},
    ("dyck", "sequence"): {"dyck": "(()())()"},
    ("sequence", "dyck"): {"b": 5, "cards": "C3 C5 C1 C5 C2 C5 C2 C5"},
    ("digraph", "sequence"): {"k": 3, "arcs": [[1, 2], [3, 1]], "target": [1, 2, 3]},
    ("sequence", "digraph"): {"b": 3, "cards": "C3,2 C2,3"},
    ("cover", "sequence"): {"rows": [[1, 0], [0, 1], [1, 1]], "terminal": [1, 2, 3]},
    ("sequence", "cover"): {"b": 2, "cards": "C1,2 C2,1"},
    ("cover", "multigraph"): {"rows": [[1, 0], [0, 1], [1, 1]]},
    ("multigraph", "cover"): {"k": 3, "edges": [[1, 2], [2, 3]]},
    ("cover", "cover"): {},
}
texts = {  # a valid object for each check
    "siteswap": "5,3,1", "dyck": "(()())", "minimal": "C3 C5 C1 C5 C2 C5 C2 C5",
    "cover": '{"rows": [[1, 0], [0, 1], [1, 1]]}',
}
counts = [
    "stirling2", "gen-stirling", "js", "narayana", "g", "p0", "p2", "p4", "qd", "stirling1", "nope",
]


def payload(pair):
    edits = st.dictionaries(st.sampled_from(keys), field, max_size=2)
    return edits.map(lambda edit: json.dumps({**payloads[pair], **edit})) | junk


def flags(*names, values=value):
    return st.tuples(*(st.tuples(st.just(name), values) for name in names)).map(
        lambda pairs: [x for pair in pairs for x in pair]
    )


family = {"--b": value, "--human": None, "--unordered": None}
draws = {**family, "--m": value, "--weights": value, "--seed": value}
# each subcommand: a strategy for its leading arguments, and its optional
# flags with a strategy for each value (None for a switch)
commands = {
    "count": (
        st.tuples(
            st.sampled_from(counts).map(lambda kind: [kind]),
            flags("--n", "--k", "--b", "--m", "--d"),
        ),
        {"--arrangement": value, "--n": value},
    ),
    "convert": (
        st.sampled_from(sorted(payloads)).flatmap(
            lambda pair: st.tuples(st.just(list(pair)), flags("--payload", values=payload(pair)))
        ),
        {"--human": None},
    ),
    "verify": (
        st.sampled_from(sorted(texts)).flatmap(
            lambda kind: st.tuples(
                st.just([kind]), st.lists(st.just(texts[kind]) | junk, max_size=1)
            )
        ),
        {"--b": value, "--human": None},
    ),
    "render": (
        st.tuples((st.just("C3 C3 C2 C4") | junk).map(lambda cards: [cards]), st.just([])),
        {
            "--b": value, "--card-width": value, "--card-height": value,
            "--level-spacing": value, "--no-ball-labels": None,
        },
    ),
    "census": (
        st.tuples(
            flags("--b"), flags("--n", values=st.sampled_from(["1", "2", "3", "0", "-1"]) | junk)
        ),
        {
            **family, "--m": st.sampled_from(["1", "2", "0", "-1"]) | junk, "--perm": value,
            "--crossings": value, "--max-crossings": value, "--thrown": value,
            "--primitive": None, "--no-uses-top": None, "--collect": None,
        },
    ),
    "sample": (st.tuples(flags("--b"), flags("--n")), draws),
    "walk": (st.tuples(flags("--b"), flags("--steps")), {**draws, "--trials": value}),
}


def argv(name):
    head, options = commands[name]
    option = st.sampled_from(sorted(options)).flatmap(
        lambda flag: st.just([flag]) if options[flag] is None else flags(flag, values=options[flag])
    )
    return st.tuples(head, st.lists(option, max_size=4)).map(
        lambda t: [name, *t[0][0], *t[0][1], *(x for opt in t[1] for x in opt)]
    )


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.sampled_from(sorted(commands)).flatmap(argv), junk)
def fuzz(args, stdin):
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(stdin)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse refuses with 2
            code = exc.code
    assert code in (0, 1, 2), (args, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (args, err.getvalue())
    assert "out of memory" not in err.getvalue(), args


fuzz()
print("ok")
"""


def test_malformed_argv_and_payloads_exit_0_1_or_2_without_a_traceback():
    done = fresh("-c", _FUZZ, cap_mb=512)
    assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr[-3000:]
