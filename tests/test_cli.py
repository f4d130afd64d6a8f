import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jugglecards.bijections import dyck_to_minimal, minimal_to_dyck
from jugglecards.cli import main
from jugglecards.enumeration import CensusQuery, census

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def fresh(*args):
    """A fresh interpreter on this checkout's ``src`` running ``args``."""
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=30,
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
    ],
)
def test_malformed_payloads_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_convert_names_the_violated_precondition(capsys):
    payload = json.dumps({"blocks": [[1, 2]], "target": [3, 2, 1]})
    code, _, err = run(capsys, "convert", "partition", "sequence", "--payload", payload)
    assert code == 2 and "blocks cannot reach this arrangement" in err


def test_verify_siteswap(capsys):
    code, out, _ = run(capsys, "verify", "siteswap", "3,4,5")
    assert code == 0
    assert json.loads(out) == {
        "kind": "siteswap", "valid": True, "reason": None, "balls": 4,
    }
    code, out, _ = run(capsys, "verify", "siteswap", "3,5,4", "--human")
    assert code == 1 and out.startswith("fail:") and "land together" in out


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


def test_verify_minimal(capsys):
    code, out, _ = run(capsys, "verify", "minimal", "C1")
    assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = run(capsys, "verify", "minimal", "C3 C3", "--b", "3")
    assert code == 1
    assert "starting levels" in json.loads(out)["reason"]
    code, out, _ = run(capsys, "verify", "minimal", "C1 C1", "--b", "2")
    assert code == 1 and "C2 is never used" in json.loads(out)["reason"]


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
        (["--perm", "id", "--crossings", "99"],
         CensusQuery(b=2, n=3, perm=(1, 2), crossings=99), 0),
        (["--crossings", "0"], CensusQuery(b=2, n=3, crossings=0), 1),
        ([], CensusQuery(b=2, n=3), 8),
    ],
)
def test_census_collect_streams_the_bytes_of_the_whole_list(capsys, argv, query, size):
    rows = [str(seq) for seq in census(query, True)]
    assert len(rows) == size
    argv = ["census", "--b", "2", "--n", "3", *argv, "--collect"]
    assert run(capsys, *argv) == (0, json.dumps(rows, sort_keys=True) + "\n", "")
    assert run(capsys, *argv, "--human") == (0, "\n".join(rows) + "\n", "")


@pytest.mark.parametrize("human", [[], ["--human"]])
def test_census_collect_into_a_closed_pipe_exits_1_quietly(human):
    argv = ["census", "--b", "3", "--n", "10", "--collect", *human]
    with subprocess.Popen(
        [sys.executable, "-m", "jugglecards.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(20)
        proc.stdout.close()
        assert proc.wait(timeout=30) == 1
        assert b"Traceback" not in proc.stderr.read()


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
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "jugglecards")]))
"""
SUBMODULES = {"cards", "counting", "enumeration", "bijections", "stochastic", "rng", "svg"}


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["--version"], SUBMODULES),
        (["count", "narayana", "--b", "5", "--n", "8"], SUBMODULES - {"counting"}),
        (["census", "--b", "3", "--n", "4"], {"bijections", "stochastic", "svg", "rng"}),
        (["census", "--b", "3", "--n", "4", "--collect"], {"bijections", "stochastic", "svg", "rng"}),
        (["sample", "--b", "3", "--n", "4"], {"bijections", "svg", "counting"}),
        (["walk", "--b", "3", "--steps", "2"], {"bijections", "svg"}),
        (["walk", "--b", "3", "--steps", "2", "--trials", "5"], {"bijections", "svg", "counting"}),
        (["render", "C3 C2"], {"counting", "enumeration", "stochastic", "bijections"}),
    ],
)
def test_each_subcommand_loads_only_the_modules_it_runs(argv, unused):
    done = fresh("-c", _LOADED, json.dumps(argv))
    code, loaded = json.loads(done.stdout)
    assert code == 0
    assert {"jugglecards", "jugglecards.cli"} <= set(loaded)
    assert set(loaded) - {"jugglecards", "jugglecards.cli"} <= {
        "jugglecards." + name for name in SUBMODULES - unused
    }
