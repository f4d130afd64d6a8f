"""Smoke and schema test of the benchmark harness.

Runs every workload at tiny sizes (``--smoke``) and checks that the last
line of output has the shape ``BENCHMARK.json`` declares and that the
run's environment is recorded.  It makes no timing assertions.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(out, workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "workload, trace", [("census", 0), ("walk", 0), ("rows", 0), ("cli", 1)]
)
def test_smoke_run_reports_declared_metrics(tmp_path, workload, trace):
    result = run(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    record = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert {"python", "nproc", "git_revision", "loadavg_at_start", "seed"} <= set(
        record["env"]
    )
    if trace:
        spans = (tmp_path / f"{workload}-seed3-trace1-spans.jsonl").read_text().splitlines()
        assert {"name", "start_ns", "end_ns", "parent", "op"} == set(json.loads(spans[0]))


def test_benchmark_json_names_every_workload():
    help_text = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--help"],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    choices = help_text.split("--workload {", 1)[1].split("}", 1)[0].split(",")
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(choices)
    assert SPEC["command"] == ["python3", "bench/run.py"]
