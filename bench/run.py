"""Run one jugglecards benchmark workload and print its metrics.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Each run is one closed loop with one client: the next op starts when
the previous one has returned and been checked.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` interleaves untraced and traced
cycles and prints the per-layer metrics from the spans instead.  Every
metric is printed as ``<workload> <name> <value> <unit>``; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results, the run's environment and, for traced runs, the
spans go to ``bench/out/``.  See ``bench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import oracles  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TAIL_LADDER = (5000, 7500, 9000, 9500, 9900, 9990, 9999)  # percentiles, in 1/100 %
SETUP_REPEATS = 5
HARD_STOP_S = 30  # past --seconds, stop even inside a cycle
PROBE_REPEATS = 5
# reference jobs, their usual times on the 2-core box the bounds were set
# on, and how often they are sampled
LOOP_S, LOOP_EVERY_S = 0.001, 0.05
START_S, START_EVERY_S = 0.05, 1.0
SPEED_WINDOW = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cards.calls": "count",
    "cards.self_ms": "ms",
    "counting.calls": "count",
    "counting.self_ms": "ms",
    "enumeration.count_ms": "ms",
    "enumeration.collect_ms": "ms",
    "enumeration.dp_ms": "ms",
    "enumeration.rows_space": "count",
    "enumeration.rows_matched": "count",
    "enumeration.match_ratio": "ratio",
    "enumeration.jobs2_speedup": "ratio",
    "stochastic.exact_ms": "ms",
    "stochastic.support_states": "count",
    "stochastic.mc_ms": "ms",
    "stochastic.trials": "count",
    "rng.draws": "count",
    "rng.sample_ms": "ms",
    "bijections.encode_ms": "ms",
    "bijections.decode_ms": "ms",
    "bijections.dyck_ms": "ms",
    "bijections.cards_converted": "count",
    "svg.calls": "count",
    "svg.self_ms": "ms",
    "svg.bytes_out": "bytes",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.count_ms": "ms",
    "cli.convert_ms": "ms",
    "cli.verify_ms": "ms",
    "cli.render_ms": "ms",
    "cli.census_ms": "ms",
    "cli.sample_ms": "ms",
    "cli.walk_ms": "ms",
    "cli.known_failures": "count",
    "check.self_ms": "ms",
    "trace.overhead_pct": "%",
}

# library functions whose spans make up each timed per-layer metric
SPAN_GROUPS = {
    "enumeration.count_ms": ("enumeration", {"census", "cycle_census"}),
    "enumeration.collect_ms": ("enumeration", {"enumerate_minimal", "enumerate_plus"}),
    "enumeration.dp_ms": ("enumeration", {"count_by_permutation"}),
    "stochastic.exact_ms": ("stochastic", {"card_distribution", "exact_step_distribution"}),
    "stochastic.mc_ms": ("stochastic", {"estimate_single_cycle_probability"}),
    "rng.sample_ms": ("stochastic", {"sample_sequence"}),
    "bijections.encode_ms": ("bijections", {
        "sequence_to_partition", "sequence_to_family", "sequence_to_cover",
        "decompose_plus_two"}),
    "bijections.decode_ms": ("bijections", {
        "partition_to_sequence", "family_to_sequence", "cover_to_sequence",
        "compose_plus_two"}),
    "bijections.dyck_ms": ("bijections", {"minimal_to_dyck", "dyck_to_minimal"}),
}
CLI_SUBCOMMANDS = ("count", "convert", "verify", "render", "census", "sample", "walk")
COUNTERS = (
    "enumeration.rows_space", "enumeration.rows_matched", "stochastic.support_states",
    "stochastic.trials", "rng.draws", "bijections.cards_converted", "svg.bytes_out",
)


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def import_library():
    """Import jugglecards from this checkout's ``src`` with cold memo tables."""
    for name in [n for n in sys.modules if n.split(".")[0] == "jugglecards"]:
        del sys.modules[name]
    modules = {
        name: importlib.import_module("jugglecards." + name) for name in tracing.MODULES
    }
    package = sys.modules["jugglecards"]
    if Path(package.__file__).resolve().parent != SRC / "jugglecards":
        raise ImportError(f"jugglecards came from {package.__file__}, not {SRC}")
    return package, modules


def set_up(name, spec, seed, smoke, python, tracer=None):
    """Import, then build the cycle pool with expected results.

    Returns the pool, the library modules and the seconds the build took.
    """
    package, modules = import_library()
    lib = SimpleNamespace(
        L=tracing.layers(modules, python.cli, tracer),
        CensusQuery=package.CensusQuery,
        CardSequence=package.CardSequence,
        Card=package.Card,
        CoverMatrix=package.CoverMatrix,
        cli_main=importlib.import_module("jugglecards.cli").main if name == "cli" else None,
        golden_svg=(ROOT / "tests" / "golden" / "nine_card_row.svg").read_text()
        if name == "rows" else None,
        memo={},
    )
    start = time.perf_counter()
    pool = [
        spec.build(lib, random.Random(f"{name}/{seed}/{i}"), smoke)
        for i in range(1 if smoke else spec.pool)
    ]
    return pool, modules, time.perf_counter() - start


def reference_loop():
    """Fixed interpreter work: tuples, dict updates, integer arithmetic."""
    table = {}
    for i in range(3000):
        key = (i & 7, i & 3, i % 5)
        table[key] = table.get(key, 0) + i * 3
    return len(table)


class Speed:
    """How fast the shared machine runs right now, by a fixed reference job.

    The host's speed swings by a third from one 10 s window to the next
    as other tenants come and go, and every op swings with it.  A time
    multiplied by :meth:`scale_after` just after it was measured is
    expressed at reference speed: as if the reference job took
    ``nominal_s``.  In-process ops are referred to :func:`reference_loop`;
    ``cli`` ops, which are mostly interpreter start-up, to ``python -c pass``.
    """

    def __init__(self, reference, nominal_s, every_s):
        self.reference = reference
        self.nominal_s = nominal_s
        self.every_s = every_s
        self.recent = collections.deque(maxlen=SPEED_WINDOW)
        self.samples = []
        self.last = -math.inf

    def tick(self, fresh=False):
        """Time the reference job if the last sample is stale, or always."""
        if fresh or time.perf_counter() - self.last >= self.every_s:
            start = time.perf_counter()
            self.reference()
            elapsed = time.perf_counter() - start
            self.recent.append(elapsed)
            self.samples.append(elapsed)
            self.last = time.perf_counter()

    def scale(self):
        """Factor from the latest samples."""
        return self.nominal_s / statistics.median(self.recent)

    def scale_after(self, elapsed):
        """Factor for a time just measured.

        An op longer than the sampling interval is bracketed by the
        sample taken just before it and a fresh one just after it.
        """
        if elapsed < self.every_s:
            return self.scale()
        before = self.recent[-1]
        self.tick(fresh=True)
        return self.nominal_s / ((before + self.recent[-1]) / 2)


class Loop:
    """Runs cycles of ops, checks them and keeps the tallies."""

    def __init__(self, timeout_s, hard_stop, speed):
        self.timeout_s = timeout_s
        self.hard_stop = hard_stop
        self.speed = speed
        # (slot, seconds, seconds at reference speed) per op; a slot is a
        # position in the cycle
        self.times = []
        self.attempted = self.failed = 0
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.errors = []

    def cycle(self, ops, L, tracer=None, cycle_id=0):
        ctx = {}
        for index, op in enumerate(ops):
            if time.perf_counter() > self.hard_stop:
                return False
            if tracer:
                tracer.op = f"{cycle_id}:{index}"
            with self._span(tracer, "op." + op.kind):
                self.op(index, op, L, ctx, tracer)
        return True

    @staticmethod
    def _span(tracer, name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    def op(self, slot, op, L, ctx, tracer):
        result, error = None, None
        self.speed.tick()
        signal.setitimer(signal.ITIMER_REAL, self.timeout_s)
        start = time.perf_counter()
        try:
            try:
                result = op.call(L, ctx)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            error = f"timed out after {self.timeout_s} s"
        except Exception as exc:  # any library failure is a failed op
            error = repr(exc)
        elapsed = time.perf_counter() - start
        self.times.append((slot, elapsed, elapsed * self.speed.scale_after(elapsed)))
        self.attempted += 1
        if error is None:
            try:
                with self._span(tracer, "check"):
                    good = op.check(result, ctx)
            except Exception as exc:
                error = "check raised " + repr(exc)
            else:
                error = None if good else "wrong result"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{op.kind}: {error}")
        elif tracer and op.counters:
            for key, value in op.counters(result).items():
                self.counters[key] += value


def typical_times(samples):
    """Each op's time replaced by the median time of its slot.

    Every cycle runs the same slots, with inputs of the same cost, so a
    slot's median is its typical time.  Bursts of noise from other
    tenants of the machine, which swing single ops by a third, then do
    not swing the run's figures.
    """
    by_slot = {}
    for slot, seconds in samples:
        by_slot.setdefault(slot, []).append(seconds)
    median = {slot: statistics.median(times) for slot, times in by_slot.items()}
    return [median[slot] for slot, _ in samples]


def end_to_end(samples, setups, peak_rss_mb):
    """The end-to-end figures from (slot, seconds) samples and set-up times.

    The median is taken over the ops as timed: one op's noise moves it
    little, while a median of slot medians would sit between two slots.
    Throughput and tail come from slot medians, which bursts do not move.
    """
    times = typical_times(samples)
    percentile, tail_s = tail(times)
    return percentile, {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(seconds for _, seconds in samples) * 1000,
        "op_tail_ms": tail_s * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }


def tail(times):
    """(percentile, value) for the highest ladder percentile with >= 10 samples above."""
    ordered = sorted(times)
    n = len(ordered)
    best = (100, ordered[-1])
    for q in TAIL_LADDER:
        rank = max(1, -(-n * q // 10000))  # nearest rank
        if n - rank >= 10:
            best = (q / 100, ordered[rank - 1])
    return best


def run_untraced(pool, L, loop, seconds):
    """Whole cycles until ``seconds`` have passed at reference speed.

    Timing the run at reference speed keeps the number of cycles, and so
    the tail percentile the run can report, the same when the host slows.
    """
    clock, i = 0.0, 0
    while i == 0 or clock < seconds:
        start = time.perf_counter()
        if not loop.cycle(pool[i % len(pool)], L):
            break
        clock += (time.perf_counter() - start) * loop.speed.scale()
        i += 1


def run_traced(pool, spec, L_plain, L_traced, tracer, loop, seconds):
    """Whole passes over the first cycles, each run untraced and traced.

    Which of the two goes first alternates by cycle.  Returns the
    number of passes, the traced op ids and each mode's (ops, seconds).
    """
    cycles = pool[: spec.trace_cycles]
    start = time.perf_counter()
    passes, traced_ops = 0, set()
    modes = {False: [0, 0.0], True: [0, 0.0]}
    while passes == 0 or time.perf_counter() < start + seconds:
        for i, ops in enumerate(cycles):
            for traced in ((False, True) if (i + passes) % 2 == 0 else (True, False)):
                before, t0 = loop.attempted, time.perf_counter()
                cycle_id = f"{passes}.{i}"
                done = loop.cycle(ops, L_traced if traced else L_plain,
                                  tracer if traced else None, cycle_id)
                modes[traced][0] += loop.attempted - before
                modes[traced][1] += time.perf_counter() - t0
                if traced:
                    traced_ops.update(f"{cycle_id}:{k}" for k in range(len(ops)))
                if not done:
                    return max(passes, 1), traced_ops, modes
        passes += 1
    return passes, traced_ops, modes


def layer_metrics(tracer, traced_ops, passes, loop, modes, probe):
    """Per-layer figures per pass; ``counting`` is counted over set-up."""
    ops = tracer.self_times(traced_ops)
    setup = tracer.self_times({"setup"})

    def layer(module, names=None, source=ops):
        calls = ns = 0
        for span, (count, self_ns) in source.items():
            mod, _, fn = span.partition(".")
            if mod == module and (names is None or fn in names):
                calls += count
                ns += self_ns
        return calls, ns / 1e6

    out = {}
    calls, ms = layer("cards")
    out["cards.calls"], out["cards.self_ms"] = calls / passes, ms / passes
    # counting is oracle work, done once while the cycles are built
    out["counting.calls"], out["counting.self_ms"] = layer("counting", source=setup)
    for metric, (module, names) in SPAN_GROUPS.items():
        out[metric] = layer(module, names)[1] / passes
    for key in COUNTERS:
        out[key] = loop.counters[key] / passes
    space = out["enumeration.rows_space"]
    out["enumeration.match_ratio"] = out["enumeration.rows_matched"] / space if space else 0.0
    calls, ms = layer("svg")
    out["svg.calls"], out["svg.self_ms"] = calls / passes, ms / passes
    durations = {}
    for name, start, end, parent, op in tracer.spans:
        if name.startswith("cli.") and op in traced_ops:
            durations.setdefault(name[4:], []).append((end - start) / 1e6)
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}_ms"] = statistics.median(durations[sub]) if sub in durations else 0.0
    out["check.self_ms"] = layer("check")[1] / passes
    (plain_ops, plain_s), (traced_n, traced_s) = modes[False], modes[True]
    plain_rate, traced_rate = plain_ops / plain_s, traced_n / traced_s
    out["trace.overhead_pct"] = 100 * (plain_rate - traced_rate) / plain_rate
    out.update(probe)
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run_probes(modules, python, smoke, loop):
    """jobs=2 speed-up, CLI start-up costs and the known-limits probe."""
    enumeration = modules["enumeration"]
    b, n = (3, 5) if smoke else (4, 9)
    query = enumeration.CensusQuery(b=b, n=n, perm=tuple(range(1, b + 1)))
    speedup = probes.jobs2_speedup(
        enumeration.census, query, oracles.census_count(b, n, perm=query.perm),
        1 if smoke else 2)
    loop.attempted += 1
    if speedup is None:
        loop.failed += 1
        loop.errors.append("jobs2 probe: wrong result")
    repeats = 1 if smoke else PROBE_REPEATS
    interpreter, imports = probes.interpreter_and_import_ms(python, repeats)
    return {
        "enumeration.jobs2_speedup": speedup or 0.0,
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": imports,
        "cli.known_failures": probes.known_failures(python),
    }


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up, to check the harness itself")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for the results, environment and spans")
    args = parser.parse_args(argv)

    name, spec = args.workload, WORKLOADS[args.workload]
    env = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_revision": git_revision(), "loadavg_at_start": os.getloadavg(),
    }
    python = probes.Python(ROOT)
    tracer = tracing.Tracer() if args.trace else None

    def timed_set_up():
        for _ in range(SPEED_WINDOW):
            speed.tick(fresh=True)
        import_s = python.import_s(spec.imports)
        pool, modules, build_s = set_up(name, spec, args.seed, args.smoke, python)
        setups.append((import_s + build_s, (import_s + build_s) * speed.scale()))
        return pool, modules

    if spec.in_process:
        speed = Speed(reference_loop, LOOP_S, LOOP_EVERY_S)
    else:
        speed = Speed(lambda: python.run(["-c", "pass"]).check_returncode(),
                      START_S, START_EVERY_S)
    # half the set-ups run before the loop and half after it, so their
    # median samples the machine over the whole run
    setups = []  # (seconds, seconds at reference speed)
    if tracer:
        pool, modules, _ = set_up(name, spec, args.seed, args.smoke, python, tracer)
    else:
        for _ in range(1 if args.smoke else SETUP_REPEATS - SETUP_REPEATS // 2):
            pool, modules = timed_set_up()

    signal.signal(signal.SIGALRM, _alarm)
    loop = Loop(spec.timeout_s, time.perf_counter() + args.seconds + HARD_STOP_S, speed)
    L_plain = tracing.layers(modules, python.cli)
    if tracer:
        L_traced = tracing.layers(modules, python.cli, tracer)
        passes, traced_ops, modes = run_traced(
            pool, spec, L_plain, L_traced, tracer, loop, args.seconds)
        probe = run_probes(modules, python, args.smoke, loop)
        metrics = layer_metrics(tracer, traced_ops, passes, loop, modes, probe)
    else:
        run_untraced(pool, L_plain, loop, args.seconds)
        usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF)
        for _ in range(0 if args.smoke else SETUP_REPEATS // 2):
            timed_set_up()
        rss = usage.ru_maxrss / 1024
        scaled = [(slot, s) for slot, _, s in loop.times]
        percentile, metrics = end_to_end(scaled, [s for _, s in setups], rss)
        _, env["wall_clock"] = end_to_end(
            [(slot, s) for slot, s, _ in loop.times], [s for s, _ in setups], rss)
        env["reference_ms"] = statistics.median(speed.samples) * 1000
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        env["op_tail_percentile"] = percentile
        env["slot_ms"] = {
            f"{slot}:{pool[0][slot].kind}": seconds * 1000
            for (slot, _), seconds in zip(scaled, typical_times(scaled))
        }
        env["op_samples"] = len(loop.times)
        env["error_rate"] = loop.failed / loop.attempted
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    (args.out / f"{stem}.json").write_text(
        json.dumps({"env": env, "errors": loop.errors, **result}, indent=1) + "\n")
    if tracer:
        tracer.write(args.out / f"{stem}-spans.jsonl")

    for error in loop.errors:
        print(f"{name} failed op: {error}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    for key, metric in metrics.items():
        wall = f" (wall clock {env['wall_clock'][key]:.6g})" if not tracer else ""
        print(f"{name} {key} {metric['value']:.6g} {metric['unit']}{wall}")
    if not tracer:
        print(f"{name} op_tail_ms is p{percentile} of {len(loop.times)} ops")
        print(f"{name} error_rate {env['error_rate']:.6g} ({loop.failed}/{loop.attempted})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
