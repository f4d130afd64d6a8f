"""Child-process helpers and the one-off probes of a traced run.

Every child is started with ``subprocess.run``, which waits for it and
kills it on timeout, so no process outlives the call that started it.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

# legal inputs the library cannot handle today; each exits 1 with a
# RecursionError traceback, so the probe counts how many still fail
KNOWN_LIMITS = (
    ("count", "stirling2", "--n", "5000", "--k", "3"),
    ("convert", "dyck", "sequence", "--payload",
     '{"dyck": "' + "(" * 1200 + ")" * 1200 + '"}'),
)
PROBE_TIMEOUT_S = 60


class Python:
    """Runs fresh interpreters on this checkout's ``src``."""

    def __init__(self, root):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(self, args):
        return subprocess.run(
            [sys.executable, *args], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )

    def cli(self, argv):
        """One ``python -m jugglecards.cli`` run: (exit code, stdout, stderr)."""
        done = self.run(["-m", "jugglecards.cli", *argv])
        return done.returncode, done.stdout, done.stderr

    def import_s(self, module):
        """Seconds a fresh interpreter spends importing ``module``."""
        code = ("import time; t = time.perf_counter(); import " + module
                + "; print(time.perf_counter() - t)")
        done = self.run(["-c", code])
        done.check_returncode()
        return float(done.stdout)

    def wall_ms(self, args, repeats):
        """Median wall time of ``repeats`` fresh interpreters running ``args``."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.run(args).check_returncode()
            times.append((time.perf_counter() - start) * 1000)
        return statistics.median(times)


def interpreter_and_import_ms(python, repeats):
    """``python -c pass`` time, and ``import jugglecards.cli`` time on top of it."""
    interpreter = python.wall_ms(["-c", "pass"], repeats)
    with_import = python.wall_ms(["-c", "import jugglecards.cli"], repeats)
    return interpreter, with_import - interpreter


def known_failures(python):
    """How many of :data:`KNOWN_LIMITS` still fail (nonzero exit or timeout)."""
    failing = 0
    for argv in KNOWN_LIMITS:
        try:
            code, _, _ = python.cli(list(argv))
        except subprocess.TimeoutExpired:
            code = None
        failing += code != 0
    return failing


def jobs2_speedup(census, query, expected, repeats):
    """Serial time / ``jobs=2`` time for one census; None if a result is wrong."""
    serial, parallel = [], []
    for _ in range(repeats):
        for jobs, times in ((None, serial), (2, parallel)):
            start = time.perf_counter()
            result = census(query, jobs=jobs)
            times.append(time.perf_counter() - start)
            if result != expected:
                return None
    return statistics.median(serial) / statistics.median(parallel)
