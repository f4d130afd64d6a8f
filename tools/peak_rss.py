"""Time a command and read its peak resident memory, run by run.

Each run spawns the command as a fresh child and reaps it with
``os.wait4``, whose usage is that child's alone; ``RUSAGE_CHILDREN``
would give the largest peak of every child reaped so far.  Linux keeps
a process's peak across ``exec``, so a child spawned from a large
process reads that process's memory as its own: this one spawns from a
small interpreter, and each reading is at least its resident size then,
about 14 MB.  Prints each run's wall seconds and peak RSS
(``ru_maxrss``, kilobytes on Linux) and the medians of both::

    python tools/peak_rss.py --runs 3 -- python -c "import jugglecards"

Exits 1 if any run exits non-zero, after reporting every run, and 2
with one line on stderr if the command cannot be started.
"""

import argparse
import os
import statistics
import sys
import time


def measure(command: list[str]) -> tuple[float, float, int]:
    """One run of ``command``: wall seconds, peak RSS in MB, exit code."""
    start = time.perf_counter()
    pid = os.posix_spawnp(command[0], command, os.environ)
    _, status, usage = os.wait4(pid, 0)
    return time.perf_counter() - start, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="fresh runs of the command")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- CMD ...")
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command or args.runs < 1:
        parser.error("need --runs of at least 1 and a command after --")
    walls, peaks, failed = [], [], False
    for run in range(1, args.runs + 1):
        try:
            wall, peak, code = measure(command)
        except OSError as error:
            print(f"cannot run {command[0]}: {error.strerror}", file=sys.stderr)
            return 2
        walls.append(wall)
        peaks.append(peak)
        failed |= code != 0
        print(f"run {run}: {wall:.3f} s, {peak:.1f} MB" + (f", exit {code}" if code else ""))
    print(f"median: {statistics.median(walls):.3f} s, {statistics.median(peaks):.1f} MB")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
