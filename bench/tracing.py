"""Spans around the benchmark's calls into the library.

A traced run hands ops a :class:`Layers` view whose functions record one
span per call, named ``<module>.<function>``.  Only calls made by the
benchmark are wrapped; calls inside the library are not, so a layer's
span covers everything that call did.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from types import SimpleNamespace

# the modules ops call into, by the name spans use for them
MODULES = ("cards", "counting", "enumeration", "bijections", "stochastic", "svg")


class Tracer:
    """Span recorder: name, start, end, parent span and op id per span."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, op id]
        self._open = []
        self.op = "setup"

    def _enter(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [name, 0, 0, parent, self.op]
        self.spans.append(record)
        self._open.append(index)
        record[1] = time.perf_counter_ns()
        return record

    def _exit(self, record):
        record[2] = time.perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        record = self._enter(name)
        try:
            yield
        finally:
            self._exit(record)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            record = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(record)

        return traced

    def self_times(self, ops):
        """``{name: [calls, self_ns]}`` over spans whose op id is in ``ops``.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in ops:
                continue
            entry = out.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += end - start - child_ns[i]
        return out

    def write(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "op": op}) + "\n")


def layers(modules, run_cli, tracer=None):
    """Every public function of ``modules`` (name -> module), plus ``cli(argv)``.

    With a tracer each function is wrapped in a span named after its
    module; the CLI runner's span is named after the subcommand.
    """
    calls = {}
    for module_name, module in modules.items():
        for name in dir(module):
            fn = getattr(module, name)
            if name.startswith("_") or not callable(fn) or isinstance(fn, type):
                continue
            if getattr(fn, "__module__", None) != module.__name__:
                continue
            calls[name] = tracer.wrap(f"{module_name}.{name}", fn) if tracer else fn
    if tracer is None:
        calls["cli"] = run_cli
    else:
        def cli(argv):
            with tracer.span("cli." + argv[0]):
                return run_cli(argv)

        calls["cli"] = cli
    return SimpleNamespace(**calls)
