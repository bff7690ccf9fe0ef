"""Run one starzagreb CLI invocation with every public library function traced.

    python3 perfbench/traced_cli.py SPANS.json -- ARGV...

Each public function of the graph, combinatorics, star, zagreb, oracle and
cli modules is rebound, in every starzagreb module that imports it, to a
wrapper that records a span.  Spans are aggregated in memory per call path
(parent, name) as [calls, total seconds, seconds covered by child spans]
and written to SPANS.json when cli.main returns or raises, so the process
exits exactly as the untraced CLI would.  A few counters are taken from
the arguments at the same boundaries.  The library itself is not changed.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time

MODULES = ("graph", "combinatorics", "star", "zagreb", "oracle", "cli")
ROOT = "<process>"


class Tracer:
    """Span aggregates per call path plus the argument counters, for one process."""

    def __init__(self) -> None:
        self.stack: list[list] = [[ROOT, 0.0]]
        self.spans: dict[tuple[str, str], list] = {}
        self.counters = {"stirling2_p_max": -1, "bruteforce_subsets": 0,
                         "zagreb_direct_distinct": 0}
        self._direct_graph = None
        self._direct_ps: set[int] = set()

    def wrap(self, name: str, fn):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        note = {
            "zagreb.zagreb_direct": self._note_direct,
            "oracle.count_stars_bruteforce": self._note_bruteforce,
            "combinatorics.stirling2": self._note_stirling2,
        }.get(name)

        def traced(*args, **kwargs):
            if note is not None:
                note(*args, **kwargs)
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                rec = spans.get((parent[0], name))
                if rec is None:
                    spans[(parent[0], name)] = [1, elapsed, frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += elapsed
                    rec[2] += frame[1]

        return traced

    # Distinct (graph, p) pairs: the CLI finishes each graph before the next,
    # so a set of exponents per graph object suffices.
    def _note_direct(self, g, p) -> None:
        if g is not self._direct_graph:
            self.counters["zagreb_direct_distinct"] += len(self._direct_ps)
            self._direct_graph, self._direct_ps = g, set()
        self._direct_ps.add(p)

    def _note_bruteforce(self, g, k) -> None:
        self.counters["bruteforce_subsets"] += math.comb(g.n, k + 1)

    def _note_stirling2(self, p, k) -> None:
        if p > self.counters["stirling2_p_max"]:
            self.counters["stirling2_p_max"] = p

    def dump(self, path: str) -> None:
        self.counters["zagreb_direct_distinct"] += len(self._direct_ps)
        self._direct_ps = set()
        doc = {
            "spans": [[parent, name, *rec] for (parent, name), rec in self.spans.items()],
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(tracer: Tracer):
    """Rebind every public function of MODULES wherever a starzagreb module holds it."""
    modules = {name: importlib.import_module(f"starzagreb.{name}") for name in MODULES}
    holders = [*modules.values(), importlib.import_module("starzagreb")]
    for short, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            traced = tracer.wrap(f"{short}.{attr}", fn)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, traced)
    return modules["cli"]


def main() -> None:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json -- ARGV...")
    tracer = Tracer()
    cli = install(tracer)
    try:
        code = cli.main(argv)
    finally:
        tracer.dump(spans_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
