"""Closed-loop benchmark of the starzagreb CLI.

    python3 perfbench/run.py --workload {sweep,batch,highp} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the CLI is imported from ./src.
One caller runs one child process per CLI invocation, waits for it, then
starts the next, so at most two processes run at once.  Every child runs
under its own address-space and CPU-time limits.  A pass is the workload's
list of invocations; passes repeat while the next one should end within
half a pass of --seconds.

With --trace 0 the end-to-end metrics are printed; with --trace 1 untraced
and traced passes alternate and the per-layer metrics are printed.  The
last line of stdout is one JSON object with correct / attempted / failed /
metrics.  Every record the CLI prints is checked against the benchmark's
own recomputation (see workloads.py).  `correct` is false when any printed
record is wrong; records lost to a non-zero exit count as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

# Set-up repeats at least SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS
# have passed: on a shared host CPU speed can swing by a quarter within
# seconds, so the median of a cheap set-up must span a few seconds.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 50
SETUP_MIN_SECONDS = 3.0
CHILD_AS_BYTES = 2 << 30
CHILD_CPU_SECONDS = 150
CLI_BOOT = "import sys; from starzagreb.cli import main; sys.exit(main())"
BENCH_DIR = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "graphs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ops_ok_ratio": "ratio",
}

# Per-layer metrics: calls and self time of the public functions the
# workloads exercise, plus counters taken at the same boundaries.
TRACED_FUNCTIONS = (
    "graph.parse_graph6", "graph.degrees", "graph.frequency_sequence", "graph.to_graph6",
    "combinatorics.binomial", "combinatorics.stirling2", "combinatorics.stirling1_signed",
    "combinatorics.falling_factorial_coeffs",
    "star.star_sequence", "star.star_from_frequency", "star.frequency_from_star",
    "star.alternating_moment", "star.moment_identity_rhs", "star.inverse_degree_edge_sum",
    "star.isolated_count_from_star", "star.classify",
    "zagreb.zagreb_direct", "zagreb.zagreb_from_stars", "zagreb.genfunc_numerator",
    "zagreb.recurrence_coeffs", "zagreb.zagreb_by_recurrence", "zagreb.verify_recurrence",
    "oracle.count_stars_bruteforce", "oracle.labeled_graph_from_mask",
    "oracle.series_expand_rational", "oracle.verify_all_identities",
    "cli.main", "cli.info_record", "cli.genfunc_record", "cli.zagreb_record",
    "cli.report_to_dict", "cli.render_report_line",
)
COMMAND_LAYERS = ("verify", "info", "genfunc", *(f"zagreb.p{p}" for p in workloads.HIGHP_LADDER),
                  "zagreb.probe")
PER_LAYER = {
    **{f"{fn}.{kind}": unit for fn in TRACED_FUNCTIONS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "graph.degrees.calls_per_graph": "count",
    "zagreb.zagreb_direct.calls_per_graph": "count",
    "zagreb.zagreb_direct.unique_ratio": "ratio",
    "combinatorics.stirling2.entries": "count",
    "oracle.count_stars_bruteforce.subsets": "count",
    "oracle.distinct_profile_ratio": "ratio",
    "cli.output_bytes": "bytes",
    **{f"cli.{layer}.wall_s": "s" for layer in COMMAND_LAYERS},
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


class Runner:
    """Spawns the CLI children of one benchmark run inside a work directory."""

    def __init__(self, root: Path, workdir: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # The workload measures the CLI under CPython's default digit limit.
        self.env.pop("PYTHONINTMAXSTRDIGITS", None)
        self.spawned = 0

    def run(self, argv: list[str]) -> dict:
        """Run one child to completion; return wall time, peak RSS, exit code, output."""
        self.spawned += 1
        out_path = self.workdir / f"child-{self.spawned}.out"
        err_path = self.workdir / f"child-{self.spawned}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.workdir, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err, preexec_fn=_limit_child,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        stderr = err_path.read_text(errors="replace").strip().splitlines()
        out_path.unlink()
        err_path.unlink()
        return {
            "wall": wall,
            "rss_mb": usage.ru_maxrss / 1024,
            "code": proc.returncode,
            "stdout": stdout,
            "error": stderr[-1] if stderr else "",
        }


def _limit_child() -> None:
    for limit, value in ((resource.RLIMIT_AS, CHILD_AS_BYTES), (resource.RLIMIT_CPU, CHILD_CPU_SECONDS)):
        _, hard = resource.getrlimit(limit)
        if hard != resource.RLIM_INFINITY:
            value = min(value, hard)
        resource.setrlimit(limit, (value, value))


class Tally:
    """Records attempted, good and wrong over all passes of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.good = 0
        self.wrong: list[str] = []
        self.failed_calls: dict[str, str] = {}
        self.peak_rss_mb = 0.0

    def add(self, call: workloads.Call, result: dict) -> int:
        """Judge one invocation; return its good records.  Records printed
        by an invocation that exited non-zero are still checked, and count
        as failed even when right."""
        self.peak_rss_mb = max(self.peak_rss_mb, result["rss_mb"])
        complete = result["code"] == 0
        outcome = call.check(result["stdout"].decode("utf-8", errors="replace"), complete)
        self.wrong.extend(f"{call.label}: {w}" for w in outcome.wrong)
        good = outcome.good if complete else 0
        if not complete:
            self.failed_calls[call.label] = f"exit {result['code']}: {result['error'][:160]}"
        self.attempted += call.attempted
        self.good += good
        return good


def run_pass(runner: Runner, wl: workloads.Workload, tally: Tally, traced: bool) -> dict:
    """One pass over the workload's invocations; returns wall times and trace data."""
    walls: dict[str, float] = {}
    good = output_bytes = 0
    span_docs = []
    for i, call in enumerate(wl.calls):
        if traced:
            spans_file = runner.workdir / f"spans-{i}.json"
            argv = [str(BENCH_DIR / "traced_cli.py"), str(spans_file), "--", *call.argv]
        else:
            argv = ["-c", CLI_BOOT, *call.argv]
        result = runner.run(argv)
        good += tally.add(call, result)
        walls[call.layer] = walls.get(call.layer, 0.0) + result["wall"]
        output_bytes += len(result["stdout"])
        if traced and spans_file.exists():  # absent if the child was killed
            span_docs.append(json.loads(spans_file.read_text()))
            spans_file.unlink()
    wall = sum(walls.values())
    return {"wall": wall, "rate": good / wall, "layers": walls,
            "output_bytes": output_bytes, "spans": span_docs}


def setup(workload: str, seed: int, workdir: Path) -> tuple[workloads.Workload, list[float]]:
    """Generate inputs and reference answers repeatedly; return the times."""
    times: list[float] = []
    while len(times) < SETUP_MIN_REPEATS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        start = time.perf_counter()
        wl = workloads.BUILDERS[workload](random.Random(f"{workload}:{seed}"))
        for name, text in wl.files.items():
            (workdir / name).write_text(text, encoding="ascii")
        times.append(time.perf_counter() - start)
    return wl, times


def layer_metrics(traced: list[dict], untraced: list[dict], wl: workloads.Workload) -> dict:
    graphs = sum(call.attempted for call in wl.calls)
    per_pass = []
    for p in traced:
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        counters = {"entries": 0, "subsets": 0, "distinct": 0}
        for doc in p["spans"]:
            for _parent, name, n, total, child in doc["spans"]:
                calls[name] = calls.get(name, 0) + n
                self_s[name] = self_s.get(name, 0.0) + total - child
            c = doc["counters"]
            pmax = c["stirling2_p_max"]
            counters["entries"] += (pmax + 1) * (pmax + 2) // 2 if pmax >= 0 else 0
            counters["subsets"] += c["bruteforce_subsets"]
            counters["distinct"] += c["zagreb_direct_distinct"]
        m = {}
        for fn in TRACED_FUNCTIONS:
            m[f"{fn}.calls"] = calls.get(fn, 0)
            m[f"{fn}.self_s"] = self_s.get(fn, 0.0)
        direct = calls.get("zagreb.zagreb_direct", 0)
        m["graph.degrees.calls_per_graph"] = calls.get("graph.degrees", 0) / graphs
        m["zagreb.zagreb_direct.calls_per_graph"] = direct / graphs
        m["zagreb.zagreb_direct.unique_ratio"] = counters["distinct"] / direct if direct else 0.0
        m["combinatorics.stirling2.entries"] = counters["entries"]
        m["oracle.count_stars_bruteforce.subsets"] = counters["subsets"]
        m["trace.traced_wall_s"] = p["wall"]
        per_pass.append(m)
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["oracle.distinct_profile_ratio"] = wl.distinct_profile_ratio
    out["cli.output_bytes"] = statistics.median(p["output_bytes"] for p in untraced)
    for layer in COMMAND_LAYERS:
        out[f"cli.{layer}.wall_s"] = statistics.median(p["layers"].get(layer, 0.0) for p in untraced)
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - statistics.median(p["wall"] for p in untraced)
    return out


def print_spans(traced: list[dict]) -> None:
    """Per call path (parent -> name) table from the first traced pass."""
    paths: dict[tuple[str, str], list] = {}
    for doc in traced[0]["spans"]:
        for parent, name, n, total, child in doc["spans"]:
            rec = paths.setdefault((parent, name), [0, 0.0, 0.0])
            rec[0] += n
            rec[1] += total
            rec[2] += total - child
    print("call paths of the first traced pass (self time, calls, parent -> function):")
    for (parent, name), (n, total, own) in sorted(paths.items(), key=lambda kv: -kv[1][2]):
        print(f"  {own:10.4f} s {n:>10} calls  {parent} -> {name}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "starzagreb" / "cli.py").is_file():
        print("error: run from the root of a starzagreb checkout (src/starzagreb missing)", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # reference answers exceed the CLI's digit limit

    workdir = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl, setup_times = setup(args.workload, args.seed, workdir)
        setup_s = statistics.median(setup_times)
        runner = Runner(root, workdir)
        warm = runner.run(["-c", "import starzagreb.cli"])  # byte-compile outside the timed passes
        if warm["code"] != 0:
            print(f"error: cannot import the CLI: {warm['error']}", file=sys.stderr)
            return 2
        tally = Tally()
        untraced, traced = [], []
        # Start another pass only while it should end within half a pass of
        # the deadline, so a run of long passes does not overshoot by one.
        start = last = time.perf_counter()
        while True:
            untraced.append(run_pass(runner, wl, tally, traced=False))
            if args.trace:
                traced.append(run_pass(runner, wl, tally, traced=True))
            now = time.perf_counter()
            if now - start + (now - last) / 2 >= args.seconds:
                break
            last = now
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    walls = [p["wall"] for p in untraced]
    failed = tally.attempted - tally.good
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced passes of {len(wl.calls)} invocations")
    print(f"  wall_s per pass: median {statistics.median(walls):.4f} min {min(walls):.4f} "
          f"max {max(walls):.4f} over {len(walls)} passes; setup_s median of {len(setup_times)}: {setup_s:.4f}")
    print(f"  ops_failed_ratio {failed / tally.attempted:.6f} = {failed} failed / {tally.attempted} attempted; "
          f"distinct_profile_ratio {wl.distinct_profile_ratio:.4f}")
    for label, why in tally.failed_calls.items():
        print(f"  failed: {label}: {why}")
    for why in tally.wrong[:20]:
        print(f"  WRONG: {why}")

    if args.trace:
        print_spans(traced)
        metrics = layer_metrics(traced, untraced, wl)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "graphs_per_s": statistics.median(p["rate"] for p in untraced),
            "peak_rss_mb": tally.peak_rss_mb,
            "ops_ok_ratio": tally.good / tally.attempted,
        }
        units = END_TO_END
    for name, unit in units.items():
        print(f"  {name:44} {metrics[name]:>16.6f} {unit}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
