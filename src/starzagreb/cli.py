"""Command-line interface: single-graph invariant queries, batch graph6
processing, and exhaustive verification sweeps.

    starzagreb info GRAPH [--format edgelist|graph6] [--json]
    starzagreb zagreb GRAPH --p P [--method direct|star|recurrence|all] [--json]
    starzagreb genfunc GRAPH [--json]
    starzagreb verify GRAPH [--p-max P] [--m-max M] [--jobs J] [--json]
    starzagreb verify --exhaustive --n N [--p-max P] [--m-max M] [--json]

Graphs come from edge-list files (first significant line is the vertex
count, then one "u v" pair per line, '#' comments allowed) or from graph6
files (one graph per line, each processed independently; a bad line yields
an error record, not an abort).  The format is inferred from a .g6 suffix
and can be forced with --format.  --jobs spreads a graph6 batch over
worker processes; an exhaustive sweep accepts it and runs in process.

With --json each graph yields one JSON document per line; unbounded
integer values are rendered as decimal strings so nothing overflows on the
consumer side.  Diagnostics go to standard error.  Every subcommand exits
1 if any check failed or any routes disagreed, else 2 if any input or
option was refused or unreadable, else 0; so 1 takes precedence over 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import deque
from contextlib import suppress
from functools import partial
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .graph import (
    MAX_ENUM_N,
    MAX_VERIFY_EXPONENT,
    Graph,
    GraphFormatError,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .star import Classification, classify, star_sequence
from .zagreb import genfunc_numerator, zagreb_by_recurrence, zagreb_direct, zagreb_from_stars

if TYPE_CHECKING:
    from .oracle import TheoremReport

__all__ = ["main", "cmd_info", "cmd_zagreb", "cmd_genfunc", "cmd_verify"]


# ---------------------------------------------------------------------------
# records

def info_record(identifier: str, g: Graph) -> dict:
    s = star_sequence(g)
    cls = classify(s) if g.n >= 2 else Classification("other")
    return {
        "type": "info",
        "identifier": identifier,
        "graph6": to_graph6(g) if g.n <= 62 else None,
        "n": g.n,
        "m": g.m,
        "degrees": list(g.vertex_degrees),
        "frequency": list(g.frequency.counts),
        "stars": {
            "s1": str(s.s1),
            "first_doubled": str(s.adjusted_first),
            "sequence": [str(x) for x in s.as_tuple()],
        },
        "classification": cls.label,
    }


# Z_p is printed in decimal, which CPython before 3.12 renders in time
# quadratic in the digit count: about 2 s for 300,000 digits on 3.11.
MAX_ZAGREB_DIGITS = 300_000


def _zagreb_digits(g: Graph, p: int) -> float:
    """About how many decimal digits Z_p has: p*log10(D) + log10(n), the
    logarithm of its bound n*D^p, where D is the maximum degree.

    p is clamped so that the product stays a float; any p past the clamp
    gives more than MAX_ZAGREB_DIGITS digits either way when D >= 2.
    """
    delta = max(g.vertex_degrees)
    return min(p, 10 * MAX_ZAGREB_DIGITS) * math.log10(max(delta, 1)) + math.log10(g.n)


def zagreb_record(identifier: str, g: Graph, p: int, method: str) -> dict:
    """Z_p by the chosen routes.  Raises ValueError, before any route runs,
    when Z_p would have more than MAX_ZAGREB_DIGITS digits."""
    if _zagreb_digits(g, p) > MAX_ZAGREB_DIGITS:
        raise ValueError(
            f"Z_p would have more than {MAX_ZAGREB_DIGITS:,} decimal digits, "
            "the cap for zagreb; its digits are about p*log10(max degree) + log10(n)"
        )
    values: dict[str, str] = {}
    if method in ("direct", "all"):
        values["direct"] = str(zagreb_direct(g, p))
    if method in ("star", "all") and p >= 1:
        values["star"] = str(zagreb_from_stars(star_sequence(g), p))
    if method in ("recurrence", "all"):
        values["recurrence"] = str(zagreb_by_recurrence(g, p))
    rec = {
        "type": "zagreb",
        "identifier": identifier,
        "n": g.n,
        "m": g.m,
        "p": p,
        "method": method,
        "values": values,
    }
    if method == "all":
        rec["agree"] = len(set(values.values())) == 1
    return rec


def genfunc_record(identifier: str, g: Graph) -> dict:
    gf = genfunc_numerator(g)
    return {
        "type": "genfunc",
        "identifier": identifier,
        "n": g.n,
        "m": g.m,
        "numerator": [str(a) for a in gf.numerator],
        "denominator_factors": gf.denominator_factors(),
        "strictly_proper": gf.strictly_proper,
    }


def report_to_dict(report: TheoremReport) -> dict:
    theorems = {}
    for res in report.theorems:
        theorems[res.name] = {
            "status": "pass" if res.passed else "fail",
            "checks": len(res.checks),
            "residuals": {c.label: str(c.residual) for c in res.checks},
        }
    errata = [
        {
            "id": note.note_id,
            "triggered": note.triggered,
            "note": note.description,
            "witness": note.witness,
        }
        for note in report.errata
    ]
    return {
        "type": "report",
        "identifier": report.graph_id,
        "n": report.n,
        "m": report.m,
        "p_max": report.p_max,
        "m_max": report.m_max,
        "passed": report.passed,
        "checks": report.check_count,
        "theorems": theorems,
        "errata": errata,
    }


def error_record(identifier: str, message: str) -> dict:
    return {"type": "error", "identifier": identifier, "error": message}


# ---------------------------------------------------------------------------
# human rendering

def _kv_block(rows: list[tuple[str, str]]) -> str:
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)} : {v}" for k, v in rows)


def render_info(rec: dict) -> str:
    stars = rec["stars"]
    return _kv_block(
        [
            ("identifier", rec["identifier"]),
            ("graph6", rec["graph6"] or "-"),
            ("n", str(rec["n"])),
            ("m", str(rec["m"])),
            ("degrees", " ".join(map(str, rec["degrees"]))),
            ("frequency", " ".join(map(str, rec["frequency"]))),
            ("stars", " ".join(stars["sequence"]) or "-"),
            ("S1", stars["s1"]),
            ("2*S1", stars["first_doubled"]),
            ("classification", rec["classification"]),
        ]
    )


def render_zagreb(rec: dict) -> str:
    rows = [
        ("identifier", rec["identifier"]),
        ("n", str(rec["n"])),
        ("m", str(rec["m"])),
        ("p", str(rec["p"])),
    ]
    rows.extend((route, value) for route, value in rec["values"].items())
    if "agree" in rec:
        rows.append(("agree", "yes" if rec["agree"] else "NO"))
    return _kv_block(rows)


def render_genfunc(rec: dict) -> str:
    return _kv_block(
        [
            ("identifier", rec["identifier"]),
            ("n", str(rec["n"])),
            ("m", str(rec["m"])),
            ("numerator", " ".join(rec["numerator"])),
            ("denominator", "".join(f"({f})" for f in rec["denominator_factors"])),
            ("strictly proper", "yes" if rec["strictly_proper"] else "no"),
        ]
    )


def _triggered_ids(report: TheoremReport) -> list[str]:
    return [note.note_id for note in report.errata if note.triggered]


def render_report_full(report: TheoremReport) -> str:
    status = "PASS" if report.passed else "FAIL"
    lines = [
        _kv_block(
            [
                ("identifier", report.graph_id),
                ("n", str(report.n)),
                ("m", str(report.m)),
                ("status", f"{status} ({report.check_count} checks)"),
            ]
        )
    ]
    for res in report.theorems:
        res_status = "pass" if res.passed else "fail"
        lines.append(f"  {res.name.ljust(20)} {res_status}  {len(res.checks)} checks")
        for check in res.failures:
            lines.append(f"    FAIL {check.label} residual={check.residual!s}")
    for note in report.errata:
        if note.triggered:
            witness = " ".join(f"{k}={v}" for k, v in note.witness.items())
            lines.append(f"  erratum {note.note_id} [triggered] {witness}")
        else:
            lines.append(f"  erratum {note.note_id} [not observable here]")
    return "\n".join(lines)


def render_report_line(report: TheoremReport) -> str:
    return _report_line(report.graph_id, report.n, report.m, _report_verdict(report))


def _report_verdict(report: TheoremReport) -> tuple[str, str]:
    """The status word that opens a report's compact line, and the text
    after its m=: the check count, the triggered errata and a line per
    failed check.  Both read only the report's theorems and errata."""
    status = "PASS" if report.passed else "FAIL"
    errata = ",".join(_triggered_ids(report)) or "-"
    lines = [f"checks={report.check_count} errata={errata}"]
    if not report.passed:
        for name, check in report.failures():
            lines.append(f"  FAIL {name}/{check.label} residual={check.residual!s}")
    return status, "\n".join(lines)


def _report_line(graph_id: str, n: int, m: int, verdict: tuple[str, str]) -> str:
    status, text = verdict
    return f"{status} {graph_id} n={n} m={m} {text}"


# ---------------------------------------------------------------------------
# input handling

def _resolve_format(args: argparse.Namespace) -> str:
    if args.format:
        return args.format
    return "graph6" if args.input.endswith(".g6") else "edgelist"


def _iter_inputs(path: str, fmt: str) -> Iterator[tuple[str, Graph | GraphFormatError]]:
    """Yield (identifier, graph) pairs; parse failures yield the exception."""
    if fmt == "graph6":
        with open(path, encoding="ascii", errors="replace") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                ident = f"{path}:{lineno}"
                try:
                    yield ident, parse_graph6(line)
                except GraphFormatError as exc:
                    yield ident, exc
    else:
        yield path, _read_edge_list(path)


def _read_edge_list(path: str) -> Graph | GraphFormatError:
    """Parse one edge-list file; undecodable or malformed text yields the exception."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        return GraphFormatError(f"not UTF-8 text: {exc.reason} at byte {exc.start}")
    try:
        return parse_edge_list(text)
    except GraphFormatError as exc:
        return exc


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# output

# What the output loop takes from one graph or a run of graphs, rendered
# where they were processed: ("report", stdout text, graphs, checks,
# failures, errata observed) or ("error", identifier, message).
_Outcome = tuple


def _print_outcomes(outcomes: Iterable[_Outcome], as_json: bool, summary=None) -> int:
    """Print each outcome as it arrives and return the exit code.

    An error goes to stderr, and with --json also to stdout as an error
    record.  summary, if given, is called with as_json and the tallies after
    the last outcome.  The exit code is 1 if any check failed or any routes
    disagreed, else 2 if any input was refused or unreadable, else 0.  A
    failed worker pool ends the output with an error line, no summary."""
    graphs = checks = failures = errata_hits = 0
    had_error = False
    try:
        for kind, *data in outcomes:
            if kind == "error":
                ident, message = data
                had_error = True
                if as_json:
                    print(json.dumps(error_record(ident, message)))
                print(f"error: {ident}: {message}", file=sys.stderr)
                continue
            text, run_graphs, run_checks, run_failures, run_errata = data
            graphs += run_graphs
            checks += run_checks
            failures += run_failures
            errata_hits += run_errata
            print(text)
    except ChildProcessError as exc:
        print(f"error: {str(exc).rstrip('.')}; --jobs 1 runs without a pool", file=sys.stderr)
        return 1 if failures else 2
    if summary:
        summary(as_json, graphs, checks, failures, errata_hits, had_error)
    return 1 if failures else 2 if had_error else 0


# ---------------------------------------------------------------------------
# commands

def _record_outcomes(args: argparse.Namespace, record, render) -> Iterator[_Outcome]:
    """Outcomes for info, zagreb and genfunc: each graph's record as JSON,
    or rendered as text, plus a blank line in a graph6 batch.  A record
    fails only when zagreb's routes disagree; a ValueError from record
    refuses that graph."""
    fmt = _resolve_format(args)
    end = "\n" if fmt == "graph6" else ""
    for ident, g in _iter_inputs(args.input, fmt):
        if isinstance(g, GraphFormatError):
            yield ("error", ident, str(g))
            continue
        try:
            rec = record(ident, g)
        except ValueError as exc:
            yield ("error", ident, str(exc))
            continue
        text = json.dumps(rec) if args.json else render(rec) + end
        yield ("report", text, 1, 0, not rec.get("agree", True), 0)


def cmd_info(args: argparse.Namespace) -> int:
    return _print_outcomes(_record_outcomes(args, info_record, render_info), args.json)


def cmd_zagreb(args: argparse.Namespace) -> int:
    if args.p < 0:
        return _usage_error("--p must be a non-negative integer")
    if args.p == 0 and args.method == "star":
        return _usage_error(
            "the star route is undefined at p = 0 (it would yield 2m, not n); "
            "use --method direct"
        )
    record = partial(zagreb_record, p=args.p, method=args.method)
    code = _print_outcomes(_record_outcomes(args, record, render_zagreb), args.json)
    if code == 1:
        print("error: evaluation routes disagree; this is a bug", file=sys.stderr)
    return code


def cmd_genfunc(args: argparse.Namespace) -> int:
    return _print_outcomes(_record_outcomes(args, genfunc_record, render_genfunc), args.json)


def _report_outcome(report: TheoremReport, as_json: bool, compact: bool) -> _Outcome:
    if as_json:
        text = json.dumps(report_to_dict(report))
    elif compact:
        text = render_report_line(report)
    else:
        text = render_report_full(report) + "\n"
    return ("report", text, 1, *_report_tallies(report))


def _report_tallies(report: TheoremReport) -> tuple[int, bool, int]:
    """A report's checks, whether it failed, and its triggered errata."""
    return report.check_count, not report.passed, len(_triggered_ids(report))


def _render_entry(p_max: int, m_max: int, as_json: bool, result: tuple) -> tuple:
    """A sweep memo entry's finished form: the text or JSON after m of the
    reports with that (theorems, errata), and their tallies.  Neither reads
    a report's identifier, n or m, so those are left blank."""
    from .oracle import TheoremReport

    report = TheoremReport("", 0, 0, p_max, m_max, *result)
    render = _report_json_tail if as_json else _report_verdict
    return (render(report), *_report_tallies(report))


def _sweep_outcomes(n: int, as_json: bool, entries: Iterator[tuple]) -> Iterator[_Outcome]:
    """Outcomes for the memo entries of masks 0, 1, 2, ... on n vertices, one
    per SWEEP_BLOCK masks.  One entry's reports differ only in identifier,
    n and m, so those alone are formatted per mask."""
    line = _report_json_line if as_json else _report_line
    masks = enumerate(entries)
    for block in iter(lambda: list(islice(masks, SWEEP_BLOCK)), []):
        text = "\n".join(line(f"n={n}:mask={mask}", n, mask.bit_count(), e[0]) for mask, e in block)
        tallies = (sum(column) for column in zip(*(e[1:] for _, e in block)))
        yield ("report", text, len(block), *tallies)


def _report_json_tail(report: TheoremReport) -> str:
    """json.dumps(report_to_dict(report)) after its m field: every field
    from p_max on, which reads only the report's theorems and errata."""
    rec = report_to_dict(report)
    for key in ("type", "identifier", "n", "m"):
        del rec[key]
    return json.dumps(rec)[1:]


def _report_json_line(graph_id: str, n: int, m: int, tail: str) -> str:
    """json.dumps(report_to_dict(report)) for a sweep report with this
    identifier, n and m, and _report_json_tail's tail; a sweep identifier
    has no character that JSON escapes."""
    return f'{{"type": "report", "identifier": "{graph_id}", "n": {n}, "m": {m}, {tail}'


def _verify_chunk(task: tuple[list, int, int, bool, bool]) -> Iterator[_Outcome]:
    """Outcomes for a chunk of _iter_inputs items, in order.

    verify_all_identities puts failed checks in its report, a route that
    raised among them; its ValueError refuses a graph with more vertices
    than the brute-force star counts can finish, before any route runs.
    """
    from .oracle import verify_all_identities

    items, p_max, m_max, as_json, compact = task
    for ident, g in items:
        if isinstance(g, GraphFormatError):
            yield ("error", ident, str(g))
            continue
        try:
            report = verify_all_identities(g, p_max, m_max, graph_id=ident)
        except ValueError as exc:
            yield ("error", ident, str(exc))
            continue
        yield _report_outcome(report, as_json, compact)


def _workers(jobs: int) -> int:
    """Worker processes for --jobs; the output never depends on it."""
    return min(jobs, os.cpu_count() or 1)


def _listed(fn, task) -> list:
    # A pool worker sends its results back pickled, so it lists them first.
    return list(fn(task))


def _map_tasks(fn, tasks: Iterable, jobs: int) -> Iterator:
    """The results fn yields for each task, flattened in task order.

    Only as many tasks as there are workers are read ahead.  When that is
    two or more, the tasks run across a spawn process pool of that many
    workers with at most two tasks per worker pending, so neither the tasks
    nor finished results pile up behind a slow consumer; otherwise they run
    here, one at a time.  A pool that cannot start a worker or a thread, or
    loses one, raises ChildProcessError instead of waiting for it."""
    tasks = iter(tasks)
    head = list(islice(tasks, _workers(jobs)))
    if len(head) < 2:
        for task in chain(head, tasks):
            yield from fn(task)
        return
    # Loaded only here, so commands that never start a pool skip its
    # import.  Spawned workers import the package afresh, so the digit
    # limit is lifted again in each of them.
    import multiprocessing
    import threading
    from concurrent.futures import BrokenExecutor, InvalidStateError, ProcessPoolExecutor

    pool = ProcessPoolExecutor(len(head), multiprocessing.get_context("spawn"), _lift_digit_limit)
    pending, died, hook = deque(), [], threading.excepthook

    def thread_died(args):
        # Before Python 3.12 a dead pool thread leaves the pending tasks waiting.
        died.append(BrokenExecutor(f"a pool thread died: {args.exc_value}"))
        for future in list(pending):
            with suppress(InvalidStateError):
                future.set_exception(died[0])

    threading.excepthook = thread_died
    try:
        for task in chain(head, tasks):
            try:
                pending.append(pool.submit(_listed, fn, task))
            except (OSError, RuntimeError) as exc:
                raise BrokenExecutor(exc) from exc
            if died:
                raise died[0]
            if len(pending) > 2 * len(head):
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()
    except BrokenExecutor as exc:
        raise ChildProcessError(f"the worker pool failed: {exc}") from exc
    finally:
        threading.excepthook = hook
        pool.shutdown(wait=False, cancel_futures=True)
        # Workers still running, or never told to stop, would block the exit.
        for process in multiprocessing.active_children():
            process.terminate()


# Most graphs one sweep outcome carries.
SWEEP_BLOCK = 256


def cmd_verify(args: argparse.Namespace) -> int:
    # The oracle is loaded only here and in what this command calls, so
    # the other commands never load it.
    from .oracle import _check_limits, _sweep_masks

    try:
        _check_limits(args.p_max, args.m_max)
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.jobs < 1:
        return _usage_error("--jobs must be at least 1")

    if args.exhaustive:
        if args.input:
            return _usage_error("--exhaustive does not take an input file")
        if args.n is None:
            return _usage_error("--exhaustive requires --n")
        if not 1 <= args.n <= MAX_ENUM_N:
            return _usage_error(f"--n must be between 1 and {MAX_ENUM_N}")
        # Workers could take over only the keys and memo lookups, never the
        # formatting of each mask's line, so the sweep runs here at any --jobs.
        finish = partial(_render_entry, args.p_max, args.m_max, args.json)
        entries = _sweep_masks(args.n, {}, args.p_max, args.m_max, finish)
        outcomes = _sweep_outcomes(args.n, args.json, entries)
    else:
        if args.n is not None:
            return _usage_error("--n only applies with --exhaustive")
        if not args.input:
            return _usage_error("verify needs an input file or --exhaustive")
        fmt = _resolve_format(args)
        items = _iter_inputs(args.input, fmt)
        chunks = (
            (chunk, args.p_max, args.m_max, args.json, fmt == "graph6")
            for chunk in iter(lambda: list(islice(items, 128)), [])
        )
        outcomes = _map_tasks(_verify_chunk, chunks, args.jobs)
    return _print_outcomes(outcomes, args.json, _print_summary)


def _print_summary(
    as_json: bool, graphs: int, checks: int, failures: int, errata_hits: int, had_error: bool
) -> None:
    # A run that verified nothing because every input was refused or
    # unreadable has not passed.
    nothing_verified = graphs == 0 and had_error
    summary = {
        "type": "summary",
        "graphs": graphs,
        "checks": checks,
        "failures": failures,
        "errata_observations": errata_hits,
        "passed": failures == 0 and not nothing_verified,
    }
    if as_json:
        print(json.dumps(summary))
    else:
        status = "FAIL" if failures else "ERROR" if nothing_verified else "PASS"
        print(
            f"summary: graphs={graphs} checks={checks} failures={failures} "
            f"errata_observations={errata_hits} -> {status}"
        )


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starzagreb",
        description="Star sequences, frequency sequences and general first "
        "Zagreb indices of simple graphs, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, input_required: bool = True) -> None:
        if input_required:
            p.add_argument("input", help="edge-list or graph6 file")
        else:
            p.add_argument("input", nargs="?", help="edge-list or graph6 file")
        p.add_argument(
            "--format",
            choices=("edgelist", "graph6"),
            default=None,
            help="input format; default: graph6 for .g6 files, else edgelist",
        )
        p.add_argument("--json", action="store_true", help="one JSON document per graph")

    p_info = sub.add_parser("info", help="degrees, frequency and star sequences, classification")
    add_common(p_info)
    p_info.set_defaults(handler=cmd_info)

    p_zag = sub.add_parser("zagreb", help="general first Zagreb index Z_p")
    add_common(p_zag)
    p_zag.add_argument("--p", type=int, required=True, help="exponent p >= 0")
    p_zag.add_argument(
        "--method",
        choices=("direct", "star", "recurrence", "all"),
        default="all",
        help="evaluation route; 'all' cross-checks every route",
    )
    p_zag.set_defaults(handler=cmd_zagreb)

    p_gf = sub.add_parser("genfunc", help="generating-function numerator over (1-t)...(1-nt)")
    add_common(p_gf)
    p_gf.set_defaults(handler=cmd_genfunc)

    p_ver = sub.add_parser("verify", help="replay every identity against brute force")
    add_common(p_ver, input_required=False)
    p_ver.add_argument("--exhaustive", action="store_true", help="sweep all labeled graphs on --n vertices")
    p_ver.add_argument("--n", type=int, default=None, help=f"vertex count for --exhaustive (at most {MAX_ENUM_N})")
    p_ver.add_argument("--p-max", dest="p_max", type=int, default=8, help=f"largest Zagreb exponent checked (at most {MAX_VERIFY_EXPONENT})")
    p_ver.add_argument("--m-max", dest="m_max", type=int, default=4, help=f"largest moment exponent checked (at most {MAX_VERIFY_EXPONENT})")
    p_ver.add_argument("--jobs", type=int, default=1, help="worker processes for graph6 batches; no effect with --exhaustive")
    p_ver.set_defaults(handler=cmd_verify)

    return parser


def _lift_digit_limit() -> int | None:
    """Turn off CPython's int-to-str digit limit; return the old limit, or
    None on interpreters that have none.  Exact answers such as Z_p at
    large p run to thousands of digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return None
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    return old


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    old_limit = _lift_digit_limit()
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large for the available memory", file=sys.stderr)
        return 2
    finally:
        if old_limit is not None:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    sys.exit(main())
