"""Command-line interface: single-graph invariant queries, batch graph6
processing, and exhaustive verification sweeps.

    starzagreb info GRAPH [--format edgelist|graph6] [--json]
    starzagreb zagreb GRAPH --p P [--method direct|star|recurrence|all] [--json]
    starzagreb genfunc GRAPH [--json]
    starzagreb verify GRAPH [--p-max P] [--m-max M] [--jobs J] [--json]
    starzagreb verify --exhaustive --n N [--p-max P] [--m-max M] [--jobs J] [--json]

Graphs come from edge-list files (first significant line is the vertex
count, then one "u v" pair per line, '#' comments allowed) or from graph6
files (one graph per line, each processed independently; a bad line yields
an error record, not an abort).  The format is inferred from a .g6 suffix
and can be forced with --format.

With --json each graph yields one JSON document per line; unbounded
integer values are rendered as decimal strings so nothing overflows on the
consumer side.  Diagnostics go to standard error.  Every subcommand exits
1 if any check failed or any routes disagreed, else 2 if any input or
option was refused or unreadable, else 0; so 1 takes precedence over 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import deque
from functools import partial
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

from .graph import (
    Graph,
    GraphFormatError,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .oracle import (
    MAX_ENUM_N,
    TheoremReport,
    sweep_reports,
    verify_all_identities,
)
from .star import Classification, classify, star_sequence
from .zagreb import genfunc_numerator, zagreb_by_recurrence, zagreb_direct, zagreb_from_stars

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


def zagreb_record(identifier: str, g: Graph, p: int, method: str) -> dict:
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
    status = "PASS" if report.passed else "FAIL"
    errata = ",".join(_triggered_ids(report)) or "-"
    lines = [
        f"{status} {report.graph_id} n={report.n} m={report.m} "
        f"checks={report.check_count} errata={errata}"
    ]
    if not report.passed:
        for name, check in report.failures():
            lines.append(f"  FAIL {name}/{check.label} residual={check.residual!s}")
    return "\n".join(lines)


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

# What the output loop takes from each graph, rendered where the graph was
# processed: ("report", stdout text, checks, passed, errata observed) or
# ("error", identifier, message).
_Outcome = tuple


def _print_outcomes(outcomes: Iterable[_Outcome], as_json: bool, summary=None) -> int:
    """Print each outcome as it arrives and return the exit code.

    An error goes to stderr, and with --json also to stdout as an error
    record.  summary, if given, is called with as_json and the tallies after
    the last outcome.  The exit code is 1 if any check failed or any routes
    disagreed, else 2 if any input was refused or unreadable, else 0."""
    graphs = checks = failures = errata_hits = 0
    had_error = False
    for kind, *data in outcomes:
        if kind == "error":
            ident, message = data
            had_error = True
            if as_json:
                print(json.dumps(error_record(ident, message)))
            print(f"error: {ident}: {message}", file=sys.stderr)
            continue
        text, graph_checks, passed, graph_errata = data
        graphs += 1
        checks += graph_checks
        failures += not passed
        errata_hits += graph_errata
        print(text)
    if summary:
        summary(as_json, graphs, checks, failures, errata_hits, had_error)
    return 1 if failures else 2 if had_error else 0


# ---------------------------------------------------------------------------
# commands

def _record_outcomes(args: argparse.Namespace, record, render) -> Iterator[_Outcome]:
    """Outcomes for info, zagreb and genfunc: each graph's record as JSON,
    or rendered as text, plus a blank line in a graph6 batch.  A record
    fails only when zagreb's routes disagree."""
    fmt = _resolve_format(args)
    end = "\n" if fmt == "graph6" else ""
    for ident, g in _iter_inputs(args.input, fmt):
        if isinstance(g, GraphFormatError):
            yield ("error", ident, str(g))
            continue
        rec = record(ident, g)
        text = json.dumps(rec) if args.json else render(rec) + end
        yield ("report", text, 0, rec.get("agree", True), 0)


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
    return ("report", text, report.check_count, report.passed, len(_triggered_ids(report)))


def _verify_mask_range(task: tuple[int, int, int, int, int, bool]) -> Iterator[_Outcome]:
    n, start, stop, p_max, m_max, as_json = task
    for report in sweep_reports(n, start, stop, p_max=p_max, m_max=m_max):
        yield _report_outcome(report, as_json, True)


def _verify_chunk(task: tuple[list, int, int, bool, bool]) -> Iterator[_Outcome]:
    """Outcomes for a chunk of _iter_inputs items, in order.

    verify_all_identities puts failed checks in its report; its ValueError
    means the graph has more vertices than the brute-force star counts can
    finish (p_max and m_max are checked before any graph is read).
    """
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
    two or more, the tasks run across a spawn pool of that many processes
    with at most two tasks per worker pending, so neither the tasks nor
    finished results pile up behind a slow consumer; otherwise they run
    here, one at a time."""
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

    context = multiprocessing.get_context("spawn")
    with context.Pool(len(head), initializer=_lift_digit_limit) as pool:
        pending: deque = deque()
        for task in chain(head, tasks):
            pending.append(pool.apply_async(_listed, (fn, task)))
            if len(pending) > 2 * len(head):
                yield from pending.popleft().get()
        while pending:
            yield from pending.popleft().get()


# Largest mask range one exhaustive-sweep task covers on two or more
# workers.  Each task keeps its own per-profile results, so larger ranges
# repeat less profile work.
SWEEP_RANGE = 1 << 12


def cmd_verify(args: argparse.Namespace) -> int:
    if args.p_max < 1:
        return _usage_error("--p-max must be at least 1")
    if args.m_max < 0:
        return _usage_error("--m-max must be non-negative")
    if args.jobs < 1:
        return _usage_error("--jobs must be at least 1")

    if args.exhaustive:
        if args.input:
            return _usage_error("--exhaustive does not take an input file")
        if args.n is None:
            return _usage_error("--exhaustive requires --n")
        if not 1 <= args.n <= MAX_ENUM_N:
            return _usage_error(f"--n must be between 1 and {MAX_ENUM_N}")
        nmasks = 1 << (args.n * (args.n - 1) // 2)
        # A single worker sweeps every mask in one task, so it evaluates
        # each degree profile once.
        size = min(SWEEP_RANGE, max(1, nmasks >> 3)) if _workers(args.jobs) > 1 else nmasks
        ranges = (
            (args.n, lo, min(lo + size, nmasks), args.p_max, args.m_max, args.json)
            for lo in range(0, nmasks, size)
        )
        outcomes = _map_tasks(_verify_mask_range, ranges, args.jobs)
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
    p_ver.add_argument("--p-max", dest="p_max", type=int, default=8, help="largest Zagreb exponent checked")
    p_ver.add_argument("--m-max", dest="m_max", type=int, default=4, help="largest moment exponent checked")
    p_ver.add_argument("--jobs", type=int, default=1, help="worker processes for batch/exhaustive runs")
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
