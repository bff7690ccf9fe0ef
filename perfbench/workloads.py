"""Seeded inputs, reference answers and output checks for each workload.

Everything here is the benchmark's own stdlib code: graphs are generated
and graph6-encoded without the library, and every answer the CLI prints is
compared against an independent recomputation from the generated edge
lists (degrees, frequency tallies, Z_p = sum_v deg(v)^p, star counts and
the generating-function numerator from an explicit expansion of
prod_j (1 - j t)).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import Callable

# The exhaustive n=6 sweep, text output, one worker.  --jobs 2 is left out:
# on 2 cores three runs spread 10.8-16.1 s, wider than the bounds allow.
SWEEP_N = 6
SWEEP_ARGV = ["verify", "--exhaustive", "--n", str(SWEEP_N), "--jobs", "1"]
# sha256 of the sweep's stdout at the commit that introduced this benchmark:
# the ROADMAP requires byte-identical output from every later change.
SWEEP_STDOUT_SHA256 = "0a49cc2839aeff511030c6daa361e77b349797a45fb8eaa55dc01462363501a0"

# CLI defaults the checks below rely on (verify --p-max / --m-max).
P_MAX = 8
M_MAX = 4

BATCH_INFO = (390, 24, 62)  # (graphs, n_min, n_max)
BATCH_GENFUNC = (156, 24, 62)
BATCH_VERIFY = (20, 12, 16)

HIGHP_GRAPHS = (4, 30, 62)
HIGHP_LADDER = (150, 300, 600, 1200)
# CPython refuses int -> str beyond this many digits unless told otherwise.
INT_STR_DIGITS = 4300
STAR_LEAVES = 61  # K_{1,61}: the largest star graph6 encodes in one byte
GOLDEN = (5**0.5 - 1) / 2


@dataclass
class Outcome:
    """What one invocation's output proved: how many records were right,
    and a reason for each one printed wrong."""

    good: int = 0
    wrong: list[str] = field(default_factory=list)


@dataclass
class Call:
    """One CLI invocation of a workload pass.

    label names the invocation in the report; layer is the per-command
    wall-time bucket; attempted is how many graph records it must print.
    check(stdout, complete) judges the output, complete meaning exit 0.
    """

    label: str
    layer: str
    argv: list[str]
    attempted: int
    check: Callable[[str, bool], Outcome]


@dataclass
class Workload:
    calls: list[Call]
    distinct_profile_ratio: float
    files: dict[str, str]


# ---------------------------------------------------------------------------
# graphs, independent of the library


def batch_graphs(rng: random.Random, count: int, n_min: int, n_max: int) -> list:
    """count graphs as (n, edges), sizes spread evenly over [n_min, n_max].

    Edge densities follow a fixed low-discrepancy sequence over [0.1, 0.9],
    so every seed pairs the same sizes with the same densities and a batch
    costs nearly the same work from seed to seed (brute force alone grows
    as 2^n); the seed draws every edge.
    """
    span = n_max - n_min + 1
    out = []
    for i in range(count):
        n = n_min + min(span - 1, i * span // max(1, count - 1))
        density = 0.1 + 0.8 * ((i + 0.5) * GOLDEN % 1.0)
        out.append((n, [(u, v) for v in range(1, n) for u in range(v) if rng.random() < density]))
    return out


def star_graph(leaves: int) -> tuple[int, list[tuple[int, int]]]:
    return leaves + 1, [(0, v) for v in range(1, leaves + 1)]


def encode_graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 for 1 <= n <= 62: upper triangle column by column, 6 bits a char."""
    present = set(edges)
    bits = "".join("1" if (u, v) in present else "0" for v in range(1, n) for u in range(v))
    bits += "0" * (-len(bits) % 6)
    return chr(63 + n) + "".join(chr(63 + int(bits[i:i + 6], 2)) for i in range(0, len(bits), 6))


def degree_list(n: int, edges: list[tuple[int, int]]) -> list[int]:
    out = [0] * n
    for u, v in edges:
        out[u] += 1
        out[v] += 1
    return out


def frequency(n: int, degs: list[int]) -> list[int]:
    counts = [0] * n
    for d in degs:
        counts[d] += 1
    return counts


def zagreb(degs: list[int], p: int) -> int:
    return sum(d**p for d in degs)


def genfunc_numerator(n: int, degs: list[int]) -> list[int]:
    """a_0..a_n of (sum_p Z_p t^p) * prod_{j=1..n} (1 - j t), truncated at t^n."""
    c = [1]
    for j in range(1, n + 1):
        c = [a - j * b for a, b in zip(c + [0], [0] + c)]
    z = [zagreb(degs, i) for i in range(n + 1)]
    return [sum(c[k - i] * z[i] for i in range(k + 1)) for k in range(n + 1)]


def classification(n: int, freq: list[int]) -> str:
    """The shape the star sequence pins down: it depends on f alone."""
    if n < 2:
        return "other"
    if freq[0] == 0 and freq[1] == 2 and sum(freq[2:3]) == n - 2:
        return "path"
    top = max(d for d in range(n) if freq[d] or d == 0)
    if top == 1:
        return "regular(1)" if freq[1] == n else "other"
    if top >= 2 and freq[0] + freq[top] == n:
        return f"regular({top})"
    return "other"


def verify_checks(n: int) -> int:
    """Checks verify_all_identities runs on an n-vertex graph at the CLI defaults."""
    inversion = 1 + (n - 2) + n
    moments = M_MAX + 1
    genfunc = max(P_MAX + 1, 2 * n + 10) + 2
    recurrence = (P_MAX + 1) + P_MAX
    return inversion + moments + 2 + P_MAX + genfunc + recurrence + (n - 1)


def digits(x: int) -> int:
    return len(str(abs(x)))


# ---------------------------------------------------------------------------
# checks


def _json_records(stdout: str) -> list:
    """Parsed lines up to the first that is not JSON (None marks that line)."""
    records = []
    for line in stdout.splitlines():
        if line.strip():
            try:
                records.append(json.loads(line))
            except ValueError:
                records.append(None)
                break
    return records


def _check_records(stdout: str, complete: bool, expected: list, summary=None) -> Outcome:
    """Match JSON records one-to-one with expectations, each of which returns
    a reason or None.  A complete output (exit 0) must hold every record and,
    if given, the verify summary after them; otherwise only the records that
    were printed are judged."""
    out = Outcome()
    records = _json_records(stdout)
    for i, expect in enumerate(expected):
        if i < len(records):
            reason = "not JSON" if records[i] is None else expect(records[i])
        elif complete:
            reason = "record missing"
        else:
            break
        if reason is None:
            out.good += 1
        else:
            out.wrong.append(f"record {i + 1}: {reason}")
    trailer = records[len(expected):]
    if not complete:
        return out
    if summary is not None:
        reason = (summary(trailer[0]) if trailer[0] is not None else "not JSON") if trailer else "missing"
        if reason is not None:
            out.wrong.append(f"summary: {reason}")
        trailer = trailer[1:]
    if trailer:
        out.wrong.append(f"{len(trailer)} unexpected extra records")
    return out


def _diff(rec: dict, want: dict) -> str | None:
    for key, value in want.items():
        if rec.get(key) != value:
            return f"{key}: got {str(rec.get(key))[:80]!r}, want {str(value)[:80]!r}"
    return None


def _expect_info(ident: str, g6: str, n: int, edges: list[tuple[int, int]]):
    degs = degree_list(n, edges)
    freq = frequency(n, degs)
    m = len(edges)
    present = [(d, f) for d, f in enumerate(freq) if f]
    seq = [str(2 * m)] + [str(sum(f * math.comb(d, k) for d, f in present)) for k in range(2, n)]
    want = {
        "type": "info",
        "identifier": ident,
        "graph6": g6,
        "n": n,
        "m": m,
        "degrees": degs,
        "frequency": freq,
        "stars": {"s1": str(m), "first_doubled": str(2 * m), "sequence": seq},
        "classification": classification(n, freq),
    }
    return lambda rec: _diff(rec, want)


def _expect_genfunc(ident: str, n: int, edges: list[tuple[int, int]]):
    num = genfunc_numerator(n, degree_list(n, edges))
    want = {
        "type": "genfunc",
        "identifier": ident,
        "n": n,
        "m": len(edges),
        "numerator": [str(a) for a in num],
        "denominator_factors": ["1-t"] + [f"1-{j}t" for j in range(2, n + 1)],
        "strictly_proper": num[n] == 0,
    }
    return lambda rec: _diff(rec, want)


def _expect_report(ident: str, n: int, edges: list[tuple[int, int]]):
    want = {"type": "report", "identifier": ident, "n": n, "m": len(edges),
            "passed": True, "checks": verify_checks(n)}

    def expect(rec: dict) -> str | None:
        reason = _diff(rec, want)
        if reason is None:
            for name, theorem in rec["theorems"].items():
                bad = [k for k, r in theorem["residuals"].items() if r != "0"]
                if bad:
                    return f"{name} residuals nonzero at {bad[:3]}"
        return reason

    return expect


def _expect_summary(graphs: int, checks: int):
    want = {"type": "summary", "graphs": graphs, "checks": checks, "failures": 0, "passed": True}
    return lambda rec: _diff(rec, want)


def _expect_zagreb(ident: str, n: int, m: int, p: int, method: str, value: str):
    routes = ("direct", "star", "recurrence") if method == "all" else (method,)
    want = {"type": "zagreb", "identifier": ident, "n": n, "m": m, "p": p,
            "method": method, "values": {r: value for r in routes}}
    if method == "all":
        want["agree"] = True
    return lambda rec: _diff(rec, want)


def check_sweep(stdout: str, complete: bool) -> Outcome:
    """Every line of the n=6 text sweep; when complete, also the summary
    counts and the sha256 of the whole output."""
    graphs = 1 << (SWEEP_N * (SWEEP_N - 1) // 2)
    checks = verify_checks(SWEEP_N)
    out = Outcome()
    lines = stdout.split("\n")
    for mask in range(min(graphs, len(lines) - 1) if not complete else graphs):
        prefix = f"PASS n={SWEEP_N}:mask={mask} n={SWEEP_N} m={mask.bit_count()} checks={checks} errata="
        line = lines[mask] if mask < len(lines) else ""
        if line.startswith(prefix):
            out.good += 1
        else:
            out.wrong.append(f"line {mask + 1}: {line[:80]!r}")
    if not complete:
        return out
    summary = re.fullmatch(
        r"summary: graphs=(\d+) checks=(\d+) failures=(\d+) errata_observations=\d+ -> PASS",
        lines[-2] if len(lines) >= 2 else "",
    )
    if summary is None or summary.groups() != (str(graphs), str(graphs * checks), "0"):
        out.wrong.append(f"summary line wrong: {lines[-2:]}")
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if digest != SWEEP_STDOUT_SHA256:
        out.wrong.append(f"stdout sha256 {digest} differs from the recorded output")
        out.good = 0
    return out


# ---------------------------------------------------------------------------
# workloads


def _profile_ratio(graphs: list[tuple[int, list[tuple[int, int]]]]) -> float:
    profiles = {tuple(frequency(n, degree_list(n, e))) for n, e in graphs}
    return len(profiles) / len(graphs)


def build_sweep(rng: random.Random) -> Workload:
    """The exhaustive sweep takes no input file, so the seed changes nothing."""
    graphs = 1 << (SWEEP_N * (SWEEP_N - 1) // 2)
    pairs = [(u, v) for u in range(SWEEP_N) for v in range(u + 1, SWEEP_N)]
    profiles = set()
    for mask in range(graphs):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        profiles.add(tuple(frequency(SWEEP_N, degree_list(SWEEP_N, edges))))
    call = Call("verify --exhaustive --n 6", "verify", SWEEP_ARGV, graphs, check_sweep)
    return Workload([call], len(profiles) / graphs, {})


def _batch_file(rng: random.Random, spec: tuple[int, int, int]):
    graphs = batch_graphs(rng, *spec)
    lines = [encode_graph6(n, e) for n, e in graphs]
    return graphs, lines, "".join(line + "\n" for line in lines)


def build_batch(rng: random.Random) -> Workload:
    info, info_lines, info_text = _batch_file(rng, BATCH_INFO)
    gen, _, gen_text = _batch_file(rng, BATCH_GENFUNC)
    ver, _, ver_text = _batch_file(rng, BATCH_VERIFY)
    info_expect = [
        _expect_info(f"info.g6:{i}", line, n, e)
        for i, ((n, e), line) in enumerate(zip(info, info_lines), 1)
    ]
    gen_expect = [_expect_genfunc(f"genfunc.g6:{i}", n, e) for i, (n, e) in enumerate(gen, 1)]
    ver_expect = [_expect_report(f"verify.g6:{i}", n, e) for i, (n, e) in enumerate(ver, 1)]
    ver_summary = _expect_summary(len(ver), sum(verify_checks(n) for n, _ in ver))
    calls = [
        Call("info info.g6 --json", "info", ["info", "info.g6", "--json"], len(info),
             lambda out, complete: _check_records(out, complete, info_expect)),
        Call("genfunc genfunc.g6 --json", "genfunc", ["genfunc", "genfunc.g6", "--json"], len(gen),
             lambda out, complete: _check_records(out, complete, gen_expect)),
        Call("verify verify.g6 --json", "verify", ["verify", "verify.g6", "--json"], len(ver),
             lambda out, complete: _check_records(out, complete, ver_expect, ver_summary)),
    ]
    files = {"info.g6": info_text, "genfunc.g6": gen_text, "verify.g6": ver_text}
    return Workload(calls, _profile_ratio(info + gen + ver), files)


def _zagreb_call(ident_file: str, graphs, p: int, method: str, values: list[str]) -> Call:
    expect = [
        _expect_zagreb(f"{ident_file}:{i}", n, len(e), p, method, value)
        for i, ((n, e), value) in enumerate(zip(graphs, values), 1)
    ]
    return Call(
        f"zagreb {ident_file} --p {p} --method {method}",
        f"zagreb.p{p}",
        ["zagreb", ident_file, "--p", str(p), "--method", method, "--json"],
        len(graphs),
        lambda out, complete: _check_records(out, complete, expect),
    )


def _digit_boundary(degs: list[int]) -> int:
    """Smallest p whose Z_p has more than INT_STR_DIGITS decimal digits."""
    lo, hi = 1, 1
    while digits(zagreb(degs, hi)) <= INT_STR_DIGITS:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if digits(zagreb(degs, mid)) > INT_STR_DIGITS:
            hi = mid
        else:
            lo = mid
    return hi


def build_highp(rng: random.Random) -> Workload:
    ladder, _, ladder_text = _batch_file(rng, HIGHP_GRAPHS)
    files = {"ladder.g6": ladder_text}
    calls = []
    for p in HIGHP_LADDER:
        values = [str(zagreb(degree_list(n, e), p)) for n, e in ladder]
        calls.append(_zagreb_call("ladder.g6", ladder, p, "all", values))
    # Answers on either side of CPython's int -> str digit limit, one graph
    # per invocation so a crash loses only its own answer: K_{1,61} at the
    # known pair, and the batch's largest graph at its own boundary.
    largest = ladder[-1]
    boundary = _digit_boundary(degree_list(*largest))
    probes = [("star61.g6", star_graph(STAR_LEAVES), p) for p in (2400, 2500)]
    probes += [("largest.g6", largest, p) for p in (boundary - 1, boundary)]
    for name, graph, p in probes:
        files[name] = encode_graph6(*graph) + "\n"
        value = str(zagreb(degree_list(*graph), p))
        call = _zagreb_call(name, [graph], p, "recurrence", [value])
        call.label += f" ({len(value)} digits)"
        call.layer = "zagreb.probe"
        calls.append(call)
    return Workload(calls, _profile_ratio(ladder), files)


BUILDERS = {"sweep": build_sweep, "batch": build_batch, "highp": build_highp}
