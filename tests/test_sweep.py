"""The exhaustive sweep: per-profile results shared across graphs, every
per-graph check still run on every graph, and output bytes unchanged."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import starzagreb.cli as cli
import starzagreb.oracle as oracle
from starzagreb.cli import main, render_report_line, report_to_dict
from starzagreb.graph import FrequencySequence, Graph, frequency_sequence, to_graph6
from starzagreb.oracle import labeled_graph_from_mask, sweep_reports, verify_all_identities
from starzagreb.star import StarSequence, frequency_from_star

# sha256 of `verify --exhaustive --n N` stdout (text, then --json), recorded
# from the implementation that evaluated every check on every graph.
PINNED_SWEEP_SHA256 = {
    4: (
        "30e142df756f140cd51385ee6fec43b52566724fd0b447d9d14273a83df3abe5",
        "bfbf6ed0764f1398455fcea421c168c237a8a60dcecedbcc3ed40267c4f61d98",
    ),
    5: (
        "97ebd28065bb29e456a09b22fda4da0ecb586b377a6592587ac7789bf17206ca",
        "ad1353e0bef1cf001c2eeea43b38a78c6e109063efc9d3f3b7b82109f9c1c0f7",
    ),
}


def per_graph_reports(n: int) -> list:
    return [
        verify_all_identities(labeled_graph_from_mask(n, mask), graph_id=f"n={n}:mask={mask}")
        for mask in range(1 << (n * (n - 1) // 2))
    ]


def sweep_stdout(capsys, n: int, *extra: str) -> tuple[int, str]:
    rc = main(["verify", "--exhaustive", "--n", str(n), *extra])
    return rc, capsys.readouterr().out


def json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


@pytest.mark.parametrize("n", range(1, 6))
def test_sweep_equals_per_graph_verification(n, capsys):
    reports = per_graph_reports(n)
    assert list(sweep_reports(n)) == reports

    checks = sum(r.check_count for r in reports)
    errata = sum(note.triggered for r in reports for note in r.errata)
    summary = {
        "type": "summary",
        "graphs": len(reports),
        "checks": checks,
        "failures": 0,
        "errata_observations": errata,
        "passed": True,
    }
    text = [render_report_line(r) for r in reports]
    text.append(
        f"summary: graphs={len(reports)} checks={checks} failures=0 "
        f"errata_observations={errata} -> PASS"
    )
    assert sweep_stdout(capsys, n) == (0, "\n".join(text) + "\n")

    lines = [json.dumps(report_to_dict(r)) for r in reports]
    lines.append(json.dumps(summary))
    assert sweep_stdout(capsys, n, "--json") == (0, "\n".join(lines) + "\n")


@pytest.mark.parametrize("n", sorted(PINNED_SWEEP_SHA256))
def test_sweep_output_bytes_pinned(n, capsys):
    for extra, digest in zip(((), ("--json",)), PINNED_SWEEP_SHA256[n]):
        rc, out = sweep_stdout(capsys, n, *extra)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, extra


def test_sweep_shares_theorems_within_a_profile():
    # Every graph of a passing profile has the same per-graph values, so the
    # sweep hands each of them one theorems tuple, built once.
    first: dict[tuple[int, ...], tuple] = {}
    for mask, report in enumerate(sweep_reports(5)):
        profile = labeled_graph_from_mask(5, mask).frequency.counts
        assert report.theorems is first.setdefault(profile, report.theorems)
    assert len(first) == 31


def test_sweep_shares_per_graph_results_across_profiles():
    # Every passing graph has equal edge-sum and brute-force results, label
    # for label, so the sweep keeps one object of each for all profiles.
    reports = list(sweep_reports(5))
    names = [t.name for t in reports[0].theorems]
    for name in ("inverse_degree_sum", "star_bruteforce"):
        i = names.index(name)
        assert all(r.theorems[i] is reports[0].theorems[i] for r in reports), name


def test_sweep_runs_profile_part_once_per_profile(monkeypatch):
    # The memo key holds nothing graph-specific beyond the two per-graph
    # values, so a passing sweep evaluates each degree profile once.
    calls = []
    real = oracle._profile_part

    def counting(g, *args):
        calls.append(tuple(sorted(g.vertex_degrees)))
        return real(g, *args)

    monkeypatch.setattr(oracle, "_profile_part", counting)
    assert all(r.passed for r in sweep_reports(5))
    assert len(calls) == len(set(calls)) == 31


def test_sweep_subrange_and_validation():
    assert list(sweep_reports(4, 10, 20)) == per_graph_reports(4)[10:20]
    assert list(sweep_reports(3, 5, 5)) == []
    for args, kwargs in (
        ((4, 0, 65), {}),
        ((4, -1, 3), {}),
        ((4, 5, 4), {}),
        ((0,), {}),
        ((oracle.MAX_ENUM_N + 1,), {}),
        ((3,), {"p_max": 0}),
        ((3,), {"m_max": -1}),
    ):
        with pytest.raises(ValueError):
            next(sweep_reports(*args, **kwargs))


def test_jobs_2_equals_jobs_1(capsys, monkeypatch):
    # Two workers even on a one-core machine, so the pool path runs.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    for extra in ((), ("--json",)):
        single = sweep_stdout(capsys, 4, "--jobs", "1", *extra)
        pooled = sweep_stdout(capsys, 4, "--jobs", "2", *extra)
        assert single == pooled
        assert single[0] == 0


CLAW_PROFILE = (0, 3, 0, 1)


def masks_with_profile(n: int, counts: tuple[int, ...]) -> set[int]:
    return {
        mask
        for mask in range(1 << (n * (n - 1) // 2))
        if frequency_sequence(labeled_graph_from_mask(n, mask)).counts == counts
    }


CLAW_STARS = StarSequence(4, 3, (3, 1))


def is_claw(arg) -> bool:
    """True when a route's first argument (graph, f or stars) is the claw profile."""
    if isinstance(arg, Graph):
        return arg.frequency.counts == CLAW_PROFILE
    if isinstance(arg, FrequencySequence):
        return arg.counts == CLAW_PROFILE
    return arg == CLAW_STARS


def bump_s2(s: StarSequence) -> StarSequence:
    return replace(s, higher=(s.higher[0] + 1, *s.higher[1:]))


# Each route _profile_part calls, a way to put its result off by one, and
# the theorems that must then fail on the claws: every route feeds some check
# that compares it with an independent value, never with itself.
PROFILE_ROUTE_FAULTS = [
    (
        "star_sequence",
        bump_s2,
        {"inversion", "moments", "inverse_degree_sum", "zagreb_from_stars", "star_bruteforce"},
    ),
    ("star_from_frequency", bump_s2, {"inversion"}),
    (
        "frequency_from_star",
        lambda f: FrequencySequence((f.counts[0] + 1, f.counts[1] - 1, *f.counts[2:])),
        {"inversion"},
    ),
    ("alternating_moment", lambda x: x + 1, {"moments"}),
    ("moment_identity_rhs", lambda x: x + 1, {"moments"}),
    ("isolated_count_from_star", lambda x: x + 1, {"inverse_degree_sum"}),
    ("zagreb_from_stars", lambda x: x + 1, {"zagreb_from_stars"}),
    ("zagreb_direct", lambda x: x + 1, {"zagreb_from_stars", "genfunc", "recurrence"}),
    (
        "genfunc_numerator",
        lambda gf: replace(gf, numerator=(gf.numerator[0] + 1, *gf.numerator[1:])),
        {"genfunc"},
    ),
    (
        "verify_recurrence",
        lambda items: [replace(items[0], residual=items[0].residual + 1), *items[1:]],
        {"recurrence"},
    ),
    ("zagreb_by_recurrence", lambda x: x + 1, {"recurrence"}),
]


def code_names(code) -> set[str]:
    """Global and attribute names a code object reads, nested code included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= code_names(const)
    return names


def test_every_profile_route_has_a_fault_case():
    routes = {
        name
        for name in code_names(oracle._profile_part.__code__)
        if getattr(getattr(oracle, name, None), "__module__", "")
        in ("starzagreb.star", "starzagreb.zagreb")
    }
    assert routes == {name for name, _, _ in PROFILE_ROUTE_FAULTS}


def test_profile_route_fault_fails_every_graph_of_that_profile(capsys, monkeypatch):
    real = oracle.zagreb_from_stars

    def off_by_one_on_claws(s, p):
        return real(s, p) + (frequency_from_star(s).counts == CLAW_PROFILE)

    monkeypatch.setattr(oracle, "zagreb_from_stars", off_by_one_on_claws)
    rc, out = sweep_stdout(capsys, 4, "--json")
    records = json_lines(out)
    failed = {r["identifier"] for r in records[:-1] if not r["passed"]}
    claws = masks_with_profile(4, CLAW_PROFILE)
    assert len(claws) == 4
    assert rc == 1
    assert failed == {f"n=4:mask={mask}" for mask in claws}
    assert records[-1]["failures"] == 4
    for rec in records[:-1]:
        if rec["identifier"] in failed:
            bad = rec["theorems"]["zagreb_from_stars"]
            assert bad["status"] == "fail"
            assert set(bad["residuals"].values()) == {"1"}
            assert [t["status"] for t in rec["theorems"].values()].count("fail") == 1


@pytest.mark.parametrize(
    "name, bump, theorems", PROFILE_ROUTE_FAULTS, ids=[c[0] for c in PROFILE_ROUTE_FAULTS]
)
def test_each_profile_route_fault_fails_its_theorems_on_that_profile(
    capsys, monkeypatch, name, bump, theorems
):
    real = getattr(oracle, name)

    def off_by_one_on_claws(*args):
        result = real(*args)
        return bump(result) if is_claw(args[0]) else result

    monkeypatch.setattr(oracle, name, off_by_one_on_claws)
    rc, out = sweep_stdout(capsys, 4, "--json")
    records = json_lines(out)
    failed = {r["identifier"] for r in records[:-1] if not r["passed"]}
    claws = masks_with_profile(4, CLAW_PROFILE)
    assert len(claws) == 4
    assert rc == 1
    assert failed == {f"n=4:mask={mask}" for mask in claws}
    assert records[-1]["failures"] == 4
    for rec in records[:-1]:
        if rec["identifier"] in failed:
            bad = {t for t, result in rec["theorems"].items() if result["status"] == "fail"}
            assert bad == theorems


PER_GRAPH_FAULTS = [
    ("star_counts_bruteforce", "star_bruteforce", "k=1", lambda c: (c[0] + 1, *c[1:])),
    ("inverse_degree_edge_sum", "inverse_degree_sum", "edge_sum", lambda x: x + 1),
]


# Masks 11 and 56 are the first and the last of the four labeled graphs
# forming a triangle plus an isolated vertex at n = 4: a fault on mask 56
# comes after the profile's passing results are already memoised.  The
# mask-11 cases keep the ids they had before mask 56 was added.
@pytest.mark.parametrize(
    "name, theorem, label, bump, mask",
    [
        pytest.param(*case, mask, id=f"{'-'.join(case[:3])}-<lambda>{suffix}")
        for mask, suffix in ((11, ""), (56, "-mask56"))
        for case in PER_GRAPH_FAULTS
    ],
)
def test_per_graph_fault_fails_exactly_that_graph(
    capsys, monkeypatch, name, theorem, label, bump, mask
):
    # The three other labeled graphs of the profile must still pass.
    target = labeled_graph_from_mask(4, mask)
    profile = masks_with_profile(4, frequency_sequence(target).counts)
    assert len(profile) == 4
    assert mask in (min(profile), max(profile))
    real = getattr(oracle, name)

    def faulty(g):
        return bump(real(g)) if g == target else real(g)

    monkeypatch.setattr(oracle, name, faulty)
    rc, out = sweep_stdout(capsys, 4)
    fail_lines = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert rc == 1
    assert len(fail_lines) == 1
    assert fail_lines[0].startswith(f"FAIL n=4:mask={mask} ")
    assert f"  FAIL {theorem}/{label} residual=1" in out
    assert "failures=1 " in out


class RecordingPool:
    """Stands in for a multiprocessing pool: records its size, runs tasks inline."""

    sizes: list[int] = []

    def __init__(self, processes, initializer=None, initargs=()):
        RecordingPool.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def apply_async(self, fn, args):
        result = fn(*args)
        return SimpleNamespace(get=lambda: result)


RecordingContext = SimpleNamespace(Pool=RecordingPool)


def test_cli_import_leaves_multiprocessing_unloaded():
    # Only the worker pool needs multiprocessing, so the CLI loads it there;
    # the pool tests below patch the module's own get_context for that reason.
    # The probe also lists the top-level modules the import adds from outside
    # the standard library: the package has no runtime dependency.  Modules
    # the interpreter preloads at start-up are taken out first.
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        "import sys; before = set(sys.modules); import starzagreb, starzagreb.cli; "
        "print('multiprocessing' in sys.modules); "
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}; "
        "print(sorted(added - set(sys.stdlib_module_names) - {'starzagreb'}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "False\n[]\n"


@pytest.mark.parametrize(
    "cpus, argv, expected",
    [
        # 64 masks in 8 ranges: the pool is capped by the core count.
        (4, ["verify", "--exhaustive", "--n", "4", "--jobs", "1000000000"], [4]),
        # 2 masks in 2 ranges: capped by the number of tasks.
        (4, ["verify", "--exhaustive", "--n", "2", "--jobs", "3"], [2]),
        # An unknown core count means one worker, so no pool at all.
        (None, ["verify", "--exhaustive", "--n", "4", "--jobs", "8"], []),
    ],
)
def test_jobs_clamped_to_cores_and_tasks(capsys, monkeypatch, cpus, argv, expected):
    rc, baseline = main(argv[:-2]), capsys.readouterr().out
    RecordingPool.sizes = []
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: RecordingContext)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert main(argv) == rc == 0
    assert capsys.readouterr().out == baseline
    assert RecordingPool.sizes == expected


def test_graph6_batch_jobs_clamped_to_chunks(tmp_path, capsys, monkeypatch):
    src = tmp_path / "three.g6"
    src.write_text("Bw\nA_\nCh\n")
    RecordingPool.sizes = []
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: RecordingContext)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    assert main(["verify", str(src), "--jobs", "8"]) == 0
    assert "summary: graphs=3 " in capsys.readouterr().out
    # Three lines fit one chunk of tasks, so no pool is started.
    assert RecordingPool.sizes == []


def test_graph6_batch_pool_output_identical(tmp_path, capsys, monkeypatch):
    # 320 lines make three 128-line chunks, so --jobs 2 starts a real pool.
    lines = [to_graph6(labeled_graph_from_mask(5, mask)) for mask in range(320)]
    lines[7], lines[130], lines[260] = "", "###", "T" + "?" * 35
    src = tmp_path / "batch.g6"
    src.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    for extra in ([], ["--json"]):
        runs = []
        for jobs in ("1", "2"):
            rc = main(["verify", str(src), "--jobs", jobs, *extra])
            captured = capsys.readouterr()
            runs.append((rc, captured.out, captured.err))
        assert runs[0] == runs[1]
        rc, out, err = runs[0]
        assert rc == 2
        errors = err.splitlines()
        assert len(errors) == 2
        assert errors[0] == f"error: {src}:131: invalid graph6 character '#' at position 0"
        assert errors[1].startswith(f"error: {src}:261: n = 21 is above the brute-force limit")
        summary = out.splitlines()[-1]
        assert ('"graphs": 317,' if extra else "summary: graphs=317 ") in summary


@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_reads_graph6_one_chunk_per_worker_ahead(tmp_path, capsys, monkeypatch, jobs):
    src = tmp_path / "k2.g6"
    src.write_text("A_\n" * 1000)
    lines_read = 0
    read_at_first_verify = []

    class CountingFile:
        def __init__(self, *args, **kwargs):
            self.fh = open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __iter__(self):
            nonlocal lines_read
            for line in self.fh:
                lines_read += 1
                yield line

    real = cli.verify_all_identities

    def recording(*args, **kwargs):
        if not read_at_first_verify:
            read_at_first_verify.append(lines_read)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "open", CountingFile, raising=False)
    monkeypatch.setattr(cli, "verify_all_identities", recording)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: RecordingContext)
    assert main(["verify", str(src), "--jobs", str(jobs), "--p-max", "3", "--m-max", "2"]) == 0
    assert "summary: graphs=1000 " in capsys.readouterr().out
    assert lines_read == 1000
    # Each worker holds one 128-line chunk, and one more is being read.
    assert read_at_first_verify[0] <= (jobs + 1) * 128
