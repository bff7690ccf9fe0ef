"""The exhaustive sweep: per-profile results shared across graphs, every
per-graph check still run on every graph, and output bytes unchanged."""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
import threading
from collections import Counter
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import combinations
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import starzagreb.cli as cli
import starzagreb.oracle as oracle
from starzagreb.cli import main, render_report_line, report_to_dict
from starzagreb.graph import FrequencySequence, Graph, frequency_sequence, to_graph6
from starzagreb.oracle import (
    TheoremReport,
    labeled_graph_from_mask,
    star_counts_bruteforce,
    sweep_reports,
    verify_all_identities,
)
from starzagreb.star import StarSequence, frequency_from_star, inverse_degree_edge_sum
from tests.named import path

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


def range_reports(n: int, start: int, stop: int, memo: dict) -> list[TheoremReport]:
    """The reports of a pool task's mask range, swept against memo."""
    return [
        TheoremReport(f"n={n}:mask={mask}", n, mask.bit_count(), 8, 4, *entry)
        for mask, entry in enumerate(oracle._sweep_masks(n, start, stop, memo, 8, 4), start)
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


def record_profile_parts(monkeypatch) -> list[tuple]:
    """The inputs of each _profile_part call from now on: the graph's sorted
    degrees, its edge sum and its star counts."""
    calls = []
    real = oracle._profile_part

    def counting(g, edge_sum, counts, *args):
        calls.append((tuple(sorted(g.vertex_degrees)), edge_sum, counts))
        return real(g, edge_sum, counts, *args)

    monkeypatch.setattr(oracle, "_profile_part", counting)
    return calls


def test_sweep_runs_profile_part_once_per_profile(monkeypatch):
    # Every graph of a profile has its realization's sweep key, so a
    # passing sweep evaluates each degree profile once.
    calls = record_profile_parts(monkeypatch)
    assert all(r.passed for r in sweep_reports(5))
    assert len(calls) == len(set(calls)) == len({c[0] for c in calls}) == 31


def sweep_values(n: int, key: int) -> tuple:
    """Sorted degrees, edge sum and star counts decoded from a sweep key
    F | E << A | C << B: F counts the vertices of each degree, E is the
    edge-sum numerator over L = lcm(1..n-1) and C the packed raw star counts."""
    fw, a, b, scale = oracle._key_layout(n)
    assert (fw, scale) == (n.bit_length(), math.lcm(*range(1, n)))
    degrees = tuple(d for d in range(n) for _ in range(key >> fw * d & (1 << fw) - 1))
    counts = oracle._unpack_star_counts(key >> b, n, oracle._star_field_width(n, n - 1))
    return degrees, Fraction(key >> a & (1 << b - a) - 1, scale), counts


def public_values(g: Graph) -> tuple:
    """A graph's sorted degrees and its two per-graph values, from the public checks."""
    return tuple(sorted(g.vertex_degrees)), inverse_degree_edge_sum(g), star_counts_bruteforce(g)


def test_profile_memo_holds_exactly_the_keys_the_masks_produce():
    # One entry per graphical degree sequence (OEIS A004251), keyed on the
    # sweep key every labeled graph of that profile has, so a sweep of a
    # correct library never misses.
    for n, profiles in zip(range(1, 8), (1, 2, 4, 11, 31, 102, 342)):
        assert len(oracle._profile_memo(n, 1, 0)) == profiles
    for n in range(1, 6):
        memo = oracle._profile_memo(n, 1, 0)
        keys = set(oracle._mask_keys(n, 0, 1 << (n * (n - 1) // 2)))
        assert set(memo) == keys
        graphs = {public_values(g) for g in oracle.all_labeled_graphs(n)}
        assert {sweep_values(n, key) for key in memo} == graphs
    assert sorted(oracle._realize(4, (3, 2, 2, 1)).vertex_degrees) == [1, 2, 2, 3]
    assert oracle._realize(4, (3, 3, 1, 1)) is None
    assert oracle._realize(3, (1, 1, 1)) is None


def test_sweep_subrange_and_validation():
    # A public sweep covers every mask; a pool task sweeps a mask range.
    with pytest.raises(TypeError):
        sweep_reports(4, 10, 20)
    memo = oracle._profile_memo(4, 8, 4)
    assert range_reports(4, 10, 20, memo) == per_graph_reports(4)[10:20]
    assert range_reports(3, 5, 5, oracle._profile_memo(3, 8, 4)) == []
    for args, kwargs in (
        ((0,), {}),
        ((oracle.MAX_ENUM_N + 1,), {}),
        ((3,), {"p_max": 0}),
        ((3,), {"m_max": -1}),
    ):
        with pytest.raises(ValueError):
            next(sweep_reports(*args, **kwargs))


def test_mask_keys_equal_the_per_graph_values_at_every_n6_mask():
    # Each block's recurrence against the public checks on a Graph per
    # mask, at every mask for n <= 6, and every mask's key against the
    # memo's key of its profile.
    for n in range(1, 7):
        memo = oracle._profile_memo(n, 1, 0)
        keys = list(oracle._mask_keys(n, 0, 1 << n * (n - 1) // 2))
        assert len(keys) == 1 << n * (n - 1) // 2
        for mask, key in enumerate(keys):
            assert sweep_values(n, key) == public_values(labeled_graph_from_mask(n, mask)), (n, mask)
            assert key in memo, (n, mask)


@cache
def memo7() -> dict:
    # Built once for every example; hypothesis would print it as an argument.
    # Each example sweeps a copy, so no example's miss can fill it.
    return oracle._profile_memo(7, 8, 4)


@settings(max_examples=20, deadline=None)
@given(start=st.integers(0, (1 << 21) - 1), length=st.integers(0, 32))
@example(start=0, length=32)
@example(start=(1 << 21) - 24, length=32)
@example(start=(1 << 20) - 1, length=3)
@example(start=(5 << 6) + 40, length=32)
@example(start=(9 << 6) + 3, length=5)
def test_sweep_ranges_at_n7_equal_per_graph_verification(start, length):
    # A pool task's range may start and stop mid-block, at any mask; a
    # block is the 64 masks that differ only in vertex 0's neighbours.
    stop = min(start + length, 1 << 21)
    keys = list(oracle._mask_keys(7, start, stop))
    assert [sweep_values(7, key) for key in keys] == [
        public_values(labeled_graph_from_mask(7, mask)) for mask in range(start, stop)
    ]
    assert all(key in memo7() for key in keys)
    assert range_reports(7, start, stop, dict(memo7())) == [
        verify_all_identities(labeled_graph_from_mask(7, mask), graph_id=f"n=7:mask={mask}")
        for mask in range(start, stop)
    ]


def test_passing_sweep_builds_no_graph(monkeypatch):
    # Every n = 5 key hits the memo, so no mask needs a Graph of its own.
    memo = oracle._profile_memo(5, 8, 4)
    built = []
    real = Graph.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Graph, "__post_init__", counting)
    entries = list(oracle._sweep_masks(5, 0, 1 << 10, memo, 8, 4))
    assert len(entries) == 1024
    assert all(r.passed for theorems, _ in entries for r in theorems)
    assert built == []
    labeled_graph_from_mask(5, 3)
    assert len(built) == 1


def record_histograms(monkeypatch) -> list[tuple[int, int, int]]:
    """(mask, width, packed histogram) of each _subset_histogram call from now on."""
    calls = []
    real = oracle._subset_histogram

    def recording(mask, width):
        calls.append((mask, width, real(mask, width)))
        return calls[-1][2]

    monkeypatch.setattr(oracle, "_subset_histogram", recording)
    return calls


def direct_histogram(mask: int) -> Counter:
    """The non-empty subsets of mask tallied by size, each read off by
    testing every smaller integer for containment."""
    return Counter(sub.bit_count() for sub in range(1, mask + 1) if sub & mask == sub)


def test_sweep_table_unpacks_to_a_direct_subset_walk(monkeypatch):
    # A range's table holds every possible neighbour mask's histogram,
    # field k being the number of k-element subsets.
    calls = record_histograms(monkeypatch)
    for n in range(1, oracle.MAX_ENUM_N + 1):
        calls.clear()
        list(oracle._mask_keys(n, 0, 1))
        assert sorted(mask for mask, _, _ in calls) == list(range(1 << n))
        for mask, width, packed in calls:
            assert width == oracle._star_field_width(n, n - 1)
            fields = [packed >> k * width & (1 << width) - 1 for k in range(n + 1)]
            expected = direct_histogram(mask)
            assert fields == [expected[k] for k in range(n + 1)], (n, mask)
            assert packed >> (n + 1) * width == 0


def regular(n: int, d: int) -> Graph:
    """A d-regular graph on n vertices, for d < n and n * d even: each
    vertex joined to the d // 2 nearest on either side around a cycle, and
    for odd d also to the opposite vertex."""
    offsets = [*range(1, d // 2 + 1), *([n // 2] if d % 2 else [])]
    return Graph.from_edges(n, {tuple(sorted((v, (v + j) % n))) for v in range(n) for j in offsets})


def test_star_field_width_holds_every_bucket():
    # Field k sums C(deg(v), k) over the n vertices, at most n * C(Δ, k)
    # for maximum degree Δ; a Δ-regular graph reaches it in every field.
    for n in range(1, oracle.MAX_BRUTEFORCE_N + 1):
        for delta in range(n):
            width = oracle._star_field_width(n, delta)
            assert all(n * math.comb(delta, k) < 1 << width for k in range(1, n))
    for n in range(2, 13):
        for delta in range(n):
            if n * delta % 2 == 0:
                g = regular(n, delta)
                assert sorted(g.vertex_degrees) == [delta] * n
                assert star_counts_bruteforce(g) == tuple(
                    n * math.comb(delta, k) // (2 if k == 1 else 1) for k in range(1, n)
                ), (n, delta)


def test_sweep_walks_each_neighbour_mask_once_per_range(monkeypatch):
    memo = oracle._profile_memo(5, 8, 4)
    calls = record_histograms(monkeypatch)
    assert len(list(oracle._sweep_masks(5, 0, 1 << 10, memo, 8, 4))) == 1024
    assert Counter(mask for mask, _, _ in calls) == Counter(range(1 << 5))
    calls.clear()
    list(oracle._sweep_masks(5, 0, 512, memo, 8, 4))
    list(oracle._sweep_masks(5, 512, 1024, memo, 8, 4))
    assert Counter(mask for mask, _, _ in calls) == Counter(2 * list(range(1 << 5)))


def test_public_bruteforce_walks_each_centre_once(monkeypatch):
    # The public path builds no table and shares no walk: one walk per
    # vertex, in vertex order, of the mask with one bit per neighbour, and
    # fields sized from the maximum degree, even at the brute-force limit.
    calls = record_histograms(monkeypatch)
    for g in (path(oracle.MAX_BRUTEFORCE_N), labeled_graph_from_mask(7, 0xB63AD)):
        calls.clear()
        counts = star_counts_bruteforce(g)
        degrees = g.vertex_degrees
        assert [mask for mask, _, _ in calls] == [(1 << d) - 1 for d in degrees]
        assert {width for _, width, _ in calls} == {oracle._star_field_width(g.n, max(degrees))}
        assert counts == tuple(
            sum(math.comb(d, k) for d in degrees) // (2 if k == 1 else 1) for k in range(1, g.n)
        )


def test_public_bruteforce_masks_stay_degree_wide_on_a_long_path(monkeypatch):
    # A centre's mask has one bit per neighbour, not one per vertex, so on
    # a sparse graph no walk grows with n.
    calls = record_histograms(monkeypatch)
    g = path(2000)
    assert star_counts_bruteforce(g) == (1999, 1998, *[0] * 1997)
    assert len(calls) == g.n
    assert all(mask < 1 << 2 for mask, _, _ in calls)


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


# Each per-graph check, named after its public function, and a way to put
# its value off by one in a sweep key F | E << A | C << B (_key_layout): the
# raw k = 1 field of the star counts C counts each edge from both ends, and
# the edge-sum numerator E is taken over L = lcm(1, 2, 3) at n = 4.
PER_GRAPH_FAULTS = [
    (
        "star_counts_bruteforce",
        "star_bruteforce",
        "k=1",
        lambda key: key + (2 << oracle._key_layout(4)[2] + oracle._star_field_width(4, 3)),
    ),
    (
        "inverse_degree_edge_sum",
        "inverse_degree_sum",
        "edge_sum",
        lambda key: key + (math.lcm(1, 2, 3) << oracle._key_layout(4)[1]),
    ),
]


def fault_mask_keys(monkeypatch, fault) -> None:
    """Make the sweep's block core yield fault(mask, key) for each mask's key."""
    real = oracle._mask_keys

    def faulty(n, start, stop):
        for mask, key in enumerate(real(n, start, stop), start):
            yield fault(mask, key)

    monkeypatch.setattr(oracle, "_mask_keys", faulty)


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
    # The fault goes into exactly the target mask's key, so the three other
    # labeled graphs of the profile must still pass.
    target = labeled_graph_from_mask(4, mask)
    profile = masks_with_profile(4, frequency_sequence(target).counts)
    assert len(profile) == 4
    assert mask in (min(profile), max(profile))
    fault_mask_keys(monkeypatch, lambda m, key: bump(key) if m == mask else key)
    rc, out = sweep_stdout(capsys, 4)
    fail_lines = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert rc == 1
    assert len(fail_lines) == 1
    assert fail_lines[0].startswith(f"FAIL n=4:mask={mask} ")
    assert f"  FAIL {theorem}/{label} residual=1" in out
    assert "failures=1 " in out


def add_edge_sum_fault(monkeypatch) -> None:
    """Make the edge sum add (sum of u*v over the edges mod 3), a fault
    that depends on the graph, not only on its profile: both in the core
    that keys the memo's realizations and in each n = 6 mask's sweep key."""
    real = oracle._edge_sum_numerator

    def faulty(degrees, edges, inverses):
        return real(degrees, edges, inverses) + sum(u * v for u, v in edges) % 3 * inverses[1]

    monkeypatch.setattr(oracle, "_edge_sum_numerator", faulty)
    pairs = list(combinations(range(6), 2))
    _, a, _, scale = oracle._key_layout(6)

    def fault(mask, key):
        return key + (sum(u * v for i, (u, v) in enumerate(pairs) if mask >> i & 1) % 3 * scale << a)

    fault_mask_keys(monkeypatch, fault)


def test_graph_dependent_fault_prints_each_graphs_own_residual(capsys, monkeypatch):
    # The edge-sum fault makes many graphs miss the memo, each evaluated
    # and rendered on its own key, so each must print its own residual,
    # not its profile's or that of another graph that missed earlier.
    add_edge_sum_fault(monkeypatch)
    pairs = list(combinations(range(6), 2))
    expected = [
        sum(u * v for i, (u, v) in enumerate(pairs) if mask >> i & 1) % 3 for mask in range(1 << 15)
    ]
    assert set(expected) == {0, 1, 2}

    rc, out = sweep_stdout(capsys, 6, "--p-max", "1", "--m-max", "0")
    printed: dict[int, list[str]] = {}
    for line in out.splitlines()[:-1]:
        if line.startswith("  "):
            printed[mask].append(line)
        else:
            mask = int(line.split()[1].removeprefix("n=6:mask="))
            printed[mask] = [line.split()[0]]
    assert rc == 1
    assert list(printed) == list(range(1 << 15))
    for mask, residual in enumerate(expected):
        own = ["FAIL", f"  FAIL inverse_degree_sum/edge_sum residual={residual}"]
        assert printed[mask] == (own if residual else ["PASS"]), mask

    rc, out = sweep_stdout(capsys, 6, "--p-max", "1", "--m-max", "0", "--json")
    records = json_lines(out)[:-1]
    assert rc == 1
    assert [r["identifier"] for r in records] == [f"n=6:mask={mask}" for mask in range(1 << 15)]
    for rec, residual in zip(records, expected):
        assert rec["theorems"]["inverse_degree_sum"]["residuals"]["edge_sum"] == str(residual)
        assert rec["passed"] == (residual == 0), rec["identifier"]


def test_graph_dependent_fault_evaluates_each_key_once(capsys, monkeypatch):
    # A miss fills the one memo, so in process no _profile_part input is
    # evaluated twice, however many ranges its graphs fall in: 102 profiles
    # and 194 keys the edge-sum fault adds.
    add_edge_sum_fault(monkeypatch)
    calls = record_profile_parts(monkeypatch)
    rc, out = sweep_stdout(capsys, 6, "--p-max", "1", "--m-max", "0")
    assert rc == 1
    assert "summary: graphs=32768 " in out
    assert len(calls) == len(set(calls)) == 296


class RecordingPool:
    """Stands in for a ProcessPoolExecutor: records its size, runs tasks inline."""

    sizes: list[int] = []

    def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
        RecordingPool.sizes.append(max_workers)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass


def use_pool(monkeypatch, pool=RecordingPool) -> None:
    """Make the CLI start pool in place of a ProcessPoolExecutor."""
    RecordingPool.sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)


def test_cli_import_leaves_multiprocessing_unloaded():
    # Only the worker pool needs multiprocessing, so the CLI loads it there;
    # the pool tests below patch concurrent.futures for that reason.
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
    use_pool(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert main(argv) == rc == 0
    assert capsys.readouterr().out == baseline
    assert RecordingPool.sizes == expected


def test_exhaustive_jobs_2_runs_profile_part_once_per_profile(capsys, monkeypatch):
    # The memo of every profile is filled before the first task and sent
    # with each mask range, so the pool's eight ranges at n = 5 evaluate
    # none of the 31 degree profiles again.
    use_pool(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    calls = record_profile_parts(monkeypatch)
    rc, out = sweep_stdout(capsys, 5, "--jobs", "2")
    assert rc == 0
    assert "summary: graphs=1024 " in out
    assert len(calls) == len(set(calls)) == len({c[0] for c in calls}) == 31
    assert RecordingPool.sizes == [2]


@pytest.mark.parametrize("extra", [(), ("--json",)], ids=["text", "json"])
def test_sweep_renders_each_entry_once_per_sweep(capsys, monkeypatch, extra):
    # The memo is finished, rendered text or JSON, where it is filled, so a
    # sweep renders each of the 31 degree profiles at n = 5 (OEIS A004251)
    # once, in process and through the pool's eight mask ranges alike; per
    # graph only the identifier, n and m are formatted.
    name = "report_to_dict" if extra else "_report_verdict"
    calls = []
    real = getattr(cli, name)

    def counting(report):
        calls.append(report)
        return real(report)

    monkeypatch.setattr(cli, name, counting)
    use_pool(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    for jobs, pools in (("1", []), ("2", [2])):
        calls.clear()
        RecordingPool.sizes.clear()
        rc, out = sweep_stdout(capsys, 5, "--jobs", jobs, *extra)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SWEEP_SHA256[5][bool(extra)]
        assert RecordingPool.sizes == pools
        assert len(calls) == len({id(r.theorems) for r in calls}) == 31, jobs


@pytest.mark.parametrize(
    "extra, digest",
    [
        ((), "0a49cc2839aeff511030c6daa361e77b349797a45fb8eaa55dc01462363501a0"),
        (("--json",), "84926df74274ed6bee1821ee44b0f4488db43f57653db654c96631e4501606e8"),
    ],
    ids=["text", "json"],
)
def test_pool_results_pickle_each_entry_once(capsys, monkeypatch, extra, digest):
    # A pool task sends its range back as one pickled list of memo entries,
    # and pickle writes a recurring entry once, so a result is its distinct
    # entries plus a few bytes per mask.  A 4,096-mask range of rendered
    # --json lines pickled to about 10 MB.
    results = []
    real = cli._listed

    def recording(fn, task):
        result = real(fn, task)
        results.append((result, task[3]))
        return result

    monkeypatch.setattr(cli, "_listed", recording)
    use_pool(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    rc, out = sweep_stdout(capsys, 6, "--jobs", "2", *extra)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert [len(result) for result, _ in results] == [cli.SWEEP_RANGE] * 8
    for result, memo in results:
        assert len(pickle.dumps(result)) < len(pickle.dumps(memo)) + 16 * len(result)
        assert {id(e) for e in result} <= {id(e) for e in memo.values()}


def test_graph6_batch_jobs_clamped_to_chunks(tmp_path, capsys, monkeypatch):
    src = tmp_path / "three.g6"
    src.write_text("Bw\nA_\nCh\n")
    use_pool(monkeypatch)
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
    use_pool(monkeypatch)
    assert main(["verify", str(src), "--jobs", str(jobs), "--p-max", "3", "--m-max", "2"]) == 0
    assert "summary: graphs=1000 " in capsys.readouterr().out
    assert lines_read == 1000
    # Each worker holds one 128-line chunk, and one more is being read.
    assert read_at_first_verify[0] <= (jobs + 1) * 128


def kill_worker(task):
    """A pool task that ends its worker process at once, as the OOM killer would."""
    os._exit(9)


# Runs the CLI on argv[2:] with the task function named argv[1] replaced by
# kill_worker, which spawned workers import from this module.
KILLING_CLI = (
    "import sys, starzagreb.cli as cli, tests.test_sweep as t; "
    "cli.os.cpu_count = lambda: 2; setattr(cli, sys.argv[1], t.kill_worker); "
    "sys.exit(cli.main(sys.argv[2:]))"
)


@pytest.mark.parametrize("task", ["_verify_mask_range", "_verify_chunk"], ids=["exhaustive", "graph6"])
def test_worker_death_exits_2_without_waiting(tmp_path, task):
    # A worker that dies ends the run with an error line and exit 2 at once,
    # where the multiprocessing pool waited for its result forever.
    batch = tmp_path / "k2.g6"
    batch.write_text("A_\n" * 300)
    argv = ["--exhaustive", "--n", "5"] if task == "_verify_mask_range" else [str(batch)]
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", KILLING_CLI, task, "verify", *argv, "--jobs", "2"],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: the worker pool failed: A process in the process pool")
    assert done.stderr.endswith("; --jobs 1 runs without a pool\n")


class UnstartablePool(RecordingPool):
    """A pool whose first submit cannot start the pool's thread."""

    def submit(self, fn, *args):
        raise RuntimeError("can't start new thread")


class ThreadDeathPool(RecordingPool):
    """A pool whose own thread dies on its first task, leaving the task
    pending, as ProcessPoolExecutor's did before Python 3.12 when it could
    not start its queue feeder thread."""

    def submit(self, fn, *args):
        thread = threading.Thread(target=self.fail)
        thread.start()
        thread.join(10)
        assert not thread.is_alive()
        return Future()

    def fail(self):
        raise RuntimeError("can't start new thread")


class BreakingPool(RecordingPool):
    """A pool that runs its first three tasks and then loses a worker."""

    def submit(self, fn, *args):
        if len(self.done) < 3:
            self.done.append(None)
            return super().submit(fn, *args)
        future = Future()
        future.set_exception(BrokenProcessPool("a worker died"))
        return future


@pytest.mark.parametrize(
    "pool, fault, rc, message",
    [
        (UnstartablePool, False, 2, "can't start new thread"),
        (ThreadDeathPool, False, 2, "a pool thread died: can't start new thread"),
        (BreakingPool, False, 2, "a worker died"),
        # A failure printed before the pool broke keeps its exit code.
        (BreakingPool, True, 1, "a worker died"),
    ],
    ids=["start", "thread", "broken", "broken-after-failure"],
)
def test_pool_failure_exits_with_an_error_line(capsys, monkeypatch, pool, fault, rc, message):
    # No summary follows: the tallies would cover only the masks printed.
    pool.done = []
    use_pool(monkeypatch, pool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    if fault:
        _, a, _, scale = oracle._key_layout(6)
        fault_mask_keys(monkeypatch, lambda m, key: key + (scale << a) if m == 11 else key)
    hook = threading.excepthook
    assert main(["verify", "--exhaustive", "--n", "6", "--jobs", "2", "--p-max", "1"]) == rc
    out, err = capsys.readouterr()
    assert err == f"error: the worker pool failed: {message}; --jobs 1 runs without a pool\n"
    assert "summary" not in out
    assert ("FAIL n=6:mask=11 " in out) == fault
    assert threading.excepthook is hook


def test_memo_cap_bounds_misses_without_changing_output(capsys, monkeypatch):
    # Under a graph-dependent fault, the 194 keys the fault adds at n = 6
    # fill the memo only up to the cap; the masks past it are evaluated
    # one by one, and print the same bytes.
    add_edge_sum_fault(monkeypatch)
    argv = ("--p-max", "1", "--m-max", "0")
    rc, full = sweep_stdout(capsys, 6, *argv)
    memos = []
    real = cli._profile_memo

    def recording(*args):
        memos.append(real(*args))
        return memos[-1]

    monkeypatch.setattr(cli, "_profile_memo", recording)
    monkeypatch.setattr(oracle, "SWEEP_MEMO_CAP", 110)
    assert sweep_stdout(capsys, 6, *argv) == (rc, full) == (1, full)
    assert len(memos) == 1
    assert len(memos[0]) == 110
