"""The exhaustive sweep: per-profile results shared across graphs, every
per-graph check still run on every graph, and output bytes unchanged."""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
from collections import Counter, deque
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations, starmap
from pathlib import Path

import pytest

import starzagreb.cli as cli
import starzagreb.oracle as oracle
from starzagreb.cli import main, render_report_line, report_to_dict
from starzagreb.graph import FrequencySequence, Graph, frequency_sequence, parse_graph6, to_graph6
from starzagreb.oracle import (
    TheoremReport,
    labeled_graph_from_mask,
    star_counts_bruteforce,
    sweep_reports,
    verify_all_identities,
)
from starzagreb.star import StarSequence, frequency_from_star, inverse_degree_edge_sum
from tests.named import path
from tests.test_fastpaths import profile_graphs

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


def record_profile_parts(monkeypatch) -> list[tuple]:
    """The inputs of each _profile_part call from now on: the graph's sorted
    degrees, its edge sum and its star counts."""
    calls = []
    real = oracle._profile_part

    def counting(g, edge_sum, counts, *args):
        calls.append((tuple(sorted(g.vertex_degrees)), edge_sum(), counts()))
        return real(g, edge_sum, counts, *args)

    monkeypatch.setattr(oracle, "_profile_part", counting)
    return calls


def test_sweep_runs_profile_part_once_per_profile(monkeypatch):
    # Every graph of a profile has the same sweep key, so a passing sweep
    # evaluates each degree profile once, on its first mask.
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


# The graphical degree sequences on n = 1..7 vertices (OEIS A004251).
PROFILES = {1: 1, 2: 2, 3: 4, 4: 11, 5: 31, 6: 102, 7: 342}


def test_profile_memo_holds_exactly_the_keys_the_masks_produce():
    # A full sweep leaves one entry per degree profile, keyed on the sweep
    # key every labeled graph of that profile has, so a correct library
    # misses once per profile.  The decoded profiles are exactly the
    # degree sequences Havel-Hakimi realizes.
    for n, profiles in PROFILES.items():
        memo: dict = {}
        deque(oracle._sweep_masks(n, memo, 1, 0), 0)
        assert len(memo) == profiles
        realized = {tuple(sorted(g.vertex_degrees)) for g in profile_graphs(n)}
        assert {sweep_values(n, key)[0] for key in memo} == realized
        if n <= 5:
            assert set(memo) == set(oracle._mask_keys(n))
            graphs = {public_values(g) for g in oracle.all_labeled_graphs(n)}
            assert {sweep_values(n, key) for key in memo} == graphs
    assert sorted(oracle._realize(4, (3, 2, 2, 1)).vertex_degrees) == [1, 2, 2, 3]
    assert oracle._realize(4, (3, 3, 1, 1)) is None
    assert oracle._realize(3, (1, 1, 1)) is None


def test_sweep_validation():
    # A sweep covers every mask: it takes no mask range.
    with pytest.raises(TypeError):
        sweep_reports(4, 10, 20)
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
    # mask, at every mask for n <= 6, and all masks of one profile share
    # one key.
    for n in range(1, 7):
        keys = list(oracle._mask_keys(n))
        assert len(keys) == 1 << n * (n - 1) // 2
        for mask, key in enumerate(keys):
            assert sweep_values(n, key) == public_values(labeled_graph_from_mask(n, mask)), (n, mask)
        assert len(set(keys)) == PROFILES[n]


def n7_sample_masks() -> set[int]:
    """The n = 7 masks checked one by one: the first and the last blocks'
    edges, the masks astride the middle, the insides of two blocks (a block
    is the 64 masks that differ only in vertex 0's neighbours), and 1,000
    masks drawn from a seeded generator."""
    top = 1 << 21
    masks = {
        *range(32),
        *range(top - 24, top),
        *range((1 << 20) - 1, (1 << 20) + 2),
        *range((5 << 6) + 40, (5 << 6) + 72),
        *range((9 << 6) + 3, (9 << 6) + 8),
    }
    rng = random.Random(2024)
    masks.update(rng.randrange(top) for _ in range(1000))
    return masks


def test_sweep_at_n7_equals_per_graph_verification():
    # One pass of every n = 7 key and one of every sweep entry, each
    # checked at the sample masks against the public checks on that mask's
    # own Graph.
    sample = n7_sample_masks()
    assert len(sample) > 1000
    seen = 0
    for mask, (key, entry) in enumerate(
        zip(oracle._mask_keys(7), oracle._sweep_masks(7, {}, 8, 4), strict=True)
    ):
        if mask in sample:
            seen += 1
            g = labeled_graph_from_mask(7, mask)
            assert sweep_values(7, key) == public_values(g), mask
            report = TheoremReport(f"n=7:mask={mask}", 7, mask.bit_count(), 8, 4, *entry)
            assert report == verify_all_identities(g, graph_id=f"n=7:mask={mask}"), mask
    assert seen == len(sample)


def test_passing_sweep_builds_no_graph(monkeypatch):
    # A sweep builds one Graph per degree profile at n = 5, on its first
    # mask; every other key hits the memo.  A second sweep over the filled
    # memo builds none.
    memo: dict = {}
    built = []
    real = Graph.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Graph, "__post_init__", counting)
    entries = list(oracle._sweep_masks(5, memo, 8, 4))
    assert len(entries) == 1024
    assert all(r.passed for theorems, _ in entries for r in theorems)
    assert len(built) == len(memo) == 31
    assert len({tuple(sorted(g.vertex_degrees)) for g in built}) == 31
    built.clear()
    assert list(oracle._sweep_masks(5, memo, 8, 4)) == entries
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
    # A sweep's table holds every possible neighbour mask's histogram,
    # field k being the number of k-element subsets.
    calls = record_histograms(monkeypatch)
    for n in range(1, oracle.MAX_ENUM_N + 1):
        calls.clear()
        next(oracle._mask_keys(n))
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
    # A sweep covers the one range of every mask and builds its table once
    # per call, whatever its misses: two sweeps walk each neighbour mask
    # twice, once each.
    calls = record_histograms(monkeypatch)
    memo: dict = {}
    assert sum(1 for _ in oracle._sweep_masks(5, memo, 8, 4)) == 1 << 10
    assert len(memo) == PROFILES[5]
    assert Counter(mask for mask, _, _ in calls) == Counter(range(1 << 5))
    calls.clear()
    deque(oracle._sweep_masks(5, {}, 8, 4), 0)
    deque(oracle._sweep_masks(5, memo, 8, 4), 0)
    assert Counter(mask for mask, _, _ in calls) == Counter(2 * list(range(1 << 5)))


def test_profile_memo_builds_one_table(monkeypatch):
    # The memo a sweep fills at n = 7 holds the 342 profiles, and the sweep
    # walks each of the 2^7 neighbour masks once: no per-vertex walk per
    # profile, and no table rebuilt per block or per evaluation.
    calls = record_histograms(monkeypatch)
    memo: dict = {}
    assert sum(1 for _ in oracle._sweep_masks(7, memo, 1, 0)) == 1 << 21
    assert len(memo) == PROFILES[7] == 342
    assert Counter(mask for mask, _, _ in calls) == Counter(range(1 << 7))


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
    # Two cores even on a one-core machine, so --jobs 2 is not clamped to 1.
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


def fault_on_claws(monkeypatch, name: str, bump) -> None:
    """Make oracle's route name return bump of its result on the claws."""
    real = getattr(oracle, name)

    def faulty(*args):
        result = real(*args)
        return bump(result) if is_claw(args[0]) else result

    monkeypatch.setattr(oracle, name, faulty)


@pytest.mark.parametrize(
    "name, bump, theorems", PROFILE_ROUTE_FAULTS, ids=[c[0] for c in PROFILE_ROUTE_FAULTS]
)
def test_each_profile_route_fault_fails_its_theorems_on_that_profile(
    capsys, monkeypatch, name, bump, theorems
):
    fault_on_claws(monkeypatch, name, bump)
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


# One graph6 line for each of the 11 graphs on 4 vertices, up to
# isomorphism; the claw K_{1,3} is the only one with CLAW_PROFILE.
CORPUS_4 = ["C?", "C_", "Co", "Cs", "Cw", "CK", "Ck", "C{", "C]", "C}", "C~"]


def refuse(result):
    raise ValueError("refused on the claw")


# The two per-graph routes verify_all_identities calls, each made to raise
# on the claws: each must fail its own theorem and no other.
PER_GRAPH_ROUTE_RAISES = [
    ("inverse_degree_edge_sum", refuse, {"inverse_degree_sum"}),
    ("star_counts_bruteforce", refuse, {"star_bruteforce"}),
]


def test_corpus_4_holds_each_graph_on_4_vertices_once():
    def canonical(g):
        return min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges))
            for p in permutations(range(4))
        )

    graphs = [parse_graph6(line) for line in CORPUS_4]
    assert {canonical(g) for g in graphs} == {canonical(g) for g in oracle.all_labeled_graphs(4)}
    assert len(graphs) == 11
    assert [is_claw(g) for g in graphs].count(True) == 1


@pytest.mark.parametrize(
    "name, bump, theorems",
    PROFILE_ROUTE_FAULTS + PER_GRAPH_ROUTE_RAISES,
    ids=[c[0] for c in PROFILE_ROUTE_FAULTS + PER_GRAPH_ROUTE_RAISES],
)
def test_each_route_fault_fails_its_theorems_in_per_graph_verify(
    tmp_path, capsys, monkeypatch, name, bump, theorems
):
    # The same faults as the sweep's, through verify on a graph6 corpus:
    # exactly the claw's line fails, in the same theorems.
    fault_on_claws(monkeypatch, name, bump)
    src = tmp_path / "corpus4.g6"
    src.write_text("\n".join(CORPUS_4) + "\n")
    rc = main(["verify", str(src), "--json"])
    captured = capsys.readouterr()
    records = json_lines(captured.out)
    assert rc == 1
    assert captured.err == ""
    assert len(records) == 12
    failed = [r for r in records[:-1] if not r["passed"]]
    assert [r["identifier"] for r in failed] == [f"{src}:{CORPUS_4.index('Cs') + 1}"]
    bad = {t for t, result in failed[0]["theorems"].items() if result["status"] == "fail"}
    assert bad == theorems
    assert records[-1]["failures"] == 1


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
    monkeypatch.setattr(oracle, "_mask_keys", lambda n: starmap(fault, enumerate(real(n))))


# Masks 11 and 56 are the first and the last of the four labeled graphs
# forming a triangle plus an isolated vertex at n = 4.  Mask 11 is that
# profile's first mask, so its fault goes into the evaluation that fills
# the memo; a fault on mask 56 comes after the profile's passing results
# are already memoised.  The mask-11 cases keep the ids they had before
# mask 56 was added.
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


def add_edge_sum_fault(monkeypatch, n: int) -> None:
    """Make the edge sum add (sum of u*v over the edges mod 3), a fault
    that depends on the graph, not only on its profile, in each mask's
    sweep key on n vertices."""
    pairs = list(combinations(range(n), 2))
    _, a, _, scale = oracle._key_layout(n)

    def fault(mask, key):
        return key + (sum(u * v for i, (u, v) in enumerate(pairs) if mask >> i & 1) % 3 * scale << a)

    fault_mask_keys(monkeypatch, fault)


def test_graph_dependent_fault_prints_each_graphs_own_residual(capsys, monkeypatch):
    # The edge-sum fault makes many graphs miss the memo, each evaluated
    # and rendered on its own key, so each must print its own residual,
    # not its profile's or that of another graph that missed earlier.
    add_edge_sum_fault(monkeypatch, 6)
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
    # A miss fills the one memo, so no _profile_part input is evaluated
    # twice: 102 profiles and 194 keys the edge-sum fault adds.
    add_edge_sum_fault(monkeypatch, 6)
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


def graph6_batch(tmp_path, lines: int) -> Path:
    """A graph6 file of the labeled graphs on 5 vertices with masks 0 ..
    lines - 1: verify reads it in chunks of 128 lines, one pool task each."""
    src = tmp_path / f"batch{lines}.g6"
    src.write_text("".join(to_graph6(labeled_graph_from_mask(5, m)) + "\n" for m in range(lines)))
    return src


def test_cli_import_leaves_multiprocessing_unloaded():
    # Only the worker pool needs multiprocessing, so the CLI loads it there;
    # the pool tests below patch concurrent.futures for that reason.  An
    # exhaustive sweep starts no pool, so it loads none even at --jobs 2 on
    # two cores.  The probe also lists the top-level modules the import adds
    # from outside the standard library: the package has no runtime
    # dependency.  Modules the interpreter preloads at start-up are taken
    # out first.
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        "import sys; before = set(sys.modules); import starzagreb, starzagreb.cli; "
        "print('multiprocessing' in sys.modules); "
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}; "
        "print(sorted(added - set(sys.stdlib_module_names) - {'starzagreb'})); "
        "starzagreb.cli.os.cpu_count = lambda: 2; "
        "rc = starzagreb.cli.main(['verify', '--exhaustive', '--n', '4', '--jobs', '2']); "
        "print(rc, 'multiprocessing' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    lines = done.stdout.splitlines()
    assert lines[:2] == ["False", "[]"]
    assert lines[-2].startswith("summary: graphs=64 ")
    assert lines[-1] == "0 False"


@pytest.mark.parametrize(
    "cpus, argv, expected",
    [
        # argv[1] is the number of lines in a graph6 batch, 128 to a chunk.
        # 640 lines in 5 chunks: the pool is capped by the core count.
        (4, ["verify", 640, "--jobs", "1000000000"], [4]),
        # 200 lines in 2 chunks: capped by the number of chunks.
        (4, ["verify", 200, "--jobs", "3"], [2]),
        # An unknown core count means one worker, so no pool at all.
        (None, ["verify", 640, "--jobs", "8"], []),
    ],
)
def test_jobs_clamped_to_cores_and_tasks(tmp_path, capsys, monkeypatch, cpus, argv, expected):
    command, lines, *jobs = argv
    argv = [command, str(graph6_batch(tmp_path, lines)), "--p-max", "1", "--m-max", "0"]
    rc, baseline = main(argv), capsys.readouterr().out
    use_pool(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert main(argv + jobs) == rc == 0
    assert capsys.readouterr().out == baseline
    assert RecordingPool.sizes == expected


def test_exhaustive_sweep_starts_no_pool(capsys, monkeypatch):
    # A sweep runs in process at any --jobs: workers could take over only
    # its keys and memo lookups, never the formatting of each mask's line.
    use_pool(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    rc, out = sweep_stdout(capsys, 4, "--jobs", "8")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SWEEP_SHA256[4][0]
    assert RecordingPool.sizes == []


def test_exhaustive_jobs_2_runs_profile_part_once_per_profile(capsys, monkeypatch):
    # Each profile is memoised on its first mask, and --jobs 2 starts no
    # pool, so the sweep at n = 5 evaluates none of the 31 degree profiles
    # again.
    use_pool(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    calls = record_profile_parts(monkeypatch)
    rc, out = sweep_stdout(capsys, 5, "--jobs", "2")
    assert rc == 0
    assert "summary: graphs=1024 " in out
    assert len(calls) == len(set(calls)) == len({c[0] for c in calls}) == 31
    assert RecordingPool.sizes == []


@pytest.mark.parametrize("extra", [(), ("--json",)], ids=["text", "json"])
def test_sweep_renders_each_entry_once_per_sweep(capsys, monkeypatch, extra):
    # The memo is finished, rendered text or JSON, where it is filled, so a
    # sweep renders each of the 31 degree profiles at n = 5 (OEIS A004251)
    # once, at either --jobs; per graph only the identifier, n and m are
    # formatted.
    name = "report_to_dict" if extra else "_report_verdict"
    calls = []
    real = getattr(cli, name)

    def counting(report):
        calls.append(report)
        return real(report)

    monkeypatch.setattr(cli, name, counting)
    use_pool(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    for jobs in ("1", "2"):
        calls.clear()
        rc, out = sweep_stdout(capsys, 5, "--jobs", jobs, *extra)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SWEEP_SHA256[5][bool(extra)]
        assert RecordingPool.sizes == []
        assert len(calls) == len({id(r.theorems) for r in calls}) == 31, jobs


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


@pytest.mark.parametrize("task", ["_verify_chunk"], ids=["graph6"])
def test_worker_death_exits_2_without_waiting(tmp_path, task):
    # A worker that dies ends the run with an error line and exit 2 at once,
    # where the multiprocessing pool waited for its result forever.
    batch = tmp_path / "k2.g6"
    batch.write_text("A_\n" * 300)
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", KILLING_CLI, task, "verify", str(batch), "--jobs", "2"],
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
def test_pool_failure_exits_with_an_error_line(
    tmp_path, capsys, monkeypatch, pool, fault, rc, message
):
    # No summary follows: the tallies would cover only the chunks printed.
    # The batch's 5 chunks outlast BreakingPool's first three tasks.
    src = graph6_batch(tmp_path, 640)
    pool.done = []
    use_pool(monkeypatch, pool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    if fault:
        # Line 12 of the first chunk is mask 11; its edge sum is off by one.
        real, target = oracle.inverse_degree_edge_sum, labeled_graph_from_mask(5, 11)
        monkeypatch.setattr(oracle, "inverse_degree_edge_sum", lambda g: real(g) + (g == target))
    hook = threading.excepthook
    assert main(["verify", str(src), "--jobs", "2", "--p-max", "1", "--m-max", "0"]) == rc
    out, err = capsys.readouterr()
    assert err == f"error: the worker pool failed: {message}; --jobs 1 runs without a pool\n"
    assert "summary" not in out
    assert (f"FAIL {src}:12 " in out) == fault
    assert out.count("FAIL") == 2 * fault
    assert threading.excepthook is hook


def test_memo_cap_bounds_misses_without_changing_output(capsys, monkeypatch):
    # Under a graph-dependent fault, the 87 keys of n = 5 (31 profiles)
    # fill the memo only up to the cap; the masks past it are evaluated
    # one by one, and print the same bytes.
    add_edge_sum_fault(monkeypatch, 5)
    argv = ("--p-max", "1", "--m-max", "0")
    rc, full = sweep_stdout(capsys, 5, *argv)
    memos = []
    real = cli._sweep_masks

    def recording(n, memo, *args):
        memos.append(memo)
        return real(n, memo, *args)

    monkeypatch.setattr(cli, "_sweep_masks", recording)
    monkeypatch.setattr(oracle, "SWEEP_MEMO_CAP", 50)
    assert sweep_stdout(capsys, 5, *argv) == (rc, full) == (1, full)
    assert len(memos) == 1
    assert len(memos[0]) == 50
