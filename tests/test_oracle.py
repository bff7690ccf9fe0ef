"""Brute-force counters, exhaustive enumeration, and the identity verifier."""

from __future__ import annotations

import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given

import starzagreb.combinatorics as combinatorics_module
import starzagreb.oracle as oracle
import starzagreb.star as star_module
import starzagreb.zagreb as zagreb_module
from starzagreb.combinatorics import falling_factorial_coeffs
from starzagreb.graph import Graph, to_graph6
from starzagreb.star import star_sequence
from starzagreb.oracle import (
    MAX_BRUTEFORCE_N,
    MAX_ENUM_N,
    MAX_VERIFY_EXPONENT,
    all_labeled_graphs,
    count_stars_bruteforce,
    labeled_graph_from_mask,
    series_expand_rational,
    star_counts_bruteforce,
    verify_all_identities,
)
from starzagreb.zagreb import genfunc_numerator, zagreb_direct
from tests.named import complete, cycle, edgeless, k2_plus_isolated, path, star
from tests.strategies import graphs


def stars_by_subsets(g: Graph, k: int) -> int:
    """Reference count of K_{1,k} subgraphs: every (k+1)-subset of vertices,
    each member tried as the center.  For k = 1 the two center choices of
    an edge describe the same subgraph, so the ordered count is halved."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    ordered = 0
    for subset in combinations(range(g.n), k + 1):
        mask = 0
        for w in subset:
            mask |= 1 << w
        for c in subset:
            leaves = mask ^ (1 << c)
            if adj[c] & leaves == leaves:
                ordered += 1
    return ordered // 2 if k == 1 else ordered


def reference_counts(g: Graph) -> tuple[int, ...]:
    return tuple(stars_by_subsets(g, k) for k in range(1, g.n))


def test_count_stars_bruteforce_frozen():
    claw = star(3)
    assert count_stars_bruteforce(claw, 1) == 3
    assert count_stars_bruteforce(claw, 2) == 3
    assert count_stars_bruteforce(claw, 3) == 1
    p4 = path(4)
    assert count_stars_bruteforce(p4, 1) == 3
    assert count_stars_bruteforce(p4, 2) == 2
    assert count_stars_bruteforce(p4, 3) == 0
    assert count_stars_bruteforce(cycle(4), 2) == 4
    k4 = complete(4)
    assert count_stars_bruteforce(k4, 2) == 12
    assert count_stars_bruteforce(k4, 3) == 4


def test_count_stars_bruteforce_range():
    g = path(4)
    with pytest.raises(ValueError):
        count_stars_bruteforce(g, 0)
    with pytest.raises(ValueError):
        count_stars_bruteforce(g, 4)


def test_bruteforce_matches_degree_formula_exhaustively():
    for n in range(2, 6):
        for g in all_labeled_graphs(n):
            s = star_sequence(g)
            for k in range(1, n):
                assert count_stars_bruteforce(g, k) == s.entry(k), (g, k)


def test_star_counts_equal_subset_reference_exhaustively():
    for n in range(1, 7):
        for g in all_labeled_graphs(n):
            assert star_counts_bruteforce(g) == reference_counts(g), g


@given(graphs(max_n=12))
def test_star_counts_equal_subset_reference(g):
    counts = star_counts_bruteforce(g)
    assert counts == reference_counts(g)
    for k in range(1, g.n):
        assert count_stars_bruteforce(g, k) == counts[k - 1]


def test_star_counts_read_only_the_edges(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the brute force read the degree formula or tally")

    monkeypatch.setattr(combinatorics_module, "binomial", refuse)
    monkeypatch.setattr(star_module, "binomial", refuse)
    # frequency_sequence() and every other degree-profile read go through these two caches.
    monkeypatch.setattr(Graph, "vertex_degrees", property(refuse))
    monkeypatch.setattr(Graph, "frequency", property(refuse))
    assert star_counts_bruteforce(star(3)) == (3, 3, 1)
    assert star_counts_bruteforce(complete(5)) == (10, 30, 20, 5)
    assert star_counts_bruteforce(edgeless(1)) == ()


def test_all_labeled_graphs_counts():
    assert sum(1 for _ in all_labeled_graphs(1)) == 1
    assert sum(1 for _ in all_labeled_graphs(2)) == 2
    assert sum(1 for _ in all_labeled_graphs(3)) == 8
    graphs4 = list(all_labeled_graphs(4))
    assert len(graphs4) == 64
    assert len(set(graphs4)) == 64


def test_all_labeled_graphs_bounds():
    with pytest.raises(ValueError):
        list(all_labeled_graphs(0))
    with pytest.raises(ValueError):
        list(all_labeled_graphs(MAX_ENUM_N + 1))


def test_labeled_graph_from_mask():
    assert labeled_graph_from_mask(3, 0b111) == complete(3)
    assert labeled_graph_from_mask(3, 0).m == 0
    # bit 0 is the pair (0,1)
    assert sorted(labeled_graph_from_mask(3, 1).edges) == [(0, 1)]
    with pytest.raises(ValueError):
        labeled_graph_from_mask(3, 8)
    with pytest.raises(ValueError):
        labeled_graph_from_mask(3, -1)
    # A mask one bit longer than the C(n, 2) pairs.
    with pytest.raises(ValueError):
        labeled_graph_from_mask(5, 1 << 10)
    # A one-edge mask lists only the pairs up to its top bit, not all C(n, 2).
    tracemalloc.start()
    try:
        g = labeled_graph_from_mask(2000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edges == {(0, 1)}
    assert peak < 1 << 20


def test_enumeration_matches_mask_lookup():
    for n in (1, 3, 4):
        listed = list(all_labeled_graphs(n))
        for mask, g in enumerate(listed):
            assert labeled_graph_from_mask(n, mask) == g


def test_series_expand_rational_frozen():
    assert series_expand_rational((2, -4, 0), 2, 6) == [2, 2, 2, 2, 2, 2]
    assert series_expand_rational((3, -12, 9, 0), 3, 6) == [3, 6, 12, 24, 48, 96]
    assert series_expand_rational((3, -16, 23, -6), 3, 5) == [3, 2, 2, 2, 2]
    assert series_expand_rational((1, -1), 1, 4) == [1, 0, 0, 0]


def test_series_expand_rational_validation():
    with pytest.raises(ValueError):
        series_expand_rational((1,), 0, 3)
    with pytest.raises(ValueError):
        series_expand_rational((1,), 2, -1)
    assert series_expand_rational((1,), 2, 0) == []


def test_series_times_denominator_gives_numerator_back():
    # Convolving the expansion with the denominator must reproduce the
    # numerator exactly: that inverts the long division.
    for g in (path(4), complete(4), k2_plus_isolated(), star(4)):
        gf = genfunc_numerator(g)
        terms = g.n + 8
        series = series_expand_rational(gf.numerator, g.n, terms)
        c = falling_factorial_coeffs(g.n)
        for p in range(terms):
            conv = sum(c[i] * series[p - i] for i in range(0, min(p, g.n) + 1))
            expect = gf.numerator[p] if p <= g.n else 0
            assert conv == expect, (g, p)


def test_report_shape_and_pass_for_claw():
    report = verify_all_identities(star(3))
    assert report.passed
    assert report.failures() == []
    assert report.n == 4 and report.m == 3
    assert report.graph_id == to_graph6(star(3))
    assert [t.name for t in report.theorems] == [
        "inversion",
        "moments",
        "inverse_degree_sum",
        "zagreb_from_stars",
        "genfunc",
        "recurrence",
        "star_bruteforce",
    ]
    assert [e.note_id for e in report.errata] == [
        "moment_rhs_sign",
        "f1_term_sign",
        "recurrence_index_base",
    ]


def test_claw_triggers_all_three_errata():
    report = verify_all_identities(star(3))
    notes = {e.note_id: e for e in report.errata}
    moment = notes["moment_rhs_sign"]
    assert moment.triggered
    assert moment.witness == {
        "m": "1",
        "lhs": "3",
        "rhs_sign_k": "-3",
        "rhs_sign_k_minus_1": "3",
    }
    f1 = notes["f1_term_sign"]
    assert f1.triggered
    assert f1.witness == {"f1": "3", "sign_k_minus_1": "3", "sign_k": "9"}
    assert notes["recurrence_index_base"].triggered


def test_k2_triggers_moment_note_but_not_f1_note():
    # With no stars above S_1 the degree-one sum has a single term, so the
    # sign variants coincide there; the moment sum still flips through f_1.
    report = verify_all_identities(Graph.from_edges(2, [(0, 1)]))
    assert report.passed
    notes = {e.note_id: e for e in report.errata}
    assert notes["moment_rhs_sign"].triggered
    assert notes["moment_rhs_sign"].witness == {
        "m": "1",
        "lhs": "2",
        "rhs_sign_k": "-2",
        "rhs_sign_k_minus_1": "2",
    }
    assert not notes["f1_term_sign"].triggered
    assert notes["f1_term_sign"].witness is None
    assert notes["recurrence_index_base"].triggered


def test_edgeless_triggers_nothing():
    report = verify_all_identities(edgeless(4))
    assert report.passed
    assert all(not e.triggered for e in report.errata)
    assert all(e.witness is None for e in report.errata)


def test_single_vertex_report():
    report = verify_all_identities(edgeless(1))
    assert report.passed
    names = {t.name: t for t in report.theorems}
    assert names["star_bruteforce"].checks == ()
    assert names["recurrence"].passed


def test_default_check_count_for_k2():
    # inversion 3, moments 5, inverse_degree_sum 2, zagreb_from_stars 8,
    # genfunc 14 series + 2 endpoints, recurrence 9 residuals + 8 routes,
    # star_bruteforce 1
    report = verify_all_identities(Graph.from_edges(2, [(0, 1)]))
    assert report.check_count == 52


def test_report_parameters_and_custom_id():
    report = verify_all_identities(path(3), p_max=3, m_max=2, graph_id="custom")
    assert report.p_max == 3 and report.m_max == 2
    assert report.graph_id == "custom"
    names = {t.name: t for t in report.theorems}
    assert len(names["zagreb_from_stars"].checks) == 3
    assert [c.label for c in names["moments"].checks] == ["m=0", "m=1", "m=2"]


def test_report_validation():
    with pytest.raises(ValueError):
        verify_all_identities(path(3), p_max=0)
    with pytest.raises(ValueError):
        verify_all_identities(path(3), m_max=-1)


def test_exponents_bounded_past_every_accepted_graphs_need():
    # 2n exponents on n <= MAX_BRUTEFORCE_N vertices cover more than the
    # n - 1 that separate every degree, and the default 8.
    assert MAX_VERIFY_EXPONENT >= max(8, 2 * MAX_BRUTEFORCE_N)
    report = verify_all_identities(path(3), p_max=MAX_VERIFY_EXPONENT, m_max=MAX_VERIFY_EXPONENT)
    assert report.passed
    assert report.p_max == report.m_max == MAX_VERIFY_EXPONENT
    for kwargs in ({"p_max": MAX_VERIFY_EXPONENT + 1}, {"m_max": MAX_VERIFY_EXPONENT + 1}):
        with pytest.raises(ValueError, match=f"MAX_VERIFY_EXPONENT = {MAX_VERIFY_EXPONENT}"):
            verify_all_identities(path(3), **kwargs)
        with pytest.raises(ValueError, match="MAX_VERIFY_EXPONENT"):
            next(oracle.sweep_reports(3, **kwargs))


def test_reports_are_deterministic():
    g = k2_plus_isolated()
    assert verify_all_identities(g) == verify_all_identities(g)


def test_every_small_graph_passes():
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            report = verify_all_identities(g, p_max=4, m_max=3)
            assert report.passed, (g, report.failures())


def test_residual_semantics():
    # The p = n residual check compares against the numerator's top
    # coefficient, so isolated vertices do not fail the report.
    report = verify_all_identities(k2_plus_isolated())
    assert report.passed
    assert zagreb_direct(k2_plus_isolated(), 0) == 3


def test_verify_refuses_graphs_past_the_bruteforce_limit(monkeypatch):
    def never(g):
        raise AssertionError("brute force started on a refused graph")

    monkeypatch.setattr(oracle, "star_counts_bruteforce", never)
    n = MAX_BRUTEFORCE_N + 1
    with pytest.raises(ValueError, match=f"n = {n} .* limit of {MAX_BRUTEFORCE_N} "):
        verify_all_identities(path(n))


def test_a_route_that_raises_fails_each_theorem_that_reads_it(monkeypatch):
    def refusing(g):
        raise ValueError("no stars today")

    monkeypatch.setattr(oracle, "star_sequence", refusing)
    report = verify_all_identities(star(3))
    raised = "raised ValueError: no stars today"
    failed = {name for name, check in report.failures() if check.label == raised}
    assert failed == {
        "inversion", "moments", "inverse_degree_sum", "zagreb_from_stars", "star_bruteforce"
    }
    assert all(check.residual == 1 for _, check in report.failures())
    assert {t.name for t in report.theorems if t.passed} == {"genfunc", "recurrence"}
    # The erratum notes read the star sequence too, so they are left out.
    assert report.errata == ()


def test_a_faulty_stirling_row_fails_only_the_recurrence(monkeypatch):
    # genfunc_numerator reads no Stirling row, so the residual at p = n sets
    # the Stirling form against the numerator formed from the degrees.
    real = zagreb_module.recurrence_coeffs

    def off_by_one(n):
        c1, *rest = real(n)
        return [c1 + 1, *rest]

    monkeypatch.setattr(zagreb_module, "recurrence_coeffs", off_by_one)
    report = verify_all_identities(star(3))
    assert {name for name, _ in report.failures()} == {"recurrence"}
    assert "residual_p=4" in {check.label for _, check in report.failures()}


def test_a_fault_in_an_erratum_note_itself_propagates(monkeypatch):
    def broken(s, f):
        raise ZeroDivisionError("note bug")

    monkeypatch.setattr(oracle, "_f1_sign_note", broken)
    with pytest.raises(ZeroDivisionError):
        verify_all_identities(star(3))
