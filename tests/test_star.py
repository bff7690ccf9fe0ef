"""Star sequences, frequency inversion, moments, and classification."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given

import starzagreb.star as star_module
from starzagreb.combinatorics import binomial
from starzagreb.graph import FrequencySequence, Graph, frequency_sequence
from starzagreb.star import (
    InconsistentSequenceError,
    StarSequence,
    alternating_moment,
    classify,
    frequency_from_star,
    inverse_degree_edge_sum,
    isolated_count_from_star,
    moment_identity_rhs,
    star_from_frequency,
    star_sequence,
)
from starzagreb.oracle import all_labeled_graphs
from tests.named import complete, cycle, edgeless, k2_plus_isolated, matching, path, star
from tests.strategies import graphs


def test_star_sequence_claw():
    s = star_sequence(star(3))
    assert s.n == 4
    assert s.s1 == 3
    assert s.entry(2) == 3
    assert s.entry(3) == 1
    assert s.as_tuple() == (6, 3, 1)


def test_star_sequence_triangle():
    s = star_sequence(complete(3))
    assert s.as_tuple() == (6, 3)
    assert s.entry(5) == 0


def test_star_sequence_single_vertex():
    s = star_sequence(edgeless(1))
    assert s.as_tuple() == ()
    assert s.s1 == 0


def test_entry_rejects_nonpositive_index():
    s = star_sequence(path(3))
    with pytest.raises(ValueError):
        s.entry(0)


def test_star_sequence_entries_count_stars_in_path():
    # P_4: degrees 1,2,2,1 so S_1 = 3, S_2 = 2, S_3 = 0
    s = star_sequence(path(4))
    assert s.as_tuple() == (6, 2, 0)


def test_star_from_frequency_matches_graph_route():
    for g in (path(5), cycle(6), complete(4), star(4), k2_plus_isolated()):
        via_graph = star_sequence(g)
        via_freq = star_from_frequency(frequency_sequence(g))
        assert via_graph == via_freq


def test_star_from_frequency_rejects_odd_degree_sum():
    with pytest.raises(InconsistentSequenceError):
        star_from_frequency(FrequencySequence((2, 1, 0)))


def test_frequency_from_star_rejects_impossible_sequence():
    # S_2 = 1 with S_1 = 0 forces a negative frequency count.
    with pytest.raises(InconsistentSequenceError):
        frequency_from_star(StarSequence(4, 0, (1, 0)))


def test_inversion_round_trip_exhaustive_small():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            f = frequency_sequence(g)
            s = star_sequence(g)
            assert frequency_from_star(s) == f, g
            assert star_from_frequency(f) == s, g


def test_alternating_moment_claw():
    # K_{1,3}: 2S_1 = 6, S_2 = 3, S_3 = 1, so the alternating sum at
    # exponent m is 6 - 2^m * 3 + 3^m.
    s = star_sequence(star(3))
    assert alternating_moment(s, 0) == 4  # non-isolated vertices
    assert alternating_moment(s, 1) == 3
    assert alternating_moment(s, 2) == 3
    assert alternating_moment(s, 3) == 9
    with pytest.raises(ValueError, match="moment exponent must be non-negative"):
        alternating_moment(s, -1)


def test_moment_identity_rhs_frozen_values():
    # Claw frequencies f = (0, 3, 0, 1):
    #   m=1: f_1 = 3
    #   m=2: f_1 - 2 f_2 = 3
    #   m=3: f_1 - 6 f_2 + 6 f_3 = 9
    f = frequency_sequence(star(3))
    assert moment_identity_rhs(f, 1) == 3
    assert moment_identity_rhs(f, 2) == 3
    assert moment_identity_rhs(f, 3) == 9
    # C_5: f = (0, 0, 5), m=2: f_1 - 2 f_2 = -10
    assert moment_identity_rhs(frequency_sequence(cycle(5)), 2) == -10


def test_moment_identity_rhs_rejects_m_zero():
    with pytest.raises(ValueError):
        moment_identity_rhs(frequency_sequence(path(3)), 0)


def test_alternating_moment_equals_rhs_for_all_small_graphs():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            s = star_sequence(g)
            f = frequency_sequence(g)
            for m in range(1, 5):
                assert alternating_moment(s, m) == moment_identity_rhs(f, m)


def test_isolated_count_from_star():
    assert isolated_count_from_star(star_sequence(k2_plus_isolated())) == 1
    assert isolated_count_from_star(star_sequence(edgeless(5))) == 5
    assert isolated_count_from_star(star_sequence(cycle(4))) == 0
    # S_1 = 2 on two vertices gives an m = 0 moment of 4, so f_0 = 2 - 4.
    with pytest.raises(InconsistentSequenceError, match="force f_0 = -2"):
        isolated_count_from_star(StarSequence(2, 2, ()))


def test_inverse_degree_edge_sum_values():
    # C_n: every edge contributes 1/2 + 1/2
    assert inverse_degree_edge_sum(cycle(6)) == Fraction(6)
    # K_{1,3}: three edges each 1/3 + 1 = 4/3
    assert inverse_degree_edge_sum(star(3)) == Fraction(4)
    assert inverse_degree_edge_sum(edgeless(3)) == Fraction(0)
    # P_3: two edges each 1 + 1/2
    assert inverse_degree_edge_sum(path(3)) == Fraction(3)


def test_inverse_degree_edge_sum_equals_nonisolated_count():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            f = frequency_sequence(g)
            assert inverse_degree_edge_sum(g) == Fraction(g.n - f.isolated)


@given(graphs(max_n=12))
def test_inverse_degree_edge_sum_matches_per_edge_fractions(g):
    degs = g.vertex_degrees
    expected = sum(
        (Fraction(1, degs[u]) + Fraction(1, degs[v]) for u, v in g.edges), Fraction(0)
    )
    assert inverse_degree_edge_sum(g) == expected


@given(graphs(max_n=10))
def test_top_is_the_maximum_degree(g):
    assert star_sequence(g).top == max(g.vertex_degrees)


@pytest.fixture
def binomial_calls(monkeypatch) -> list[tuple[int, int]]:
    """Every (n, k) the star module passes to binomial, in call order."""
    calls = []

    def counting_binomial(n, k):
        calls.append((n, k))
        return binomial(n, k)

    monkeypatch.setattr(star_module, "binomial", counting_binomial)
    return calls


def test_frequency_from_star_stops_at_the_top_star(binomial_calls):
    g = path(1000)
    s = star_sequence(g)
    binomial_calls.clear()
    assert frequency_from_star(s) == frequency_sequence(g)
    # Only S_1 and S_2 are nonzero on a path, so only C(2, 2) is needed.
    assert len(binomial_calls) <= 3


def test_star_sequences_stop_at_the_maximum_degree(binomial_calls):
    g = path(1000)
    s = star_sequence(g)
    assert s.entry(2) == 998 and s.top == 2
    assert len(binomial_calls) <= 2 * g.n
    binomial_calls.clear()
    assert star_from_frequency(frequency_sequence(g)) == s
    assert len(binomial_calls) <= 2 * g.n


def test_star_sequence_walks_each_vertex_row(binomial_calls, monkeypatch):
    # A claw on 0..3 plus a disjoint P_4 on 4..7: degrees 3,1,1,1,1,2,2,1.
    g = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 7)])
    rows = []
    real_row = star_module._binomial_row

    def recording_row(d):
        rows.append(d)
        return real_row(d)

    monkeypatch.setattr(star_module, "_binomial_row", recording_row)
    assert star_sequence(g) == StarSequence(8, 6, (5, 1, 0, 0, 0, 0))
    # No binomial call: one row per distinct degree d >= 2, C(3, 2..3) for
    # the center and C(2, 2) once for both P_4 middles.
    assert binomial_calls == []
    assert sorted(d for d in rows if d >= 2) == [2, 3]
    assert (real_row(3), real_row(2), real_row(1), real_row(0)) == ([3, 1], [1], [], [])


@given(graphs(max_n=12))
def test_star_sequences_equal_the_untruncated_formula(g):
    degs = g.vertex_degrees
    f = frequency_sequence(g).counts
    by_vertex = tuple(sum(binomial(d, k) for d in degs) for k in range(2, g.n))
    by_frequency = tuple(
        sum(binomial(i, k) * f[i] for i in range(k, g.n)) for k in range(2, g.n)
    )
    expected = StarSequence(g.n, g.m, by_vertex)
    assert by_frequency == by_vertex
    assert star_sequence(g) == expected
    assert star_from_frequency(frequency_sequence(g)) == expected


def test_classify_named_families():
    for n in range(3, 9):
        assert classify(star_sequence(path(n))).label == "path", n
        assert classify(star_sequence(cycle(n))).label == "regular(2)", n
    for n in range(3, 7):
        assert classify(star_sequence(complete(n))).label == f"regular({n - 1})", n
    assert classify(star_sequence(matching(3))).label == "regular(1)"
    assert classify(star_sequence(edgeless(4))).label == "other"
    assert classify(star_sequence(star(3))).label == "other"
    assert classify(star_sequence(k2_plus_isolated())).label == "other"


def test_classify_p2_ties_break_toward_path():
    # P_2 = K_2 satisfies both the path and the 1-regular criteria.
    assert classify(star_sequence(path(2))).label == "path"


def test_classify_rejects_single_vertex():
    with pytest.raises(ValueError):
        classify(star_sequence(edgeless(1)))


def test_classify_sound_for_actual_regular_and_path_graphs():
    for n in range(2, 6):
        for g in all_labeled_graphs(n):
            degs = sorted(g.vertex_degrees)
            got = classify(star_sequence(g))
            if len(set(degs)) == 1 and degs[0] >= 1:
                if g.n == 2 and degs[0] == 1:
                    assert got.label == "path", g
                else:
                    assert got.kind == "regular" and got.degree == degs[0], g
            elif _is_path(g):
                assert got.label == "path", g


def _is_path(g) -> bool:
    # connected with degree multiset {1,1,2,...,2}
    if g.n < 2 or sorted(g.vertex_degrees) != [1, 1] + [2] * (g.n - 2):
        return False
    seen = {0}
    frontier = [0]
    adj = {v: set() for v in range(g.n)}
    for u, v in sorted(g.edges):
        adj[u].add(v)
        adj[v].add(u)
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v] - seen:
                seen.add(w)
                nxt.append(w)
        frontier = nxt
    return len(seen) == g.n


def test_classify_sees_sequences_not_graphs():
    # C_3 + K_2 on 5 vertices has exactly the star sequence of P_5, and
    # the classifier works from counts alone, so it cannot tell them apart.
    # K_3 plus an isolated vertex has its own counts (S fixes
    # f = (1, 0, 3, 0)), but for k >= 2 the regular test ignores isolated
    # vertices, so it reports regular(2); regular(1) does not ignore them.
    from starzagreb.graph import Graph

    blended = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert star_sequence(blended).as_tuple() == star_sequence(path(5)).as_tuple()
    assert classify(star_sequence(blended)).label == "path"

    padded = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    assert frequency_from_star(star_sequence(padded)).counts == (1, 0, 3, 0)
    assert classify(star_sequence(padded)).label == "regular(2)"
    assert classify(star_sequence(Graph.from_edges(3, [(0, 1)]))).label == "other"

    # 2S_1 = 3 * S_3 fits the 3-regular shape, but S_2 != C(3, 2) * S_3.
    assert classify(StarSequence(5, 3, (5, 2, 0))).label == "other"


def test_star_sequence_validation():
    with pytest.raises(ValueError):
        StarSequence(0, 0, ())
    with pytest.raises(ValueError):
        StarSequence(3, -1, (0,))
    with pytest.raises(ValueError):
        StarSequence(3, 0, (0, 0))  # higher must have length n - 2
    with pytest.raises(ValueError):
        StarSequence(3, 0, (-2,))
    with pytest.raises(ValueError, match="a single vertex has no edges"):
        StarSequence(1, 1, ())


@given(graphs(min_n=2, max_n=8))
def test_round_trip_property(g):
    f = frequency_sequence(g)
    s = star_sequence(g)
    assert frequency_from_star(s) == f
    assert star_from_frequency(f) == s


@given(graphs(min_n=2, max_n=8))
def test_star_entries_bounded(g):
    s = star_sequence(g)
    for k in range(1, g.n):
        assert 0 <= s.entry(k) <= g.n * binomial(g.n - 1, k)
