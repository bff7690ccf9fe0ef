"""Zagreb indices by three routes, generating functions, and recurrences."""

from __future__ import annotations

import math
import random
import tracemalloc
from collections import deque
from itertools import chain, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starzagreb.combinatorics import falling_factorial_coeffs
from starzagreb.graph import Graph, frequency_sequence
from starzagreb.star import alternating_moment, moment_identity_rhs, star_sequence
from starzagreb.zagreb import (
    ZagrebGenFunc,
    _reduced_numerator,
    genfunc_numerator,
    recurrence_coeffs,
    verify_recurrence,
    zagreb_by_recurrence,
    zagreb_direct,
    zagreb_from_stars,
)
from starzagreb.oracle import all_labeled_graphs, series_expand_rational
from tests.named import complete, cycle, edgeless, k2_plus_isolated, path, star
from tests.strategies import graphs


def window_recurrence(g: Graph, p: int) -> int:
    """Reference Z_p from the paper's Stirling form of the recurrence:
    slide a window of the n previous values forward, each new value being
    -(c_1 Z_{p-1} + ... + c_n Z_{p-n}), seeded with direct Z_1..Z_n."""
    n = g.n
    if p <= n:
        return zagreb_direct(g, p)
    coeffs = recurrence_coeffs(n)
    window = deque((zagreb_direct(g, q) for q in range(1, n + 1)), maxlen=n)
    for _ in range(n + 1, p + 1):
        window.append(-sum(c * z for c, z in zip(coeffs, reversed(window))))
    return window[-1]


def all_factor_recurrence(g: Graph, p: int) -> int:
    """Reference Z_p from the paper's full denominator in factored form:
    the numerator of Z(t) (1-t)(1-2t)...(1-nt), seeded from direct
    Z_0..Z_n, streamed through n running quotients, one per (1 - jt)."""
    n = g.n
    if p <= n:
        return zagreb_direct(g, p)
    num = [zagreb_direct(g, q) for q in range(n + 1)]
    for j in range(1, n + 1):
        for k in range(n, 0, -1):
            num[k] -= j * num[k - 1]
    carry = [0] * (n + 1)
    for x in chain(num, repeat(0, p - n)):
        for j in range(1, n + 1):
            x += j * carry[j]
            carry[j] = x
    return x


def distinct_degrees(g: Graph) -> list[int]:
    """D, the distinct positive degrees, ascending."""
    return [d for d, c in enumerate(g.frequency.counts) if c and d]


def reduced_numerator(g: Graph) -> list[int]:
    """Coefficients of Z(t) prod_{d in D} (1 - dt), from its partial
    fractions: f_0 prod_{d in D} (1 - dt) + sum_d f_d prod_{e != d} (1 - et)."""
    degrees_d = distinct_degrees(g)
    num = [0] * (len(degrees_d) + 1)
    for d, c in enumerate(g.frequency.counts):
        if not c:
            continue
        poly = [c]
        for e in degrees_d:
            if e != d:
                poly = [a - e * b for a, b in zip(poly + [0], [0] + poly)]
        for k, a in enumerate(poly):
            num[k] += a
    return num


def seeded_graph(n: int, density: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for v in range(1, n) for u in range(v) if rng.random() < density]
    return Graph.from_edges(n, edges)


def test_zagreb_direct_frozen_values():
    assert zagreb_direct(cycle(4), 3) == 32
    assert zagreb_direct(complete(4), 2) == 36
    assert zagreb_direct(star(3), 2) == 12
    assert zagreb_direct(path(4), 1) == 6
    # 0^0 = 1: isolated vertices still count at p = 0
    assert zagreb_direct(k2_plus_isolated(), 0) == 3
    assert zagreb_direct(edgeless(5), 0) == 5
    assert zagreb_direct(edgeless(5), 7) == 0


def test_zagreb_direct_rejects_negative_exponent():
    with pytest.raises(ValueError):
        zagreb_direct(path(3), -1)
    with pytest.raises(ValueError, match="exponent must be a non-negative integer"):
        zagreb_by_recurrence(path(3), -1)


def test_zagreb_trivial_exponents():
    for g in (path(5), cycle(6), complete(4), k2_plus_isolated(), edgeless(3)):
        assert zagreb_direct(g, 0) == g.n
        assert zagreb_direct(g, 1) == 2 * g.m


def test_zagreb_from_stars_matches_direct():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            s = star_sequence(g)
            for p in range(1, 9):
                assert zagreb_from_stars(s, p) == zagreb_direct(g, p), (g, p)


def test_zagreb_from_stars_needs_positive_exponent():
    with pytest.raises(ValueError):
        zagreb_from_stars(star_sequence(path(3)), 0)


def test_star_route_and_moments_stay_small_at_high_exponent():
    # Both sums stop at the maximum degree (3 on the claw), so no
    # p-sized table of Stirling numbers is ever built.
    claw = star(3)
    s, f = star_sequence(claw), frequency_sequence(claw)
    expected_moment = alternating_moment(s, 600)
    for compute, expected in (
        (lambda: zagreb_from_stars(s, 600), 3**600 + 3),
        (lambda: moment_identity_rhs(f, 600), expected_moment),
    ):
        tracemalloc.start()
        try:
            value = compute()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == expected
        assert peak < 2 * 1024 * 1024, peak


def test_zagreb_second_index_two_term_form():
    # Z_2 = 2 S_1 + 2 S_2
    for g in (path(6), cycle(5), complete(5), star(4)):
        s = star_sequence(g)
        assert zagreb_direct(g, 2) == s.adjusted_first + 2 * s.entry(2)


def test_genfunc_numerator_frozen():
    assert genfunc_numerator(path(2)).numerator == (2, -4, 0)
    assert genfunc_numerator(complete(3)).numerator == (3, -12, 9, 0)
    assert genfunc_numerator(k2_plus_isolated()).numerator == (3, -16, 23, -6)
    assert genfunc_numerator(edgeless(1)).numerator == (1, -1)


def test_genfunc_shape_and_properness():
    for g in (path(4), cycle(5), star(3)):
        gf = genfunc_numerator(g)
        assert len(gf.numerator) == g.n + 1
        assert gf.numerator[0] == g.n
        assert gf.strictly_proper  # no isolated vertices
    iso = genfunc_numerator(k2_plus_isolated())
    assert not iso.strictly_proper
    assert iso.numerator[-1] == -6  # (-1)^n * n! * f_0 = -6 * 1
    with pytest.raises(ValueError, match="at least one vertex"):
        ZagrebGenFunc(0, (0,))
    with pytest.raises(ValueError, match="expected 3 numerator coefficients"):
        ZagrebGenFunc(2, (1, 2))


def test_genfunc_top_coefficient_tracks_isolated_count():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            gf = genfunc_numerator(g)
            f0 = frequency_sequence(g).isolated
            assert gf.numerator[-1] == (-1) ** n * math.factorial(n) * f0, g


def test_genfunc_denominator():
    gf = genfunc_numerator(path(3))
    assert gf.denominator_factors() == ["1-t", "1-2t", "1-3t"]
    # (1-t)(1-2t)(1-3t) = 1 - 6t + 11t^2 - 6t^3
    assert falling_factorial_coeffs(gf.n) == [1, -6, 11, -6]


def test_genfunc_series_reproduces_zagreb_values():
    for g in (path(2), complete(3), k2_plus_isolated(), star(3)):
        gf = genfunc_numerator(g)
        terms = 2 * g.n + 10
        series = series_expand_rational(gf.numerator, g.n, terms)
        for p, value in enumerate(series):
            assert value == zagreb_direct(g, p), (g, p)


def test_genfunc_series_frozen_prefixes():
    k2 = series_expand_rational(genfunc_numerator(path(2)).numerator, 2, 4)
    assert k2 == [2, 2, 2, 2]
    k3 = series_expand_rational(genfunc_numerator(complete(3)).numerator, 3, 4)
    assert k3 == [3, 6, 12, 24]


def test_recurrence_coeffs_small():
    # n = 3: (x-...)  coefficients of the cleared denominator after 1
    assert recurrence_coeffs(3) == [-6, 11, -6]
    assert recurrence_coeffs(1) == [-1]
    assert recurrence_coeffs(2) == [-3, 2]
    with pytest.raises(ValueError, match="recurrence needs at least one vertex"):
        recurrence_coeffs(0)


def test_recurrence_coeffs_match_denominator():
    for n in range(1, 8):
        gf = ZagrebGenFunc(n=n, numerator=tuple([0] * (n + 1)))
        assert falling_factorial_coeffs(gf.n)[1:] == recurrence_coeffs(n)


def test_zagreb_by_recurrence_agrees_with_direct():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            for p in range(0, 2 * n + 4):
                assert zagreb_by_recurrence(g, p) == zagreb_direct(g, p), (g, p)


def test_factored_recurrence_matches_window_on_every_profile():
    # The route reads a graph only through its degree profile, so one graph
    # per distinct profile covers every labeled graph with n <= 6.
    for n in range(1, 7):
        seen = set()
        for g in all_labeled_graphs(n):
            if g.frequency in seen:
                continue
            seen.add(g.frequency)
            for p in range(4 * n + 9):
                expected = zagreb_direct(g, p)
                assert window_recurrence(g, p) == expected, (g, p)
                assert all_factor_recurrence(g, p) == expected, (g, p)
                assert zagreb_by_recurrence(g, p) == expected, (g, p)


@given(graphs(max_n=20), st.integers(min_value=0, max_value=300))
@settings(max_examples=80, deadline=None)
def test_factored_recurrence_matches_window(g, p):
    expected = window_recurrence(g, p)
    assert zagreb_by_recurrence(g, p) == all_factor_recurrence(g, p) == expected
    assert expected == zagreb_direct(g, p)


def test_root_squaring_matches_direct_on_every_labeled_graph():
    # Every halving of p, odd and even, down to the stream of at most
    # |D| + 2 steps.  The route reads a graph only through its degree
    # profile, so one graph per profile covers every labeled graph with
    # n <= 6.
    for n in range(1, 7):
        for g in {g.frequency: g for g in all_labeled_graphs(n)}.values():
            for p in range(65):
                assert zagreb_by_recurrence(g, p) == zagreb_direct(g, p), (g, p)


@given(
    graphs(max_n=62),
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=0, max_value=12),
)
@settings(max_examples=100, deadline=None)
def test_root_squaring_matches_direct(g, p, k):
    # A drawn p, p around a power of two, where the halvings run down to
    # 1 or to 0 step by step, and p around len(num), where the first
    # halving starts.
    width = len(_reduced_numerator(g)[0])
    for q in (p, 2**k - 1, 2**k, 2**k + 1, max(width - 1, 0), width, width + 1):
        assert zagreb_by_recurrence(g, q) == zagreb_direct(g, q), (g, q)


def test_root_squaring_at_huge_exponents():
    # p = 10^9 takes about 30 halvings: Z_p is 2 on K_2, and 0 on an
    # edgeless graph, whose empty D halves nothing but p.
    assert zagreb_by_recurrence(path(2), 10**9) == 2
    for n in (1, 2, 5, 62):
        assert [zagreb_by_recurrence(edgeless(n), p) for p in (0, 1, 2, 10**9)] == [n, 0, 0, 0]
    assert zagreb_by_recurrence(path(3), 100_000) == 2 + 2**100_000
    k3131 = Graph.from_edges(62, [(u, v) for u in range(31) for v in range(31, 62)])
    assert zagreb_by_recurrence(k3131, 50_000) == 62 * 31**50_000


def assert_paper_numerator_vanishes_at_one_over_n(g: Graph) -> None:
    # No vertex has degree n, so (1 - nt) cancels out of Z(t) and the
    # paper's numerator has a root at t = 1/n: sum_k a_k n^(n-k) = 0.
    n = g.n
    a = genfunc_numerator(g).numerator
    assert sum(a[k] * n ** (n - k) for k in range(n + 1)) == 0, g


def test_paper_numerator_vanishes_at_one_over_n_exhaustively():
    for n in range(1, 7):
        for g in all_labeled_graphs(n):
            assert_paper_numerator_vanishes_at_one_over_n(g)


@given(graphs(max_n=20))
@settings(max_examples=80, deadline=None)
def test_paper_numerator_vanishes_at_one_over_n(g):
    assert_paper_numerator_vanishes_at_one_over_n(g)


def assert_route_edge_case(g: Graph, exponents) -> None:
    for p in exponents:
        expected = zagreb_direct(g, p)
        assert window_recurrence(g, p) == expected, (g, p)
        assert zagreb_by_recurrence(g, p) == expected, (g, p)


def test_recurrence_route_edgeless_graphs():
    # D is empty, n = 1 included: the reduced numerator is the constant n,
    # and Z_p = 0 for every p >= 1.
    for n in (1, 2, 5, 17):
        g = edgeless(n)
        assert reduced_numerator(g) == [n]
        assert_route_edge_case(g, range(2 * n + 4))
        assert [zagreb_by_recurrence(g, p) for p in (1, n, n + 1, 300)] == [0] * 4


def test_recurrence_route_with_isolated_vertices():
    # With f_0 > 0 the reduced numerator reaches degree r = |D|: its top
    # coefficient is f_0 prod_{d in D} (-d), so truncating at t^r is exact.
    for g in (k2_plus_isolated(), Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])):
        degrees_d = distinct_degrees(g)
        top = reduced_numerator(g)[-1]
        assert top == g.frequency.isolated * math.prod(-d for d in degrees_d) != 0
        assert_route_edge_case(g, range(3 * g.n + 5))


def test_recurrence_route_star_k1_61():
    # D = {1, 61}: two factors instead of the paper's 62.
    g = star(61)
    assert distinct_degrees(g) == [1, 61]
    assert_route_edge_case(g, [0, 1, 2, 3, 61, 62, 63, 500])


def test_recurrence_route_at_n_plus_one():
    for g in (path(5), cycle(6), complete(5), star(7), k2_plus_isolated(), edgeless(4)):
        assert_route_edge_case(g, [g.n, g.n + 1])


def refuse_direct(g, q):
    raise AssertionError(f"the recurrence route read the direct value Z_{q}")


def test_recurrence_route_reads_direct_values_only_up_to_n(monkeypatch):
    # route_p compares this route with direct powers; that check means
    # nothing if the route itself falls back to direct powers.  Its seeds
    # are running products, so it reads no direct value at all.
    g = seeded_graph(30, 0.4, 20260901)
    expected = zagreb_direct(g, 500)
    monkeypatch.setattr("starzagreb.zagreb.zagreb_direct", refuse_direct)
    assert zagreb_by_recurrence(g, 500) == expected


def test_recurrence_route_reads_direct_values_only_up_to_distinct_degrees(monkeypatch):
    # The route divides only by the factors (1 - dt) with d in D, so its
    # reduced numerator holds r + 1 = |D| + 1 coefficients, formed from
    # Z_0..Z_r as running products, and no direct value is read.
    exponents = [0, 1, 2, 3, 61, 62, 500]
    cases = [
        (g, [zagreb_direct(g, p) for p in exponents])
        for g in (seeded_graph(30, 0.4, 20260901), star(61), k2_plus_isolated(), edgeless(6))
    ]
    monkeypatch.setattr("starzagreb.zagreb.zagreb_direct", refuse_direct)
    for g, expected in cases:
        num, factors = _reduced_numerator(g)
        assert factors == distinct_degrees(g)
        assert len(num) == len(factors) + 1 < g.n + 1, g
        assert [zagreb_by_recurrence(g, p) for p in exponents] == expected, g


def test_recurrence_route_memory_stays_order_n_at_high_exponent():
    # At most n + 1 running values (|D| + 1 of them) of at most ~20,000
    # bits each; keeping all p + 1 series terms would peak at about 3 MB.
    g = seeded_graph(62, 0.9, 20260902)
    p = 3400
    expected = zagreb_direct(g, p)
    tracemalloc.start()
    try:
        value = zagreb_by_recurrence(g, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == expected
    assert peak < 512 * 1024, peak


def test_recurrence_residuals_vanish_past_n():
    for g in (path(4), cycle(5), complete(4), k2_plus_isolated()):
        checks = verify_recurrence(g, g.n + 1, g.n + 12)
        assert all(c.holds and c.residual == 0 for c in checks)


def test_recurrence_residual_at_n_equals_top_coefficient():
    # At p = n the recurrence picks up the numerator's degree-n term,
    # so it fails exactly when isolated vertices are present.
    g = k2_plus_isolated()
    checks = verify_recurrence(g, 3, 3)
    assert len(checks) == 1
    assert checks[0].residual == -6
    assert not checks[0].holds
    clean = verify_recurrence(cycle(4), 4, 4)
    assert clean[0].residual == 0 and clean[0].holds


def test_verify_recurrence_rejects_small_p():
    with pytest.raises(ValueError):
        verify_recurrence(path(3), 2, 5)


def test_recurrence_matches_brute_expansion_exhaustively():
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            coeffs = recurrence_coeffs(n)
            zs = [zagreb_direct(g, p) for p in range(n + 1, n + 7)]
            for idx, p in enumerate(range(n + 1, n + 7)):
                window = [zagreb_direct(g, p - i) for i in range(1, n + 1)]
                predicted = -sum(c * z for c, z in zip(coeffs, window))
                assert zs[idx] == predicted, (g, p)


def test_large_exponent_recurrence_is_fast_and_exact():
    rng = random.Random(20260819)
    n = 30
    edges = [
        (u, v)
        for v in range(1, n)
        for u in range(v)
        if rng.random() < 0.3
    ]
    g = Graph.from_edges(n, edges)
    p = 200
    assert zagreb_by_recurrence(g, p) == zagreb_direct(g, p)


def test_genfunc_single_vertex():
    gf = genfunc_numerator(edgeless(1))
    assert gf.denominator_factors() == ["1-t"]
    series = series_expand_rational(gf.numerator, 1, 5)
    assert series == [1, 0, 0, 0, 0]


@given(graphs(max_n=7))
@settings(max_examples=60)
def test_three_routes_agree(g):
    for p in range(1, 10):
        direct = zagreb_direct(g, p)
        assert zagreb_from_stars(star_sequence(g), p) == direct
        assert zagreb_by_recurrence(g, p) == direct


@given(graphs(max_n=6))
@settings(max_examples=40)
def test_series_route_agrees(g):
    gf = genfunc_numerator(g)
    series = series_expand_rational(gf.numerator, g.n, g.n + 5)
    for p, value in enumerate(series):
        assert value == zagreb_direct(g, p)
