"""The batch fast paths against the slow paths they replaced.

parse_graph6 selects its edges from a table of vertex pairs by the 0/1
bytes of each character, star_sequence adds one binomial row per distinct
degree, and genfunc_numerator takes the reduced numerator
R(t) = Z(t) prod_{d in D} (1 - dt) over the distinct positive degrees D,
formed from running products Z_0..Z_|D|, times the factors (1 - jt) with
j outside D.  The per-bit decoder, the per-vertex binomial star count and
the Stirling convolution of zagreb_direct's values below are the code
they replaced, kept here as references: exhaustively for n <= 6, by
hypothesis up to n = 62, and against networkx's graph6 decoder where it is
installed.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import starzagreb.combinatorics as combinatorics_module
import starzagreb.zagreb as zagreb_module
from starzagreb.combinatorics import binomial
from starzagreb.graph import GRAPH6_HEADER, Graph, GraphFormatError, parse_graph6, to_graph6
from starzagreb.oracle import _realize, all_labeled_graphs, series_expand_rational
from starzagreb.star import StarSequence, _binomial_row, star_sequence
from starzagreb.zagreb import genfunc_numerator, recurrence_coeffs, zagreb_direct
from tests.named import complete, edgeless, star
from tests.strategies import graphs

try:
    import networkx as nx
except ImportError:  # networkx is a test-only cross-check
    nx = None


def per_bit_parse_graph6(line: str) -> Graph:
    """parse_graph6 as it was: every check, then one test per adjacency bit."""
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise GraphFormatError("empty graph6 string")
    values = []
    for pos, ch in enumerate(s):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise GraphFormatError(f"invalid graph6 character {ch!r} at position {pos}")
        values.append(code - 63)
    if values[0] == 63:
        raise GraphFormatError("multi-byte vertex counts (n > 62) are not supported")
    n = values[0]
    if n == 0:
        raise GraphFormatError("graph6 string encodes a graph with no vertices")
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    body = values[1:]
    if len(body) < nchars:
        raise GraphFormatError(
            f"truncated graph6 bit field: need {nchars} data characters, got {len(body)}"
        )
    if len(body) > nchars:
        raise GraphFormatError("unexpected trailing characters after graph6 bit field")
    edges = set()
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if body[idx // 6] >> (5 - idx % 6) & 1:
                edges.add((u, v))
            idx += 1
    return Graph(n, frozenset(edges))


def per_vertex_star_sequence(g: Graph) -> StarSequence:
    """star_sequence as it was: one binomial call per vertex and k = 2..deg."""
    higher = [0] * max(0, g.n - 2)
    for d in g.vertex_degrees:
        for k in range(2, d + 1):
            higher[k - 2] += binomial(d, k)
    return StarSequence(n=g.n, s1=g.m, higher=tuple(higher))


def direct_numerator(g: Graph) -> tuple[int, ...]:
    """genfunc_numerator's coefficients as they were, from zagreb_direct."""
    z = [zagreb_direct(g, p) for p in range(g.n + 1)]
    c = [1, *recurrence_coeffs(g.n)]
    return tuple(sum(c[k - i] * z[i] for i in range(k + 1)) for k in range(g.n + 1))


def profile_graphs(n: int) -> list[Graph]:
    """One Havel-Hakimi realization of each degree profile on n vertices."""
    sequences = combinations_with_replacement(range(n - 1, -1, -1), n)
    return [g for g in (_realize(n, degrees) for degrees in sequences) if g is not None]


def test_fast_paths_agree_with_the_slow_paths_on_every_labeled_graph():
    for n in range(1, 7):
        for g in all_labeled_graphs(n):
            line = to_graph6(g)
            assert parse_graph6(line) == per_bit_parse_graph6(line) == g, line
            assert star_sequence(g) == per_vertex_star_sequence(g), line


def refuse_stirling(*args):
    raise AssertionError("genfunc_numerator read a Stirling row")


@pytest.mark.parametrize("n", range(1, 7))
def test_genfunc_z_table_equals_zagreb_direct_on_every_profile(n, monkeypatch):
    profiles = profile_graphs(n)
    assert len(profiles) == [1, 2, 4, 11, 31, 102][n - 1]  # OEIS A004251
    expected = [direct_numerator(g) for g in profiles]
    monkeypatch.setattr(zagreb_module, "recurrence_coeffs", refuse_stirling)
    monkeypatch.setattr(zagreb_module, "stirling1_rows", refuse_stirling)
    monkeypatch.setattr(combinatorics_module, "stirling1_rows", refuse_stirling)
    for g, direct in zip(profiles, expected):
        numerator = genfunc_numerator(g).numerator
        # The numerator is the Z table times the denominator, truncated at
        # t^n, so expanding it back over the denominator gives the table.
        assert series_expand_rational(numerator, n, n + 1) == [
            zagreb_direct(g, p) for p in range(n + 1)
        ], g.vertex_degrees
        assert numerator == direct, g.vertex_degrees


@given(graphs(max_n=62))
@example(star(61))  # D = {1, 61}
@example(Graph.from_edges(62, [(u, v) for u in range(31) for v in range(31, 62)]))  # D = {31}
@example(complete(62))  # D = {61}
@example(edgeless(62))  # D is empty
@settings(max_examples=60, deadline=None)
def test_star_sequence_and_numerator_agree_with_the_slow_paths(g):
    assert star_sequence(g) == per_vertex_star_sequence(g)
    assert genfunc_numerator(g).numerator == direct_numerator(g)


def test_binomial_rows_equal_math_comb():
    for d in range(100):
        assert _binomial_row(d) == [comb(d, k) for k in range(2, d + 1)], d


@st.composite
def graph6_lines(draw) -> tuple[str, Graph]:
    """A graph6 line for n <= 62, with any padding bits, sometimes behind
    the header and within whitespace, and the graph it encodes."""
    n = draw(st.integers(1, 62))
    nbits = n * (n - 1) // 2
    pad = -nbits % 6
    bits = draw(st.integers(0, (1 << nbits) - 1))
    field = bits << pad | draw(st.integers(0, (1 << pad) - 1))
    chars = [chr(63 + (field >> 6 * i & 63)) for i in reversed(range((nbits + pad) // 6))]
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    edges = frozenset(p for i, p in enumerate(pairs) if bits >> (nbits - 1 - i) & 1)
    header = draw(st.sampled_from(["", GRAPH6_HEADER]))
    space = draw(st.sampled_from(["", " ", "\n", " \t"]))
    return f"{space}{header}{chr(63 + n)}{''.join(chars)}{space}", Graph(n, edges)


@given(graph6_lines())
@example((">>graph6<<A_\n", Graph(2, frozenset({(0, 1)}))))
@example(("Bz", Graph(3, frozenset({(0, 1), (0, 2), (1, 2)}))))  # padding bits 011
@settings(max_examples=200, deadline=None)
def test_parse_graph6_agrees_with_the_per_bit_decoder(case):
    line, g = case
    assert parse_graph6(line) == per_bit_parse_graph6(line) == g


@pytest.mark.skipif(nx is None, reason="networkx is not installed")
@given(graph6_lines())
@settings(max_examples=100, deadline=None)
def test_parse_graph6_agrees_with_networkx(case):
    line, g = case
    h = nx.from_graph6_bytes(line.strip().encode("ascii"))
    assert g.n == h.number_of_nodes()
    assert parse_graph6(line).edges == {(min(e), max(e)) for e in h.edges()}


# Mostly graph6 characters, plus a few outside the range graph6 uses.
graph6_junk = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=63, max_codepoint=126),
        st.sampled_from(" \t\n>!\x1f\x7fé？"),
    ),
    max_size=12,
)


@given(st.one_of(graph6_junk, graph6_junk.map(GRAPH6_HEADER.__add__)))
@example("~??")
@example("A\x1f")
@example(" ?")
def test_parse_graph6_refuses_what_the_per_bit_decoder_refuses(text):
    try:
        expected = per_bit_parse_graph6(text)
    except GraphFormatError as exc:
        with pytest.raises(GraphFormatError) as refused:
            parse_graph6(text)
        assert str(refused.value) == str(exc)
    else:
        assert parse_graph6(text) == expected
