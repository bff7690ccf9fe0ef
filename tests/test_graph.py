"""Graph model, edge-list parsing, and graph6 round-trips.

The graph6 decoder is checked against a reference encoder written here from
the format description, independently of the library's own encoder.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given

from starzagreb.graph import (
    Graph,
    GraphFormatError,
    FrequencySequence,
    degrees,
    frequency_sequence,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from tests.named import complete, cycle, edgeless, k2_plus_isolated, path, star
from tests.strategies import graphs


def encode_g6_reference(n: int, edge_set: set[tuple[int, int]]) -> str:
    """Independent graph6 encoder for n <= 62, straight from the format."""
    assert 1 <= n <= 62
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if (u, v) in edge_set else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i : i + 6]:
            value = (value << 1) | b
        chars.append(chr(value + 63))
    return "".join(chars)


def test_graph_normalizes_and_validates():
    g = Graph.from_edges(3, [(2, 1), (0, 1)])
    assert sorted(g.edges) == [(0, 1), (1, 2)]
    assert g.m == 2
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(0, [])
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        Graph(3, frozenset({(1, 1)}))


def test_degrees_and_frequency():
    g = star(3)
    assert degrees(g) == [3, 1, 1, 1]
    f = frequency_sequence(g)
    assert f.counts == (0, 3, 0, 1)
    assert f.n == 4
    assert f.isolated == 0
    assert f.f(1) == 3
    assert f.f(9) == 0


def test_frequency_sequence_validation():
    with pytest.raises(ValueError):
        FrequencySequence((1, -1, 2))
    with pytest.raises(ValueError):
        FrequencySequence((2, 2))  # sums to 4, but only 2 vertices
    ok = FrequencySequence((1, 1))
    assert ok.isolated == 1
    assert FrequencySequence((1, 1, 1)).n == 3
    with pytest.raises(ValueError, match="at least one vertex"):
        FrequencySequence(())
    with pytest.raises(ValueError, match="degree must be non-negative"):
        ok.f(-1)


def test_parse_edge_list_basic():
    text = "# triangle\n3\n0 1\n1 2\n0 2\n"
    g = parse_edge_list(text)
    assert g.n == 3
    assert g.m == 3


def test_parse_edge_list_errors_carry_line_numbers():
    cases = [
        ("", "empty"),
        ("x\n", "vertex count"),
        ("3\n0 1 2\n", "line 2"),
        ("3\n0 0\n", "line 2"),
        ("3\n0 5\n", "line 2"),
        ("3\n0 1\n0 1\n", "line 3"),
        ("3\n0 one\n", "line 2"),
        ("0\n", "line 1"),
        ("1_1\n", "line 1"),
        ("3\n0 1_0\n", "line 2"),
        ("\uff13\n", "line 1"),
        ("+3\n", "line 1"),
    ]
    for text, fragment in cases:
        with pytest.raises(GraphFormatError) as exc_info:
            parse_edge_list(text)
        assert fragment in str(exc_info.value), (text, str(exc_info.value))


def test_parse_edge_list_refuses_oversized_integers():
    # Refused before int() runs, whatever the interpreter's digit limit.
    huge = "9" * 4301
    for text in (f"{huge}\n", f"3\n0 {huge}\n"):
        with pytest.raises(GraphFormatError):
            parse_edge_list(text)
    assert parse_edge_list("0" * 4299 + "3\n0 1\n").n == 3


def test_parse_edge_list_reports_line_attribute():
    try:
        parse_edge_list("3\n0 1\n0 1\n")
    except GraphFormatError as err:
        assert err.line == 3
    else:  # pragma: no cover
        pytest.fail("expected GraphFormatError")


def test_graph6_known_strings():
    # K_2 is 'A_', triangle is 'Bw', claw is 'Cs'
    assert to_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"
    assert to_graph6(complete(3)) == "Bw"
    g = parse_graph6("Bw")
    assert g.n == 3 and g.m == 3
    claw = parse_graph6(to_graph6(star(3)))
    assert sorted(degrees(claw)) == [1, 1, 1, 3]


def test_graph6_header_is_stripped():
    g = parse_graph6(">>graph6<<A_")
    assert g.n == 2 and g.m == 1


def test_graph6_decode_matches_reference_encoder_exhaustively():
    # Every labeled graph on up to 4 vertices.
    for n in range(1, 5):
        pairs = [(u, v) for v in range(1, n) for u in range(v)]
        for mask in range(1 << len(pairs)):
            edge_set = {pairs[i] for i in range(len(pairs)) if mask >> i & 1}
            line = encode_g6_reference(n, edge_set)
            g = parse_graph6(line)
            assert g.n == n
            assert g.edges == {tuple(sorted(e)) for e in edge_set}
            assert to_graph6(g) == line


def test_graph6_rejects_bad_input():
    bad = [
        "",
        "~??",  # multi-byte size not supported
        "?",  # n = 0
        "B",  # truncated triangle
        "A_x",  # trailing garbage
        "A\x1f",  # character below printable range
    ]
    for line in bad:
        with pytest.raises(GraphFormatError):
            parse_graph6(line)


def test_to_graph6_rejects_large_graphs():
    with pytest.raises(ValueError):
        to_graph6(edgeless(63))


def test_named_builders_shape():
    assert path(5).m == 4
    assert cycle(5).m == 5
    assert complete(5).m == 10
    assert edgeless(4).m == 0
    g = k2_plus_isolated()
    assert g.n == 3 and g.m == 1


@given(graphs(max_n=8))
def test_degree_sum_is_twice_edge_count(g):
    assert sum(degrees(g)) == 2 * g.m


@given(graphs(max_n=8))
def test_frequency_counts_degrees(g):
    f = frequency_sequence(g)
    degs = degrees(g)
    for i in range(g.n):
        assert f.f(i) == degs.count(i)


@given(graphs(max_n=12))
def test_cached_degrees_and_frequency_match_a_recount(g):
    recount = [sum(w in e for e in g.edges) for w in range(g.n)]
    assert degrees(g) == recount
    assert frequency_sequence(g).counts == tuple(recount.count(d) for d in range(g.n))


def test_degrees_returns_a_fresh_list():
    g = path(4)
    first = degrees(g)
    first[0] = 99
    first.append(7)
    assert degrees(g) == [1, 2, 2, 1]
    assert frequency_sequence(g).counts == (0, 2, 2, 0)


@given(graphs(max_n=8))
def test_filled_cache_leaves_equality_hash_and_pickle_alone(g):
    cached = Graph(g.n, g.edges)
    degrees(cached)
    frequency_sequence(cached)
    fresh = Graph(g.n, g.edges)
    assert cached == fresh and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh)
    restored = pickle.loads(pickle.dumps(cached))
    assert restored == fresh and hash(restored) == hash(fresh)
    assert degrees(restored) == degrees(fresh)
    assert frequency_sequence(restored) == frequency_sequence(fresh)


@given(graphs(max_n=8))
def test_graph6_round_trip(g):
    assert parse_graph6(to_graph6(g)) == g
