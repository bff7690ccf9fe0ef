"""An independent corpus: every non-empty graph of networkx's atlas (all
graphs on at most 7 vertices, up to isomorphism; Read & Wilson, An Atlas of
Graphs).  networkx is a test-only cross-check; the test is skipped where it
is not installed."""

from __future__ import annotations

from math import comb

import pytest

from starzagreb.graph import Graph, parse_graph6, to_graph6
from starzagreb.oracle import verify_all_identities
from starzagreb.star import star_sequence

nx = pytest.importorskip("networkx")


def test_atlas_graphs_pass_and_agree_with_networkx():
    atlas = [h for h in nx.graph_atlas_g() if h.number_of_nodes()]
    assert len(atlas) == 1252
    for i, h in enumerate(atlas, start=1):
        g = Graph.from_edges(h.number_of_nodes(), h.edges())
        assert verify_all_identities(g, graph_id=f"atlas:{i}").passed, i
        line = to_graph6(g)
        assert line == nx.to_graph6_bytes(h, header=False).decode("ascii").rstrip("\n"), i
        assert parse_graph6(line) == g, i
        degs = [d for _, d in h.degree()]
        s = star_sequence(g)
        assert s.adjusted_first == sum(degs), i
        for k in range(2, g.n):
            assert s.entry(k) == sum(comb(d, k) for d in degs), (i, k)
