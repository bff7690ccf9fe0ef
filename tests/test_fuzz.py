"""Fuzzing: both parsers and every command on arbitrary input bytes.

Whatever a file holds, a parser returns a Graph or raises GraphFormatError,
and main() exits 0 or 2 with one "error:" line per refused input and no
traceback.  Vertex counts stay small so each example runs in milliseconds.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from starzagreb.cli import main
from starzagreb.graph import Graph, GraphFormatError, parse_edge_list, parse_graph6, to_graph6
from tests.strategies import graphs

DIGITS = b"0123456789"

# Junk bytes carry no ASCII digit, so the only integers a file holds are the
# single-digit tokens below and no fuzzed file declares a large graph.
junk = st.binary(max_size=3).map(lambda b: b.translate(None, DIGITS))
edge_list_token = st.one_of(st.integers(-2, 9).map(lambda i: str(i).encode()), junk)
edge_list_line = st.lists(edge_list_token, max_size=3).map(b" ".join)
edge_list_file = st.one_of(
    st.lists(edge_list_line, max_size=10).map(b"\n".join),
    # A valid file, sometimes followed by fuzzed lines.
    st.builds(
        lambda g, tail: b"\n".join([str(g.n).encode(), *(b"%d %d" % e for e in g.edges), *tail]),
        graphs(max_n=7),
        st.lists(edge_list_line, max_size=2),
    ),
)

# graph6 lines of at most 7 data characters encode at most 9 vertices.
graph6_line = st.one_of(
    graphs(max_n=7).map(lambda g: to_graph6(g).encode()),
    st.binary(max_size=8),
    st.text(st.characters(min_codepoint=63, max_codepoint=126), max_size=8).map(str.encode),
)
graph6_file = st.lists(graph6_line, max_size=6).map(b"\n".join)


def parses_or_refuses(parse, text: str) -> None:
    try:
        g = parse(text)
    except GraphFormatError:
        return
    assert isinstance(g, Graph)


@given(st.one_of(st.text(), edge_list_file.map(lambda b: b.decode("utf-8", "replace"))))
def test_parse_edge_list_returns_graph_or_format_error(text):
    parses_or_refuses(parse_edge_list, text)


@given(st.one_of(st.text(), graph6_line.map(lambda b: b.decode("ascii", "replace"))))
def test_parse_graph6_returns_graph_or_format_error(text):
    parses_or_refuses(parse_graph6, text)


@pytest.mark.parametrize(
    "command",
    [["info"], ["zagreb", "--p", "3"], ["genfunc"], ["verify", "--p-max", "3", "--m-max", "2"]],
    ids=["info", "zagreb", "genfunc", "verify"],
)
@pytest.mark.parametrize(
    "name, contents", [("fuzz.txt", edge_list_file), ("fuzz.g6", graph6_file)], ids=["edgelist", "graph6"]
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), as_json=st.booleans())
def test_main_on_fuzzed_files_exits_0_or_2(tmp_path, capsys, command, name, contents, data, as_json):
    src = tmp_path / name
    src.write_bytes(data.draw(contents))
    rc = main([command[0], str(src), *command[1:], *(["--json"] if as_json else [])])
    err = capsys.readouterr().err
    assert rc in (0, 2)
    assert "Traceback" not in err
    assert all(line.startswith("error:") for line in err.splitlines())
