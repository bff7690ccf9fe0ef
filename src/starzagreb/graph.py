"""Simple undirected labeled graphs, their input formats, and degree tallies.

Vertices are dense 0-based integers.  Two input formats are supported: a
plain edge-list text format (first significant line is the vertex count,
then one "u v" pair per line) and the graph6 encoding, one graph per line,
restricted to single-byte sizes (n <= 62).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

__all__ = [
    "Graph",
    "GraphFormatError",
    "FrequencySequence",
    "parse_edge_list",
    "parse_graph6",
    "to_graph6",
    "frequency_sequence",
]

GRAPH6_HEADER = ">>graph6<<"

# Integer tokens longer than CPython's default int-from-str digit limit are
# refused before int() sees them, whatever limit the interpreter runs with.
_MAX_INT_TOKEN = 4300
# Only ASCII digits with an optional minus: int() alone would also read
# "1_1", "+3" and non-ASCII digits such as a full-width "３".
_INT_TOKEN = re.compile(r"-?[0-9]+")


def _parse_int(token: str) -> int:
    if len(token) > _MAX_INT_TOKEN:
        raise ValueError(f"integer token longer than {_MAX_INT_TOKEN} characters")
    if not _INT_TOKEN.fullmatch(token):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


class GraphFormatError(ValueError):
    """Malformed graph input.  Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: a vertex count and a set of (u, v) pairs, u < v.

    No self-loops, no duplicate edges, endpoints in [0, n).  Instances are
    hashable and picklable.  Equality, hashing and repr read only n and
    edges; the degree tally and the frequency sequence are cached on first
    use, and as pure functions of those two fields they can never go stale.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph must have at least one vertex")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not 0 <= u < v < self.n:
                raise ValueError(f"edge ({u}, {v}) out of range or not normalized")

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from unordered endpoint pairs, rejecting duplicates."""
        seen: set[tuple[int, int]] = set()
        for u, v in pairs:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {{{e[0]}, {e[1]}}}")
            seen.add(e)
        return cls(n, frozenset(seen))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def vertex_degrees(self) -> tuple[int, ...]:
        """deg(v) for v = 0..n-1, tallied from the edges once per instance."""
        out = [0] * self.n
        for u, v in self.edges:
            out[u] += 1
            out[v] += 1
        return tuple(out)

    @cached_property
    def frequency(self) -> FrequencySequence:
        """f_i, the number of vertices of degree i, for i = 0..n-1."""
        counts = [0] * self.n
        for d in self.vertex_degrees:
            counts[d] += 1
        return FrequencySequence(tuple(counts))


@dataclass(frozen=True)
class FrequencySequence:
    """Degree tallies f_0..f_{n-1}: counts[i] is the number of vertices of degree i."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("frequency sequence needs at least one vertex")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative frequency count")
        if sum(self.counts) != len(self.counts):
            raise ValueError("frequency counts must sum to the vertex count")

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def isolated(self) -> int:
        """f_0, the number of degree-zero vertices."""
        return self.counts[0]

    def f(self, i: int) -> int:
        """f_i, with f_i = 0 for i >= n."""
        if i < 0:
            raise ValueError("degree must be non-negative")
        return self.counts[i] if i < len(self.counts) else 0


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format.

    The first significant line holds the vertex count n; every following
    significant line is "u v" with 0-based endpoints.  Blank lines and
    lines starting with '#' are ignored.  Self-loops, duplicate edges,
    out-of-range endpoints and malformed lines are all reported with their
    line number.
    """
    n: int | None = None
    seen: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if n is None:
            if len(tokens) != 1:
                raise GraphFormatError("expected a single integer vertex count", lineno)
            try:
                n = _parse_int(tokens[0])
            except ValueError:
                raise GraphFormatError(f"invalid vertex count {tokens[0]!r}", lineno) from None
            if n < 1:
                raise GraphFormatError("vertex count must be at least 1", lineno)
            continue
        if len(tokens) != 2:
            raise GraphFormatError(f"expected 'u v', got {stripped!r}", lineno)
        try:
            u, v = _parse_int(tokens[0]), _parse_int(tokens[1])
        except ValueError:
            raise GraphFormatError(f"non-integer endpoint in {stripped!r}", lineno) from None
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"endpoint out of range in {stripped!r} (n = {n})", lineno)
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise GraphFormatError(
                f"duplicate edge {{{e[0]}, {e[1]}}} (first seen at line {seen[e]})", lineno
            )
        seen[e] = lineno
    if n is None:
        raise GraphFormatError("empty input: missing vertex count")
    return Graph(n, frozenset(seen))


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line, optionally prefixed with '>>graph6<<'.

    Only single-byte sizes are accepted (1 <= n <= 62).  The n(n-1)/2
    adjacency bits cover the upper triangle column by column: (0,1), (0,2),
    (1,2), (0,3), ..., packed big-endian into 6-bit characters offset by 63.
    """
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


def to_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no header); requires n <= 62."""
    if g.n > 62:
        raise ValueError("graph6 encoding is limited to n <= 62 here")
    # Edge (u, v), u < v, is bit v(v-1)/2 + u of the column-order upper
    # triangle, packed six to a character, most significant bit first.
    groups = [0] * -(-g.n * (g.n - 1) // 12)
    for u, v in g.edges:
        i = v * (v - 1) // 2 + u
        groups[i // 6] |= 32 >> i % 6
    return chr(g.n + 63) + "".join(chr(x + 63) for x in groups)


def frequency_sequence(g: Graph) -> FrequencySequence:
    """f_i, the number of vertices of degree i, for i = 0..n-1: the cached g.frequency."""
    return g.frequency
