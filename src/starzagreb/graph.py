"""Simple undirected labeled graphs, their input formats, and degree tallies.

Vertices are dense 0-based integers.  Two input formats are supported: a
plain edge-list text format (first significant line is the vertex count,
then one "u v" pair per line) and the graph6 encoding, one graph per line,
restricted to single-byte sizes (n <= 62).
"""

from __future__ import annotations

import re
import sys
from functools import cached_property
from itertools import compress
from operator import attrgetter
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

# The verifier's bounds live here, not in the oracle that exports them, so
# that the CLI can name them in its help without loading the oracle.
MAX_ENUM_N = 7
# verify_all_identities counts stars by walking every subset of one
# neighbourhood per distinct degree d, the sum of 2^d, under 2^n subsets:
# about 0.08 s for the 20-vertex graph of degrees 1..19, the worst case,
# and four times as many subsets per two more vertices.
MAX_BRUTEFORCE_N = 20
# The largest p_max and m_max, whose cost grows as their square.  On n
# vertices the exponents past n - 1 test nothing new (Vandermonde on the
# degrees), and this is at least max(8, 2n) for every n verify accepts.
MAX_VERIFY_EXPONENT = 2 * MAX_BRUTEFORCE_N

GRAPH6_HEADER = ">>graph6<<"
# The pairs (u, v), u < v < 62, in graph6 bit order: (0,1), (0,2), (1,2), (0,3), ...
_GRAPH6_PAIRS = tuple((u, v) for v in range(1, 62) for u in range(v))
# The six bits of each data value 0..63, most significant first, as 0/1 bytes.
_GRAPH6_BITS = tuple(bytes(x >> i & 1 for i in range(5, -1, -1)) for x in range(64))
# Each graph6 character's six bits, least significant first, as "0"/"1": the
# bit field read backwards in base 2 holds the bit of pair i at bit i.
_GRAPH6_REVERSED = {63 + x: format(x, "06b")[::-1] for x in range(64)}
# The bits of the pairs at vertex w in that integer: (u, w) for u < w, the
# run from w(w-1)/2 up, and (w, v) for v > w, bit v(v-1)/2 + w each.
_GRAPH6_STARS = tuple(
    ((1 << w) - 1) << w * (w - 1) // 2 | sum(1 << v * (v - 1) // 2 + w for v in range(w + 1, 62))
    for w in range(62)
)

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


class _Value:
    """Base of the package's immutable value classes.

    A subclass names its fields in _fields, and its own __init__ checks
    its arguments and stores them in the instance dict; from then on no
    attribute can be assigned or deleted.  Equality (only between
    instances of one class), hashing, repr and pickling read those fields
    in that order, and unpickling calls the constructor, which checks them
    again.  Cached properties write straight into the instance dict, so
    they still work.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A C-level getter per class, always returning a tuple: the sweep
        # hashes and compares its theorem results.
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __reduce__(self) -> tuple:
        return type(self), self._values(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(_Value):
    """Immutable simple graph: a vertex count and a set of (u, v) pairs, u < v.

    No self-loops, no duplicate edges, endpoints in [0, n).  Instances are
    hashable and picklable.  Equality, hashing, repr and pickling read only
    n and edges; m, the degree tally, the frequency sequence and the graph6
    encoding are cached on first use, and as pure functions of those two
    fields they can never go stale.  A graph decoded by parse_graph6 comes
    with m, its degrees and its graph6 line already cached, and builds its
    edge set from that line only when something reads it.
    """

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]) -> None:
        if n < 1:
            raise ValueError("graph must have at least one vertex")
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not 0 <= u < v < n:
                raise ValueError(f"edge ({u}, {v}) out of range or not normalized")
        self.__dict__.update(n=n, edges=edges)

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

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edge set of a decoded graph, selected by the bits of its
        graph6 line; the constructor stores every other graph's edges."""
        bits = b"".join([_GRAPH6_BITS[c - 63] for c in self._graph6.encode()[1:]])
        return frozenset(compress(_GRAPH6_PAIRS, bits))

    @cached_property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def vertex_degrees(self) -> tuple[int, ...]:
        """deg(v) for v = 0..n-1, tallied from the edges once per instance
        (parse_graph6 fills it in from the bits instead)."""
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

    @cached_property
    def _graph6(self) -> str:
        # Edge (u, v), u < v, is bit v(v-1)/2 + u of the column-order upper
        # triangle, packed six to a character, most significant bit first.
        groups = [0] * -(-self.n * (self.n - 1) // 12)
        for u, v in self.edges:
            i = v * (v - 1) // 2 + u
            groups[i // 6] |= 32 >> i % 6
        return chr(self.n + 63) + "".join(chr(x + 63) for x in groups)


class FrequencySequence(_Value):
    """Degree tallies f_0..f_{n-1}: counts[i] is the number of vertices of degree i."""

    _fields = ("counts",)

    def __init__(self, counts: tuple[int, ...]) -> None:
        if not counts:
            raise ValueError("frequency sequence needs at least one vertex")
        if any(c < 0 for c in counts):
            raise ValueError("negative frequency count")
        if sum(counts) != len(counts):
            raise ValueError("frequency counts must sum to the vertex count")
        self.__dict__.update(counts=counts)

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
            if n > sys.maxsize:
                # No per-vertex list of that length can even be indexed.
                raise GraphFormatError(
                    f"vertex count above the limit sys.maxsize = {sys.maxsize}", lineno
                )
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
    Padding bits past the n(n-1)/2 are not read: the graph's graph6 line is
    the input's with them cleared.  The bits are read backwards into one
    integer x, bit i for pair i, so m is the bit count of x and deg(w) that
    of x masked by the pairs at w.  Those, and the line, are cached on the
    graph; its edge set is built from the line only when first read.
    """
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise GraphFormatError("empty graph6 string")
    bad = re.search("[^?-~]", s)  # graph6 uses only codes 63..126
    if bad:
        raise GraphFormatError(f"invalid graph6 character {bad[0]!r} at position {bad.start()}")
    if s[0] == "~":
        raise GraphFormatError("multi-byte vertex counts (n > 62) are not supported")
    n = ord(s[0]) - 63
    if n == 0:
        raise GraphFormatError("graph6 string encodes a graph with no vertices")
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(s) - 1 < nchars:
        raise GraphFormatError(
            f"truncated graph6 bit field: need {nchars} data characters, got {len(s) - 1}"
        )
    if len(s) - 1 > nchars:
        raise GraphFormatError("unexpected trailing characters after graph6 bit field")
    pad = 6 * nchars - nbits
    if pad:
        s = s[:-1] + chr(63 + ((ord(s[-1]) - 63) >> pad << pad))
    x = int(s[:0:-1].translate(_GRAPH6_REVERSED) or "0", 2)
    g = Graph.__new__(Graph)
    g.__dict__.update(
        n=n,
        m=x.bit_count(),
        vertex_degrees=tuple(map(int.bit_count, map(x.__and__, _GRAPH6_STARS[:n]))),
        _graph6=s,
    )
    return g


def to_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no header); requires n <= 62.

    The line is cached on the graph.  A graph from parse_graph6 returns the
    line it was decoded from, without header or whitespace and with the
    padding bits cleared, which is the line its edges encode to.
    """
    if g.n > 62:
        raise ValueError("graph6 encoding is limited to n <= 62 here")
    return g._graph6


def frequency_sequence(g: Graph) -> FrequencySequence:
    """f_i, the number of vertices of degree i, for i = 0..n-1: the cached g.frequency."""
    return g.frequency
