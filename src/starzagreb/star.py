"""Star-subgraph counts and the identities linking them to degree frequencies.

S_k(G) counts the subgraphs of G isomorphic to the star K_{1,k}.  The
sequence kept here is (2*S_1, S_2, ..., S_{n-1}): doubling the first entry
is what makes the binomial inversion against the frequency sequence exact
in both directions, since 2*S_1 = sum_i i*f_i while S_k = sum_i C(i,k)*f_i
for every k >= 2.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from typing import TYPE_CHECKING

from .combinatorics import binomial, surjection_row
from .graph import FrequencySequence, Graph, _Value

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "StarSequence",
    "Classification",
    "InconsistentSequenceError",
    "star_sequence",
    "star_from_frequency",
    "frequency_from_star",
    "alternating_moment",
    "moment_identity_rhs",
    "inverse_degree_edge_sum",
    "isolated_count_from_star",
    "classify",
]


class InconsistentSequenceError(ValueError):
    """Raised for an odd degree sum or a forced negative count, the only checks made."""


class StarSequence(_Value):
    """Star-subgraph counts of an n-vertex graph.

    s1 is the raw edge count S_1; higher stores S_2..S_{n-1}.  The doubled
    first entry is exposed separately as adjusted_first so the factor of
    two can never be applied twice.
    """

    _fields = ("n", "s1", "higher")

    def __init__(self, n: int, s1: int, higher: tuple[int, ...]) -> None:
        if n < 1:
            raise ValueError("star sequence needs at least one vertex")
        if len(higher) != max(0, n - 2):
            raise ValueError(
                f"expected {max(0, n - 2)} entries past S_1 for n = {n}, got {len(higher)}"
            )
        if s1 < 0 or any(x < 0 for x in higher):
            raise ValueError("star counts cannot be negative")
        if n == 1 and s1 != 0:
            raise ValueError("a single vertex has no edges")
        self.__dict__.update(n=n, s1=s1, higher=higher)

    @property
    def adjusted_first(self) -> int:
        """2*S_1, the first entry of the inversion-ready sequence."""
        return 2 * self.s1

    @cached_property
    def top(self) -> int:
        """The largest k with S_k != 0, or 0 when every S_k is zero.

        For the star counts of a graph this is the maximum degree, and every
        sum over S_k can stop there.
        """
        for k in range(len(self.higher) + 1, 1, -1):
            if self.higher[k - 2]:
                return k
        return 1 if self.s1 else 0

    def entry(self, k: int) -> int:
        """S_k; zero for every k >= n."""
        if k < 1:
            raise ValueError("star size k must be at least 1")
        if k == 1:
            return self.s1
        if k - 2 < len(self.higher):
            return self.higher[k - 2]
        return 0

    def as_tuple(self) -> tuple[int, ...]:
        """(2*S_1, S_2, ..., S_{n-1}); empty for a single vertex."""
        if self.n == 1:
            return ()
        return (self.adjusted_first, *self.higher)


class Classification(_Value):
    """Shape recognized from a star sequence: a path, a k-regular graph, or neither."""

    _fields = ("kind", "degree")

    def __init__(self, kind: str, degree: int | None = None) -> None:
        self.__dict__.update(kind=kind, degree=degree)

    @property
    def label(self) -> str:
        return f"regular({self.degree})" if self.kind == "regular" else self.kind


def _max_degree(f: FrequencySequence) -> int:
    """The largest i with f_i != 0 (counts sum to n >= 1, so one exists)."""
    return max(i for i, c in enumerate(f.counts) if c)


def star_sequence(g: Graph) -> StarSequence:
    """Count stars directly from vertex degrees.

    S_1 is the edge count; for k >= 2 a K_{1,k} subgraph has a unique
    center, so S_k = sum_v C(deg(v), k).  C(d, k) = 0 for k > d, so the c
    vertices of degree d add c times the row C(d, 2..d), built once.  The
    degrees are tallied from g.vertex_degrees, not read from g.frequency,
    which star_from_frequency reads: so a fault in the frequency tally
    shows in the inversion theorem, which compares the two.
    """
    higher = [0] * max(0, g.n - 2)
    for d, c in Counter(g.vertex_degrees).items():
        for k, x in enumerate(_binomial_row(d), start=2):
            higher[k - 2] += c * x
    return StarSequence(n=g.n, s1=g.m, higher=tuple(higher))


def _binomial_row(d: int) -> list[int]:
    """C(d, 2), ..., C(d, d) by C(d, k) = C(d, k-1) (d-k+1) / k; empty for d < 2."""
    row = [d]
    for k in range(2, d + 1):
        row.append(row[-1] * (d - k + 1) // k)
    return row[1:]


def star_from_frequency(f: FrequencySequence) -> StarSequence:
    """Star counts from a frequency sequence.

    2*S_1 = sum_i i*f_i (so the weighted sum must be even) and
    S_k = sum_{i>=k} C(i, k) * f_i for k >= 2.  f_i = 0 past the maximum
    degree, so both the sums and the nonzero S_k stop there.
    """
    n = f.n
    doubled = sum(i * fi for i, fi in enumerate(f.counts))
    if doubled % 2:
        raise InconsistentSequenceError(
            "sum of i * f_i is odd; no graph has this frequency sequence"
        )
    delta = _max_degree(f)
    higher = [0] * max(0, n - 2)
    for k in range(2, delta + 1):
        higher[k - 2] = sum(binomial(i, k) * f.counts[i] for i in range(k, delta + 1))
    return StarSequence(n=n, s1=doubled // 2, higher=tuple(higher))


def frequency_from_star(s: StarSequence) -> FrequencySequence:
    """Invert star counts back into a frequency sequence.

    f_i = sum_{k>=i} (-1)^(k-i) C(k, i) S_k for i >= 2, while the
    degree-one count picks up the doubled first entry:
    f_1 = 2*S_1 + sum_{k>=2} (-1)^(k-1) k S_k, which is
    alternating_moment(s, 1).  Whatever vertex count is left over is f_0.
    Any negative intermediate means the input matches no simple graph.
    S_k = 0 past s.top, so both sums stop there.
    """
    n, top = s.n, s.top
    counts = [0] * n
    for i in range(2, top + 1):
        counts[i] = sum(
            (-1) ** (k - i) * binomial(k, i) * s.entry(k) for k in range(i, top + 1)
        )
    if n >= 2:
        counts[1] = alternating_moment(s, 1)
    counts[0] = n - sum(counts[1:])
    for i, c in enumerate(counts):
        if c < 0:
            raise InconsistentSequenceError(f"star counts force f_{i} = {c} < 0")
    return FrequencySequence(tuple(counts))


def alternating_moment(s: StarSequence, m: int) -> int:
    """2*S_1 + sum_{i>=2} (-1)^(i-1) i^m S_i.

    At m = 0 this is the number of non-isolated vertices.
    """
    if m < 0:
        raise ValueError("moment exponent must be non-negative")
    return s.adjusted_first + sum(
        (-1) ** (i - 1) * i**m * s.entry(i) for i in range(2, s.top + 1)
    )


def moment_identity_rhs(f: FrequencySequence, m: int) -> int:
    """Frequency-side moment sum: sum_{k=1..m} (-1)^(k-1) k! {m, k} f_k.

    f_k vanishes past the maximum degree, so k stops at min(m, max degree).
    Defined for m >= 1.  The m = 0 case degenerates to the plain count of
    non-isolated vertices, which alternating_moment already yields.
    """
    if m < 1:
        raise ValueError("moment exponent must be at least 1 on the frequency side")
    row = surjection_row(m, min(m, _max_degree(f)))
    return sum((-1) ** (k - 1) * row[k] * f.counts[k] for k in range(1, len(row)))


def inverse_degree_edge_sum(g: Graph) -> Fraction:
    """sum over edges uv of (1/deg(u) + 1/deg(v)), as an exact rational.

    Equals n - f_0: each non-isolated vertex v contributes deg(v) terms of
    1/deg(v), one per incident edge.  Each edge uv adds L/deg(u) + L/deg(v),
    integers over L, the lcm of the nonzero degrees, divided once.
    """
    # Loaded here: no other library route needs rationals.
    from fractions import Fraction

    degrees = g.vertex_degrees
    lcm = math.lcm(*filter(None, degrees))
    inverses = {d: lcm // d for d in set(degrees) if d}
    return Fraction(sum([inverses[degrees[u]] + inverses[degrees[v]] for u, v in g.edges]), lcm)


def isolated_count_from_star(s: StarSequence) -> int:
    """f_0 recovered from star counts alone: n minus the m = 0 moment."""
    f0 = s.n - alternating_moment(s, 0)
    if f0 < 0:
        raise InconsistentSequenceError(f"star counts force f_0 = {f0} < 0")
    return f0


def classify(s: StarSequence) -> Classification:
    """Recognize paths and k-regular graphs from star counts alone.

    A path has S_1 = n-1, S_2 = n-2 and nothing above; a k-regular graph
    has S_i = C(k, i) * S_k up to the largest nonzero index k, with
    2*S_1 = k * S_k.  P_2 satisfies both tests and reports as a path.
    For k >= 2 the test ignores isolated vertices (K_3 + K_1 is regular(2)),
    but regular(1) needs 2*S_1 = n, so K_2 + K_1 is other.
    """
    if s.n < 2:
        raise ValueError("classification needs at least two vertices")
    n = s.n
    if s.s1 == n - 1 and s.entry(2) == n - 2 and s.top <= 2:
        return Classification("path")
    k = s.top
    if k < 2:
        if s.s1 > 0 and s.adjusted_first == n:
            return Classification("regular", 1)
        return Classification("other")
    sk = s.entry(k)
    if s.adjusted_first != k * sk:
        return Classification("other")
    for i in range(2, k):
        if s.entry(i) != binomial(k, i) * sk:
            return Classification("other")
    return Classification("regular", k)
