"""Brute-force ground truth and the all-identities verifier.

Star counts are recounted here by enumeration, in one pass per center over
the subsets of its neighbourhood.  Labeled graphs are enumerated
exhaustively, and the generating function is expanded by exact long
division.  verify_all_identities replays every identity in the library
against those independent routes; a report that says pass has every
residual identically zero, and disputed sign or index variants are
evaluated both ways and recorded as erratum notes instead of failures.
The identities that read a graph only through its frequency sequence
compute their ground truth once: one table of direct Z_p values and one
row of each moment side, shared by every check and note.  sweep_reports
yields the same reports for a range of labeled graphs, evaluating those
identities once per distinct degree profile.  The edge sum and the
brute-force star counts still run on every graph; together with the
profile they fix every theorem, so one memo per sweep, keyed on the
profile and those two values, hands the graphs of a passing profile one
theorems tuple, with each result's pass status computed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, islice
from typing import Iterator, Sequence

from .combinatorics import falling_factorial_coeffs, stirling1_rows
from .graph import FrequencySequence, Graph, to_graph6
from .star import (
    StarSequence,
    alternating_moment,
    frequency_from_star,
    inverse_degree_edge_sum,
    isolated_count_from_star,
    moment_identity_rhs,
    star_from_frequency,
    star_sequence,
)
from .zagreb import (
    genfunc_numerator,
    verify_recurrence,
    zagreb_by_recurrence,
    zagreb_direct,
    zagreb_from_stars,
)

__all__ = [
    "MAX_ENUM_N",
    "MAX_BRUTEFORCE_N",
    "TheoremCheck",
    "TheoremResult",
    "ErratumNote",
    "TheoremReport",
    "count_stars_bruteforce",
    "star_counts_bruteforce",
    "all_labeled_graphs",
    "labeled_graph_from_mask",
    "series_expand_rational",
    "sweep_reports",
    "verify_all_identities",
]

MAX_ENUM_N = 7
# verify_all_identities counts stars by walking every subset of each
# vertex's neighbourhood, up to n * 2^(n-1) subsets: about 1.4 s for K_20,
# the worst case, and about 4.4 times longer per two more vertices.
MAX_BRUTEFORCE_N = 20


def star_counts_bruteforce(g: Graph) -> tuple[int, ...]:
    """(S_1, ..., S_{n-1}) counted by enumerating every star of g.

    A K_{1,k} is a center plus k of its neighbours, so each vertex's
    non-empty neighbour subsets are walked once and bucketed by size.  No
    binomial coefficients and no degree tallies are involved: the
    neighbourhoods come from the edges alone.  For k = 1 the two center
    choices of an edge describe the same subgraph, so that count is halved.
    """
    nbrs = [0] * g.n
    for u, v in g.edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    counts = [0] * (g.n + 1)
    for mask in nbrs:
        sub = mask
        while sub:
            counts[sub.bit_count()] += 1
            sub = (sub - 1) & mask
    counts[1] //= 2
    return tuple(counts[1:g.n])


def count_stars_bruteforce(g: Graph, k: int) -> int:
    """The number of K_{1,k} subgraphs of g, from star_counts_bruteforce."""
    if not 1 <= k <= g.n - 1:
        raise ValueError(f"star size k must be in [1, n-1]; got k = {k} with n = {g.n}")
    return star_counts_bruteforce(g)[k - 1]


def _vertex_pairs(n: int) -> list[tuple[int, int]]:
    """The C(n, 2) vertex pairs in lexicographic order, for 1 <= n <= MAX_ENUM_N."""
    if not 1 <= n <= MAX_ENUM_N:
        raise ValueError(f"exhaustive enumeration supports 1 <= n <= {MAX_ENUM_N}")
    return list(combinations(range(n), 2))


def _graph_from_mask(n: int, pairs: list[tuple[int, int]], mask: int) -> Graph:
    return Graph(n, frozenset(pair for i, pair in enumerate(pairs) if mask >> i & 1))


def labeled_graph_from_mask(n: int, mask: int) -> Graph:
    """The labeled graph whose edge set is the given bitmask over vertex
    pairs in lexicographic order: bit 0 is (0,1), bit 1 is (0,2), ...
    """
    # Only the pairs up to the mask's top bit are listed, so a sparse mask
    # costs nothing per vertex pair.
    if mask < 0 or mask.bit_length() > n * (n - 1) // 2:
        raise ValueError(f"mask out of range for n = {n}")
    pairs = list(islice(combinations(range(n), 2), mask.bit_length()))
    return _graph_from_mask(n, pairs, mask)


def all_labeled_graphs(n: int) -> Iterator[Graph]:
    """Yield every labeled simple graph on n vertices exactly once.

    Edge subsets appear as increasing bitmasks over the C(n, 2) vertex
    pairs in lexicographic order, so the stream order is a fixed contract
    and the enumeration can be partitioned across workers by mask range.
    """
    pairs = _vertex_pairs(n)
    for mask in range(1 << len(pairs)):
        yield _graph_from_mask(n, pairs, mask)


def series_expand_rational(numerator: Sequence[int], n: int, terms: int) -> list[int]:
    """First power-series coefficients of numerator(t) / prod_{j=1..n} (1 - j t).

    Exact long division: with denominator coefficients c_0..c_n (c_0 = 1),
    z_p = numerator_p - sum_{i=1..min(p,n)} c_i z_{p-i}.
    """
    if n < 1:
        raise ValueError("denominator needs at least one factor")
    if terms < 0:
        raise ValueError("cannot expand a negative number of terms")
    c = falling_factorial_coeffs(n)
    out: list[int] = []
    for p in range(terms):
        acc = numerator[p] if p < len(numerator) else 0
        for q in range(max(0, p - n), p):
            acc -= c[p - q] * out[q]
        out.append(acc)
    return out


@dataclass(frozen=True, slots=True)
class TheoremCheck:
    """One exact comparison: residual = claimed value minus ground truth."""

    label: str
    residual: int | Fraction

    @property
    def holds(self) -> bool:
        return self.residual == 0


@dataclass(frozen=True)
class TheoremResult:
    """All checks run for one identity family on one graph."""

    name: str
    checks: tuple[TheoremCheck, ...]

    # Cached: a sweep shares one result among every graph of a degree
    # profile, so the status is computed once per profile.
    @cached_property
    def passed(self) -> bool:
        return all(c.holds for c in self.checks)

    @property
    def failures(self) -> tuple[TheoremCheck, ...]:
        return tuple(c for c in self.checks if not c.holds)


@dataclass(frozen=True)
class ErratumNote:
    """Both readings of a disputed sign or index, evaluated side by side.

    triggered means the two variants actually disagree on this graph; the
    witness then pins the first parameter where that happens.  Notes are
    observations, never failures.
    """

    note_id: str
    description: str
    triggered: bool
    witness: dict[str, str] | None


@dataclass(frozen=True)
class TheoremReport:
    """Deterministic per-graph verification report; no clocks, no floats."""

    graph_id: str
    n: int
    m: int
    p_max: int
    m_max: int
    theorems: tuple[TheoremResult, ...]
    errata: tuple[ErratumNote, ...]

    # Cached, as TheoremResult.passed is: rendering a report and tallying
    # the verify summary each read both.
    @cached_property
    def passed(self) -> bool:
        return all(t.passed for t in self.theorems)

    @cached_property
    def check_count(self) -> int:
        return sum(len(t.checks) for t in self.theorems)

    def failures(self) -> list[tuple[str, TheoremCheck]]:
        return [(t.name, c) for t in self.theorems for c in t.failures]


def _moment_sign_note(lhs: Sequence[int], rhs: Sequence[int]) -> ErratumNote:
    """lhs[m] is the alternating moment for m = 0..m_max, rhs[m-1] the
    frequency-side sum for m = 1..m_max."""
    description = (
        "moment identity right side: sign variant (-1)^k versus (-1)^(k-1) "
        "on the frequency-side sum; only the latter matches the star side"
    )
    for m_exp, corrected in enumerate(rhs, start=1):
        flipped = -corrected
        if flipped != corrected:
            return ErratumNote(
                "moment_rhs_sign",
                description,
                True,
                {
                    "m": str(m_exp),
                    "lhs": str(lhs[m_exp]),
                    "rhs_sign_k": str(flipped),
                    "rhs_sign_k_minus_1": str(corrected),
                },
            )
    return ErratumNote("moment_rhs_sign", description, False, None)


def _f1_sign_note(s: StarSequence, f: FrequencySequence) -> ErratumNote:
    description = (
        "degree-one inversion term: sign exponent on k*S_k read as (-1)^(k-1) "
        "versus (-1)^k; the variants split whenever some S_k with k >= 2 is nonzero"
    )
    # The two readings differ only in the sign of the tail over k >= 2.
    tail = sum((-1) ** (k - 1) * k * s.entry(k) for k in range(2, s.top + 1))
    corrected = s.adjusted_first + tail
    flipped = s.adjusted_first - tail
    if flipped != corrected:
        return ErratumNote(
            "f1_term_sign",
            description,
            True,
            {
                "f1": str(f.f(1)),
                "sign_k_minus_1": str(corrected),
                "sign_k": str(flipped),
            },
        )
    return ErratumNote("f1_term_sign", description, False, None)


def _recurrence_index_note(n: int, z: Sequence[int], p_max: int) -> ErratumNote:
    """z holds Z_0..Z_{n+p_max} at least."""
    description = (
        "recurrence coefficient index: s(n+1, n+1-i) tied to the vertex count "
        "versus s(p+1, p+1-i) tied to the exponent; only the former leaves "
        "zero residuals past p = n"
    )
    # rows yields s(q, 0..q) from q = n+1: first the vertex-count row, then
    # s(p+1, 0..p+1) for p = n+1, n+2, ..., one row per exponent.
    rows = islice(stirling1_rows(), n + 1, None)
    by_n = next(rows)
    for p, row in zip(range(n + 1, n + p_max + 1), rows):
        by_exponent = z[p] + sum(row[p + 1 - i] * z[p - i] for i in range(1, n + 1))
        by_vertex_count = z[p] + sum(by_n[n + 1 - i] * z[p - i] for i in range(1, n + 1))
        if by_exponent != by_vertex_count:
            return ErratumNote(
                "recurrence_index_base",
                description,
                True,
                {
                    "p": str(p),
                    "residual_exponent_indexed": str(by_exponent),
                    "residual_vertex_indexed": str(by_vertex_count),
                },
            )
    return ErratumNote("recurrence_index_base", description, False, None)


def _profile_part(
    g: Graph, edge_sum: Fraction, counts: tuple[int, ...], p_max: int, m_max: int
) -> tuple[tuple[TheoremResult, ...], tuple[ErratumNote, ...]]:
    """The theorems and erratum notes of g's report, in report order.

    Every check reads g only through its frequency sequence f, except two
    that compare the per-graph values passed in: the inverse-degree edge
    sum and the brute-force star counts.  So the results are the same for
    every graph with that f and those two values.

    The ground truth is computed once: one table of Z_p by direct powers
    and one row each of the two moment sides.  Every check and erratum
    note reads those values, while each library route under test is still
    called on its own.
    """
    n, f = g.n, g.frequency
    s = star_sequence(g)
    terms = max(p_max + 1, 2 * n + 10)
    z = [zagreb_direct(g, q) for q in range(max(terms, n + p_max + 1))]
    lhs = [alternating_moment(s, m_exp) for m_exp in range(m_max + 1)]
    rhs = [moment_identity_rhs(f, m_exp) for m_exp in range(1, m_max + 1)]
    theorems = []

    # Inversion: formula-route star counts against degree counting, and back.
    s_from_f = star_from_frequency(f)
    checks = [TheoremCheck("S1", s_from_f.s1 - s.s1)]
    for k in range(2, n):
        checks.append(TheoremCheck(f"S{k}", s_from_f.entry(k) - s.entry(k)))
    f_from_s = frequency_from_star(s)
    for i in range(n):
        checks.append(TheoremCheck(f"f{i}", f_from_s.f(i) - f.f(i)))
    theorems.append(TheoremResult("inversion", tuple(checks)))

    # Alternating moments against the frequency-side sums.
    checks = [TheoremCheck("m=0", lhs[0] - sum(f.counts[1:]))]
    for m_exp, right in enumerate(rhs, start=1):
        checks.append(TheoremCheck(f"m={m_exp}", lhs[m_exp] - right))
    theorems.append(TheoremResult("moments", tuple(checks)))

    # The inverse-degree edge sum counts the non-isolated vertices, and the
    # star route the isolated ones.
    checks = [
        TheoremCheck("edge_sum", edge_sum - (n - f.isolated)),
        TheoremCheck("f0_from_stars", isolated_count_from_star(s) - f.isolated),
    ]
    theorems.append(TheoremResult("inverse_degree_sum", tuple(checks)))

    # Star-route Zagreb values against direct powers.
    checks = [
        TheoremCheck(f"p={p}", zagreb_from_stars(s, p) - z[p]) for p in range(1, p_max + 1)
    ]
    theorems.append(TheoremResult("zagreb_from_stars", tuple(checks)))

    # Generating function: long-division series against direct values, plus
    # both endpoint coefficients.
    gf = genfunc_numerator(g)
    series = series_expand_rational(gf.numerator, n, terms)
    checks = [TheoremCheck(f"series_p={p}", series[p] - z[p]) for p in range(terms)]
    checks.append(TheoremCheck("a0", gf.numerator[0] - n))
    checks.append(
        TheoremCheck(
            "a_top",
            gf.numerator[n] - (-1) ** n * math.factorial(n) * f.isolated,
        )
    )
    theorems.append(TheoremResult("genfunc", tuple(checks)))

    # Order-n recurrence: the boundary residual must equal the top numerator
    # coefficient, everything past it must vanish (both in the paper's
    # Stirling form), and the factored route must reproduce direct values.
    checks = []
    for item in verify_recurrence(g, n, n + p_max):
        expected = gf.numerator[n] if item.p == n else 0
        checks.append(TheoremCheck(f"residual_p={item.p}", item.residual - expected))
    for p in range(1, p_max + 1):
        checks.append(TheoremCheck(f"route_p={p}", zagreb_by_recurrence(g, p) - z[p]))
    theorems.append(TheoremResult("recurrence", tuple(checks)))

    # Enumerated star counts against the degree formula.
    checks = [TheoremCheck(f"k={k}", c - s.entry(k)) for k, c in enumerate(counts, start=1)]
    theorems.append(TheoremResult("star_bruteforce", tuple(checks)))

    errata = (
        _moment_sign_note(lhs, rhs),
        _f1_sign_note(s, f),
        _recurrence_index_note(n, z, p_max),
    )
    return tuple(theorems), errata


def _check_limits(p_max: int, m_max: int) -> None:
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    if m_max < 0:
        raise ValueError("m_max must be non-negative")


def verify_all_identities(
    g: Graph, p_max: int = 8, m_max: int = 4, graph_id: str = ""
) -> TheoremReport:
    """Replay every identity against brute-force or direct evaluation.

    All comparisons are exact and every residual is (claimed - ground
    truth).  Failures land in the report, not in exceptions; two runs over
    the same graph produce identical reports.  Graphs with more than
    MAX_BRUTEFORCE_N vertices are refused with ValueError, since the
    brute-force star counts visit up to n * 2^(n-1) neighbour subsets.
    """
    _check_limits(p_max, m_max)
    if g.n > MAX_BRUTEFORCE_N:
        raise ValueError(
            f"n = {g.n} is above the brute-force limit of {MAX_BRUTEFORCE_N} vertices: "
            "verify counts stars over up to n * 2^(n-1) neighbour subsets"
        )
    theorems, errata = _profile_part(
        g, inverse_degree_edge_sum(g), star_counts_bruteforce(g), p_max, m_max
    )
    return TheoremReport(graph_id or to_graph6(g), g.n, g.m, p_max, m_max, theorems, errata)


def sweep_reports(
    n: int, start: int = 0, stop: int | None = None, *, p_max: int = 8, m_max: int = 4
) -> Iterator[TheoremReport]:
    """Reports for the labeled graphs with masks start..stop-1, in mask order.

    Each report equals verify_all_identities(labeled_graph_from_mask(n, mask),
    p_max, m_max, graph_id=f"n={n}:mask={mask}").  The checks that read a
    graph only through its degree profile (its sorted degrees, which carry
    the same information as f) run once per distinct profile in the range;
    the edge sum and the brute-force star counts run on every graph.  One
    memo, keyed on the profile and those two values, maps each key to its
    theorems and errata, so the graphs of a passing profile share one
    theorems tuple; a per-graph failure is a key of its own.  The memo
    lives only as long as the generator.
    """
    _check_limits(p_max, m_max)
    pairs = _vertex_pairs(n)
    nmasks = 1 << len(pairs)
    if stop is None:
        stop = nmasks
    if not 0 <= start <= stop <= nmasks:
        raise ValueError(f"mask range [{start}, {stop}) out of range for n = {n}")
    # (sorted degrees, edge sum, brute-force star counts) -> (theorems, errata)
    memo: dict[tuple, tuple] = {}
    # Profiles whose checks all hold yield equal results, label for label,
    # so each distinct result is kept once, with one cached pass status.
    results: dict[TheoremResult, TheoremResult] = {}
    for mask in range(start, stop):
        g = _graph_from_mask(n, pairs, mask)
        edge_sum = inverse_degree_edge_sum(g)
        counts = star_counts_bruteforce(g)
        key = (tuple(sorted(g.vertex_degrees)), edge_sum, counts)
        entry = memo.get(key)
        if entry is None:
            theorems, errata = _profile_part(g, edge_sum, counts, p_max, m_max)
            theorems = tuple(results.setdefault(r, r) for r in theorems)
            entry = memo[key] = (theorems, errata)
        yield TheoremReport(f"n={n}:mask={mask}", n, g.m, p_max, m_max, *entry)
