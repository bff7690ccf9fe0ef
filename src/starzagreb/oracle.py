"""Brute-force ground truth and the all-identities verifier.

Star counts are recounted here by enumeration: the subsets of each
center's neighbours are walked once and tallied by size into one packed
integer.  Labeled graphs are enumerated exhaustively, and the
generating function is expanded by exact long division.
verify_all_identities replays every identity in the library against those
independent routes; a report that says pass has every residual
identically zero, and disputed sign or index variants are evaluated both
ways and recorded as erratum notes instead of failures.  The identities
that read a graph only through its frequency sequence compute their
ground truth once: one table of direct Z_p values and one row of each
moment side, shared by every check and note.  sweep_reports yields the
same reports for every labeled graph on n vertices, evaluating those
identities once per distinct degree profile.  Since the star sequence
and f determine each other, only the edge sum and the brute-force star
counts read more of a graph than its profile.  So one memo maps a graph's
sweep key, its sorted degrees with those two values as integers, to its
results, finished once in the form the caller keeps: sweep_reports keeps
the results, the CLI their rendered text.  Before the first mask, a
Havel-Hakimi realization of each profile fills it.  Per graph, the sweep
keeps the neighbour bitmasks, degrees and edges up to date from one mask
to the next and runs the two per-graph checks' cores on them, as
integers: the edge sum over the fixed scale lcm(1..n-1), and the star
counts as a sum of the neighbour masks' subset histograms, read from a
table that each mask range fills by walking every possible neighbour
mask's subsets once.  A key the memo lacks is evaluated on its graph and
filled in.  Worker processes are sent the prefilled memo, each sweeping
a range of masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice
from typing import Callable, Iterable, Iterator, Sequence

from .combinatorics import falling_factorial_coeffs, stirling1_rows
from .graph import FrequencySequence, Graph, to_graph6
from .star import (
    StarSequence,
    _edge_sum_numerator,
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
    "MAX_VERIFY_EXPONENT",
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
# The largest p_max and m_max, whose cost grows as their square.  On n
# vertices the exponents past n - 1 test nothing new (Vandermonde on the
# degrees), and this is at least max(8, 2n) for every n verify accepts.
MAX_VERIFY_EXPONENT = 2 * MAX_BRUTEFORCE_N


def star_counts_bruteforce(g: Graph) -> tuple[int, ...]:
    """(S_1, ..., S_{n-1}) counted by enumerating every star of g.

    No binomial coefficients and no degree tallies are involved: each
    center's mask gains one bit per edge met, bit i standing for its i-th
    neighbour, so a center of d neighbours has the mask (1 << d) - 1.  Its
    subsets are walked once by _subset_histogram and tallied by size.  No
    walk is shared, so the cost is the sum over v of 2^deg(v), whatever n.
    """
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] = masks[u] << 1 | 1
        masks[v] = masks[v] << 1 | 1
    width = _star_field_width(g.n, max(masks).bit_length())
    packed = _packed_star_counts(masks, partial(_subset_histogram, width=width))
    return _unpack_star_counts(packed, g.n, width)


def _neighbour_masks(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Bit v of entry u is set when the edge (u, v) or (v, u) is listed."""
    nbrs = [0] * n
    for u, v in edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    return nbrs


def _star_field_width(n: int, delta: int) -> int:
    """Bits per field of a packed star-count histogram on n vertices of
    degree at most delta.

    Field k tallies the (center, k neighbours) pairs, at most
    n * C(delta, k) < n * 2^delta, so it never carries into field k + 1.
    The sweep's table takes delta = n - 1, the largest degree possible.
    """
    return (n << delta).bit_length()


def _subset_histogram(mask: int, width: int) -> int:
    """The non-empty subsets of mask tallied by size, packed: bits
    k*width up to (k+1)*width hold how many have k elements."""
    counts = [0] * (mask.bit_count() + 1)
    sub = mask
    while sub:
        counts[sub.bit_count()] += 1
        sub = (sub - 1) & mask
    packed = 0
    for count in reversed(counts):
        packed = packed << width | count
    return packed


def _packed_star_counts(nbrs: Iterable[int], histogram: Callable[[int], int]) -> int:
    """The raw star counts of a graph, from one mask per center with one
    bit per neighbour, packed as _subset_histogram packs them.

    A K_{1,k} is a center plus k of its neighbours, so field k sums the
    k-subsets of every neighbour mask: histogram(mask) is
    _subset_histogram's value for mask, walked on the spot or read from a
    table.  Field 1 counts each edge from both ends.
    """
    return sum(map(histogram, nbrs))


def _unpack_star_counts(packed: int, n: int, width: int) -> tuple[int, ...]:
    """(S_1, ..., S_{n-1}) from _packed_star_counts's value.  For k = 1 the
    two center choices of an edge describe the same subgraph, so that
    count is halved."""
    field = (1 << width) - 1
    counts = [packed >> k * width & field for k in range(1, n)]
    if counts:
        counts[0] //= 2
    return tuple(counts)


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
    pairs in lexicographic order, so the stream order is a fixed contract.
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
    if not 1 <= p_max <= MAX_VERIFY_EXPONENT:
        raise ValueError(f"p_max must be between 1 and MAX_VERIFY_EXPONENT = {MAX_VERIFY_EXPONENT}")
    if not 0 <= m_max <= MAX_VERIFY_EXPONENT:
        raise ValueError(f"m_max must be between 0 and MAX_VERIFY_EXPONENT = {MAX_VERIFY_EXPONENT}")


def verify_all_identities(
    g: Graph, p_max: int = 8, m_max: int = 4, graph_id: str = ""
) -> TheoremReport:
    """Replay every identity against brute-force or direct evaluation.

    All comparisons are exact and every residual is (claimed - ground
    truth).  Failures land in the report, not in exceptions; two runs over
    the same graph produce identical reports.  Graphs with more than
    MAX_BRUTEFORCE_N vertices are refused with ValueError, since the
    brute-force star counts visit up to n * 2^(n-1) neighbour subsets; so
    are p_max and m_max above MAX_VERIFY_EXPONENT.
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


def _realize(n: int, degrees: Sequence[int]) -> Graph | None:
    """A graph in which vertex i has degree degrees[i], or None if none has.

    Havel-Hakimi: the vertex of largest remaining degree d is joined to the
    d others of largest remaining degree, until every degree is used up.
    """
    left = list(degrees)
    edges = []
    for _ in range(n):
        v = max(range(n), key=left.__getitem__)
        d, left[v] = left[v], 0
        others = sorted((u for u in range(n) if left[u]), key=left.__getitem__, reverse=True)
        if len(others) < d:
            return None
        for u in others[:d]:
            left[u] -= 1
            edges.append((min(u, v), max(u, v)))
    return Graph(n, frozenset(edges))


def _evaluate_key(g: Graph, key: tuple, p_max: int, m_max: int) -> tuple:
    """_profile_part of g on the two per-graph values in its sweep key: the
    edge-sum numerator over lcm(1..n-1) and the packed star counts."""
    n, (_, num, packed) = g.n, key
    counts = _unpack_star_counts(packed, n, _star_field_width(n, n - 1))
    return _profile_part(g, Fraction(num, math.lcm(*range(1, n))), counts, p_max, m_max)


def _profile_memo(n: int, p_max: int, m_max: int, finish=lambda result: result) -> dict:
    """A sweep memo prefilled with every degree profile on n vertices.

    It maps a graph's sweep key, as _mask_keys gives a mask's, to finish of
    that graph's (theorems, errata).  Each non-increasing degree sequence
    that Havel-Hakimi realizes is one profile, filled in from its
    realization.  Equal results are kept once: every passing profile's
    graphs share one theorems tuple.
    """
    _check_limits(p_max, m_max)
    _vertex_pairs(n)  # refuses n outside 1..MAX_ENUM_N
    scale, width = math.lcm(*range(1, n)), _star_field_width(n, n - 1)
    inverses = [0, *(scale // d for d in range(1, n))]
    histogram = partial(_subset_histogram, width=width)
    memo: dict[tuple, object] = {}
    # Profiles whose checks all hold yield equal results, label for label,
    # so each distinct result is kept once, with one cached pass status.
    results: dict[TheoremResult, TheoremResult] = {}
    for degrees in combinations_with_replacement(range(n - 1, -1, -1), n):
        g = _realize(n, degrees)
        if g is not None:
            num = _edge_sum_numerator(g.vertex_degrees, g.edges, inverses)
            packed = _packed_star_counts(_neighbour_masks(n, g.edges), histogram)
            key = (tuple(sorted(degrees)), num, packed)
            theorems, errata = _evaluate_key(g, key, p_max, m_max)
            theorems = tuple(results.setdefault(r, r) for r in theorems)
            memo[key] = finish((theorems, errata))
    return memo


def _mask_keys(n: int, start: int, stop: int) -> Iterator[tuple[int, tuple]]:
    """(mask, (sorted degrees, edge-sum numerator, packed star counts)) for
    the labeled graphs with masks start..stop-1.

    The two per-graph values are computed without a Graph and without a
    Fraction, by the cores of the two per-graph checks: the edge sum by
    _edge_sum_numerator over the fixed scale L = lcm(1..n-1), and the raw
    star counts by _packed_star_counts, reading each neighbour mask's
    subset histogram from a table.  The table is built here, once per
    range, by walking the subsets of every one of the 2^n possible
    neighbour masks once: 3^n subset visits, 2,187 at n = 7.  The
    neighbour bitmasks, the degrees and the edges, in bit order, are kept
    up to date from one mask to the next.  mask + 1 clears the trailing run
    of set bits of mask and sets the bit above it, so about two pairs
    toggle per step.
    """
    pairs = _vertex_pairs(n)
    scale, width = math.lcm(*range(1, n)), _star_field_width(n, n - 1)
    inverses = [0, *(scale // d for d in range(1, n))]
    histograms = [_subset_histogram(nbr, width) for nbr in range(1 << n)]
    edges = [pair for i, pair in enumerate(pairs) if start >> i & 1]
    nbrs = _neighbour_masks(n, edges)
    degrees = [nbr.bit_count() for nbr in nbrs]
    for mask in range(start, stop):
        if mask > start:
            # mask - 1 ends in t set bits, its first t edges: clear them,
            # then set bit t.
            t = (mask & -mask).bit_length() - 1
            for u, v in edges[:t]:
                nbrs[u] ^= 1 << v
                nbrs[v] ^= 1 << u
                degrees[u] -= 1
                degrees[v] -= 1
            u, v = pairs[t]
            nbrs[u] ^= 1 << v
            nbrs[v] ^= 1 << u
            degrees[u] += 1
            degrees[v] += 1
            edges[:t] = (pairs[t],)
        yield mask, (
            tuple(sorted(degrees)),
            _edge_sum_numerator(degrees, edges, inverses),
            _packed_star_counts(nbrs, histograms.__getitem__),
        )


def _sweep_masks(
    n: int, start: int, stop: int, memo: dict, p_max: int, m_max: int, finish=lambda result: result
) -> Iterator[object]:
    """The memo entries of the labeled graphs with masks start..stop-1, in
    mask order: finish applied to the (theorems, errata) of each report.

    memo maps sweep keys to entries, as _profile_memo fills it with the
    same finish.  A mask's key from _mask_keys fixes every input that
    _profile_part reads, so the mask shares the entry of its key.  On a
    miss, that graph is built, evaluated on its own key and finished, and
    the entry is stored in memo for every later mask with that key.
    """
    for mask, key in _mask_keys(n, start, stop):
        entry = memo.get(key)
        if entry is None:
            g = labeled_graph_from_mask(n, mask)
            entry = memo[key] = finish(_evaluate_key(g, key, p_max, m_max))
        yield entry


def sweep_reports(n: int, *, p_max: int = 8, m_max: int = 4) -> Iterator[TheoremReport]:
    """Reports for every labeled graph on n vertices, in mask order.

    Each report equals verify_all_identities(labeled_graph_from_mask(n, mask),
    p_max, m_max, graph_id=f"n={n}:mask={mask}").  The checks that read a
    graph only through its degree profile (its sorted degrees, which carry
    the same information as f) run once per profile, on a realization of it,
    before the first mask.  Per graph, only the edge sum and the brute-force
    star counts run, as integers on neighbour bitmasks kept up to date from
    mask to mask: the star counts sum the neighbour masks' subset
    histograms, each walked once per sweep into a table of all 2^n masks.
    A graph whose sweep key is in the memo shares its entry and builds no
    Graph; a new key is evaluated once, on its first graph, and stored for
    the rest of the sweep.  itertools.islice reads part of a sweep;
    the masks it skips are still swept.
    """
    memo = _profile_memo(n, p_max, m_max)
    for mask, entry in enumerate(_sweep_masks(n, 0, 1 << (n * (n - 1) // 2), memo, p_max, m_max)):
        yield TheoremReport(f"n={n}:mask={mask}", n, mask.bit_count(), p_max, m_max, *entry)
