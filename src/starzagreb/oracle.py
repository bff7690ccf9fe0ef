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
sweep key, one integer packing its frequency vector and those two values,
to its results, finished once in the form the caller keeps:
sweep_reports keeps the results, the CLI their rendered text.  Only
_mask_keys builds a sweep key, as stars are counted, by their centres: a
key is the sum over the vertices of one table entry per neighbour mask.
The memo starts empty: a key it lacks is evaluated on the first graph
that has it and, up to a cap, filled in.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache, cached_property, partial
from fractions import Fraction
from itertools import combinations, islice
from operator import add
from typing import Callable, Iterable, Iterator, Sequence

from .combinatorics import falling_factorial_coeffs, stirling1_rows
from .graph import (
    MAX_BRUTEFORCE_N,
    MAX_ENUM_N,
    MAX_VERIFY_EXPONENT,
    FrequencySequence,
    Graph,
    _Value,
    to_graph6,
)
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

# The most entries a sweep memo holds: every profile, 342 at n = 7, plus
# the keys a faulty library adds.
SWEEP_MEMO_CAP = 1 << 12


def star_counts_bruteforce(g: Graph) -> tuple[int, ...]:
    """(S_1, ..., S_{n-1}) counted by enumerating every star of g.

    No binomial coefficients and no degree tallies are involved: each
    center's mask gains one bit per edge met, bit i standing for its i-th
    neighbour, so a center of d neighbours has the mask (1 << d) - 1.  The
    subsets of each distinct mask are walked once by _subset_histogram,
    tallied by size, and that tally is counted once per center with the
    mask, so the cost is the sum of 2^d over the distinct degrees d.
    """
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] = masks[u] << 1 | 1
        masks[v] = masks[v] << 1 | 1
    width = _star_field_width(g.n, max(masks).bit_length())
    packed = sum(c * _subset_histogram(mask, width) for mask, c in Counter(masks).items())
    return _unpack_star_counts(packed, g.n, width)


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


def _unpack_star_counts(packed: int, n: int, width: int) -> tuple[int, ...]:
    """(S_1, ..., S_{n-1}) from the sum of _subset_histogram over one mask
    per center with one bit per neighbour.  A K_{1,k} is a center plus k
    of its neighbours, so field k of that sum counts them; for k = 1 the
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


class TheoremCheck(_Value):
    """One exact comparison: residual = claimed value minus ground truth."""

    _fields = ("label", "residual")

    def __init__(self, label: str, residual: int | Fraction) -> None:
        self.__dict__.update(label=label, residual=residual)

    @property
    def holds(self) -> bool:
        return self.residual == 0


class TheoremResult(_Value):
    """All checks run for one identity family on one graph."""

    _fields = ("name", "checks")

    def __init__(self, name: str, checks: tuple[TheoremCheck, ...]) -> None:
        self.__dict__.update(name=name, checks=checks)

    # Cached: a sweep shares one result among every graph of a degree
    # profile, so the status is computed once per profile.
    @cached_property
    def passed(self) -> bool:
        return all(c.holds for c in self.checks)

    @property
    def failures(self) -> tuple[TheoremCheck, ...]:
        return tuple(c for c in self.checks if not c.holds)


class ErratumNote(_Value):
    """Both readings of a disputed sign or index, evaluated side by side.

    triggered means the two variants actually disagree on this graph; the
    witness then pins the first parameter where that happens.  Notes are
    observations, never failures.
    """

    _fields = ("note_id", "description", "triggered", "witness")

    def __init__(
        self, note_id: str, description: str, triggered: bool, witness: dict[str, str] | None
    ) -> None:
        self.__dict__.update(
            note_id=note_id, description=description, triggered=triggered, witness=witness
        )


class TheoremReport(_Value):
    """Deterministic per-graph verification report; no clocks, no floats."""

    _fields = ("graph_id", "n", "m", "p_max", "m_max", "theorems", "errata")

    def __init__(
        self,
        graph_id: str,
        n: int,
        m: int,
        p_max: int,
        m_max: int,
        theorems: tuple[TheoremResult, ...],
        errata: tuple[ErratumNote, ...],
    ) -> None:
        self.__dict__.update(
            graph_id=graph_id, n=n, m=m, p_max=p_max, m_max=m_max, theorems=theorems, errata=errata
        )

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


def _erratum(note_id: str, description: str, witnesses: Iterable[dict[str, str]]) -> ErratumNote:
    """The note on the first witness that witnesses yields, or an
    untriggered note with no witness if it yields none."""
    witness = next(iter(witnesses), None)
    return ErratumNote(note_id, description, witness is not None, witness)


def _moment_sign_note(lhs: Sequence[int], rhs: Sequence[int]) -> ErratumNote:
    """lhs[m] is the alternating moment for m = 0..m_max, rhs[m-1] the
    frequency-side sum for m = 1..m_max."""
    return _erratum(
        "moment_rhs_sign",
        "moment identity right side: sign variant (-1)^k versus (-1)^(k-1) "
        "on the frequency-side sum; only the latter matches the star side",
        (
            {"m": str(m), "lhs": str(lhs[m]), "rhs_sign_k": str(-r), "rhs_sign_k_minus_1": str(r)}
            for m, r in enumerate(rhs, start=1)
            if -r != r
        ),
    )


def _f1_sign_note(s: StarSequence, f: FrequencySequence) -> ErratumNote:
    # The two readings differ only in the sign of the tail over k >= 2.
    tail = sum((-1) ** (k - 1) * k * s.entry(k) for k in range(2, s.top + 1))
    first = s.adjusted_first
    witness = {"f1": str(f.f(1)), "sign_k_minus_1": str(first + tail), "sign_k": str(first - tail)}
    return _erratum(
        "f1_term_sign",
        "degree-one inversion term: sign exponent on k*S_k read as (-1)^(k-1) "
        "versus (-1)^k; the variants split whenever some S_k with k >= 2 is nonzero",
        [witness] if tail else [],
    )


def _recurrence_index_note(n: int, z: Sequence[int], p_max: int) -> ErratumNote:
    """z holds Z_0..Z_{n+p_max} at least."""
    # rows yields s(q, 0..q) from q = n+1: first the vertex-count row, then
    # s(p+1, 0..p+1) for p = n+1, n+2, ..., one row per exponent.
    rows = islice(stirling1_rows(), n + 1, None)
    by_n = next(rows)

    def witnesses():
        for p, row in zip(range(n + 1, n + p_max + 1), rows):
            by_exponent = z[p] + sum(row[p + 1 - i] * z[p - i] for i in range(1, n + 1))
            by_vertex_count = z[p] + sum(by_n[n + 1 - i] * z[p - i] for i in range(1, n + 1))
            if by_exponent != by_vertex_count:
                yield {
                    "p": str(p),
                    "residual_exponent_indexed": str(by_exponent),
                    "residual_vertex_indexed": str(by_vertex_count),
                }

    return _erratum(
        "recurrence_index_base",
        "recurrence coefficient index: s(n+1, n+1-i) tied to the vertex count "
        "versus s(p+1, p+1-i) tied to the exponent; only the former leaves "
        "zero residuals past p = n",
        witnesses(),
    )


def _checked(name: str, checks: Iterable[TheoremCheck]) -> TheoremResult:
    """The theorem name with its checks.  A route under test that raises on
    an accepted graph ends them with a failed check, residual 1, that names
    the exception.  MemoryError is a limit, not a fault: it propagates."""
    done = []
    try:
        for check in checks:
            done.append(check)
    except MemoryError:
        raise
    except Exception as exc:
        done.append(TheoremCheck(f"raised {type(exc).__name__}: {exc}", 1))
    return TheoremResult(name, tuple(done))


def _profile_part(
    g: Graph, edge_sum: Callable[[], Fraction], counts: Callable[[], tuple], p_max: int, m_max: int
) -> tuple[tuple[TheoremResult, ...], tuple[ErratumNote, ...]]:
    """The theorems and erratum notes of g's report, in report order.

    Every check reads g only through its frequency sequence f, except two
    that compare the per-graph values edge_sum() and counts() return: the
    inverse-degree edge sum and the brute-force star counts.  So the
    results are the same for every graph with that f and those two values.

    The ground truth is computed once, when first read: one table of Z_p
    by direct powers and one row each of the two moment sides.  Each route
    under test is still called on its own, the two per-graph ones too,
    inside the one theorem that reads each.  cache keeps no exception, so
    a route that raises fails each theorem that reads it (_checked), and
    the erratum notes are left out.
    """
    n, f = g.n, g.frequency
    terms = max(p_max + 1, 2 * n + 10)
    s = cache(partial(star_sequence, g))
    z = cache(lambda: [zagreb_direct(g, q) for q in range(max(terms, n + p_max + 1))])
    lhs = cache(lambda: [alternating_moment(s(), m_exp) for m_exp in range(m_max + 1)])
    rhs = cache(lambda: [moment_identity_rhs(f, m_exp) for m_exp in range(1, m_max + 1)])
    gf = cache(partial(genfunc_numerator, g))

    def inversion():
        # Formula-route star counts against degree counting, and back.
        s_from_f, stars = star_from_frequency(f), s()
        yield TheoremCheck("S1", s_from_f.s1 - stars.s1)
        for k in range(2, n):
            yield TheoremCheck(f"S{k}", s_from_f.entry(k) - stars.entry(k))
        f_from_s = frequency_from_star(stars)
        for i in range(n):
            yield TheoremCheck(f"f{i}", f_from_s.f(i) - f.f(i))

    def moments():
        # Alternating moments against the frequency-side sums.
        yield TheoremCheck("m=0", lhs()[0] - sum(f.counts[1:]))
        for m_exp, right in enumerate(rhs(), start=1):
            yield TheoremCheck(f"m={m_exp}", lhs()[m_exp] - right)

    def inverse_degree_sum():
        # The edge sum counts the non-isolated vertices, the star route the others.
        yield TheoremCheck("edge_sum", edge_sum() - (n - f.isolated))
        yield TheoremCheck("f0_from_stars", isolated_count_from_star(s()) - f.isolated)

    def stars_to_zagreb():
        # Star-route Zagreb values against direct powers.
        for p in range(1, p_max + 1):
            yield TheoremCheck(f"p={p}", zagreb_from_stars(s(), p) - z()[p])

    def genfunc():
        # Long-division series against direct values, and both end coefficients.
        num, direct = gf().numerator, z()
        series = series_expand_rational(num, n, terms)
        for p in range(terms):
            yield TheoremCheck(f"series_p={p}", series[p] - direct[p])
        yield TheoremCheck("a0", num[0] - n)
        yield TheoremCheck("a_top", num[n] - (-1) ** n * math.factorial(n) * f.isolated)

    def recurrence():
        # Order-n recurrence in the paper's Stirling form: the residual at p = n
        # is the top numerator coefficient, every later one 0.  The factored
        # route must reproduce direct values.
        for item in verify_recurrence(g, n, n + p_max):
            expected = gf().numerator[n] if item.p == n else 0
            yield TheoremCheck(f"residual_p={item.p}", item.residual - expected)
        for p in range(1, p_max + 1):
            yield TheoremCheck(f"route_p={p}", zagreb_by_recurrence(g, p) - z()[p])

    def star_bruteforce():
        # Enumerated star counts against the degree formula.
        for k, c in enumerate(counts(), start=1):
            yield TheoremCheck(f"k={k}", c - s().entry(k))

    theorems = (
        _checked("inversion", inversion()),
        _checked("moments", moments()),
        _checked("inverse_degree_sum", inverse_degree_sum()),
        _checked("zagreb_from_stars", stars_to_zagreb()),
        _checked("genfunc", genfunc()),
        _checked("recurrence", recurrence()),
        _checked("star_bruteforce", star_bruteforce()),
    )
    try:
        errata = (
            _moment_sign_note(lhs(), rhs()),
            _f1_sign_note(s(), f),
            _recurrence_index_note(n, z(), p_max),
        )
    except Exception as exc:
        # A route the notes read that raised has failed a theorem above.
        if isinstance(exc, MemoryError) or all(t.passed for t in theorems):
            raise
        errata = ()
    return theorems, errata


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
    brute-force star counts visit up to 2^n neighbour subsets; so
    are p_max and m_max above MAX_VERIFY_EXPONENT.
    """
    _check_limits(p_max, m_max)
    if g.n > MAX_BRUTEFORCE_N:
        raise ValueError(
            f"n = {g.n} is above the brute-force limit of {MAX_BRUTEFORCE_N} vertices: "
            "verify counts stars over up to 2^n neighbour subsets"
        )
    theorems, errata = _profile_part(
        g, partial(inverse_degree_edge_sum, g), partial(star_counts_bruteforce, g), p_max, m_max
    )
    return TheoremReport(graph_id or to_graph6(g), g.n, g.m, p_max, m_max, theorems, errata)


def _realize(n: int, degrees: Sequence[int]) -> Graph | None:
    """A graph in which vertex i has degree degrees[i], or None if none has.

    Havel-Hakimi: the vertex of largest remaining degree d is joined to the
    d others of largest remaining degree, until every degree is used up.
    The sweep never calls it: it is the independent reference that the
    sweep's degree profiles and the library's fast paths are checked
    against.
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


def _key_layout(n: int) -> tuple[int, int, int, int]:
    """(fw, A, B, L): a sweep key on n vertices is the integer F | E << A | C << B.

    F, the sum of 1 << fw*deg(v) over v, is the frequency vector: unlike
    the sorted degrees it fixes, it is additive.  E is the edge-sum
    numerator over L = lcm(1..n-1), at most n*L, and C the packed counts.
    """
    fw, scale = n.bit_length(), math.lcm(*range(1, n))
    return fw, fw * n, fw * n + (n * scale).bit_length(), scale


def _evaluate_key(g: Graph, key: int, p_max: int, m_max: int) -> tuple:
    """_profile_part of g on the two per-graph values in its sweep key."""
    _, a, b, scale = _key_layout(g.n)
    edge_sum = partial(Fraction, key >> a & (1 << b - a) - 1, scale)
    counts = partial(_unpack_star_counts, key >> b, g.n, _star_field_width(g.n, g.n - 1))
    return _profile_part(g, edge_sum, counts, p_max, m_max)


def _mask_keys(n: int) -> Iterator[int]:
    """The sweep keys of every labeled graph on n vertices, in mask order.
    No other code builds a key.

    A key is the sum over the vertices of part[N], N the vertex's
    neighbour mask: its F bit at |N|, its edge-sum terms and its subset
    histogram.  The edge sum adds one term L/|N| per edge end, never |N|
    times L/|N|: that is L for every degree, so the edge-sum check would
    compare n - f_0 with itself.  A mask's low n - 1 bits, the pairs
    (0, 1) .. (0, n - 1), are vertex 0's neighbours S; its high bits are a
    graph H on 1..n-1.  The 2^(n-1) masks of one H form a block: each v in
    S moves from part[nbr_v] to part[nbr_v | 1], and vertex 0 adds
    part[S << 1].
    """
    pairs = _vertex_pairs(n)[n - 1:]
    fw, a, b, scale = _key_layout(n)
    width = _star_field_width(n, n - 1)
    # Every neighbour mask's part, once per call: 3^n subset visits.
    part = [
        1 << fw * nbr.bit_count()
        | sum(scale // nbr.bit_count() for v in range(n) if nbr >> v & 1) << a
        | _subset_histogram(nbr, width) << b
        for nbr in range(1 << n)
    ]
    for high in range(1 << len(pairs)):
        nbr = [0] * n
        for i, (u, v) in enumerate(pairs):
            if high >> i & 1:
                nbr[u] |= 1 << v
                nbr[v] |= 1 << u
        keys = [sum(part[m] for m in nbr[1:])]
        for m in nbr[1:]:
            delta = part[m | 1] - part[m]
            keys += [key + delta for key in keys]
        yield from map(add, keys, part[::2])


def _sweep_masks(
    n: int, memo: dict, p_max: int, m_max: int, finish=lambda result: result
) -> Iterator[object]:
    """The memo entries of every labeled graph on n vertices, in mask
    order: finish applied to the (theorems, errata) of each report.

    memo maps sweep keys to entries made by the same finish; a sweep
    usually starts it empty.  A mask's key from _mask_keys fixes every
    input that _profile_part reads, so the mask shares the entry of its
    key.  On a miss, the first mask with that key, that graph is built,
    evaluated on its own key and finished, and stored while memo holds
    fewer than SWEEP_MEMO_CAP entries.  So a passing sweep evaluates each
    degree profile once.  Past the cap, which only a faulty library
    reaches, each missing mask costs its own evaluation, about 1 ms at
    n = 7, or 35 minutes if all 2^21 masks miss: memory stays bounded and
    time grows instead.
    """
    _check_limits(p_max, m_max)
    # Profiles whose checks all hold yield equal results, label for label,
    # so each distinct result stored is kept once, with one cached pass status.
    results: dict[TheoremResult, TheoremResult] = {}
    for mask, key in enumerate(_mask_keys(n)):
        entry = memo.get(key)
        if entry is None:
            theorems, errata = _evaluate_key(labeled_graph_from_mask(n, mask), key, p_max, m_max)
            if len(memo) < SWEEP_MEMO_CAP:
                theorems = tuple(results.setdefault(r, r) for r in theorems)
                entry = memo[key] = finish((theorems, errata))
            else:
                entry = finish((theorems, errata))
        yield entry


def sweep_reports(n: int, *, p_max: int = 8, m_max: int = 4) -> Iterator[TheoremReport]:
    """Reports for every labeled graph on n vertices, in mask order.

    Each report equals verify_all_identities(labeled_graph_from_mask(n, mask),
    p_max, m_max, graph_id=f"n={n}:mask={mask}").  The checks that read a
    graph only through its degree profile (its sorted degrees, which carry
    the same information as f) run once per profile, on the first mask
    that has it.  Per graph, only the sweep key is computed: one addition
    per mask within a block of 2^(n-1) masks, every key part read from a
    table over all 2^n neighbour masks.  A graph whose sweep key is in the
    memo shares its entry and builds no Graph; a new key is evaluated on
    its first graph and stored, up to SWEEP_MEMO_CAP entries.
    itertools.islice reads part of a sweep; the masks it skips are still
    swept.
    """
    for mask, entry in enumerate(_sweep_masks(n, {}, p_max, m_max)):
        yield TheoremReport(f"n={n}:mask={mask}", n, mask.bit_count(), p_max, m_max, *entry)
