"""General first Zagreb indices Z_p = sum_v deg(v)^p along three routes,
plus the rational generating function of the whole sequence (Z_p)_{p>=0}.

The generating function is N(t) / ((1-t)(1-2t)...(1-nt)) with deg N <= n.
Its denominator drives the paper's order-n linear recurrence, whose
Stirling form `recurrence_coeffs` builds and `verify_recurrence` checks.
That fraction is never in lowest terms: Z(t) = f_0 + sum_{d in D} f_d /
(1 - dt) over the set D of distinct positive degrees.  So both other
routes start from the reduced numerator R(t) = Z(t) prod_{d in D} (1 - dt),
of degree at most |D|: `genfunc_numerator` multiplies in (1 - jt) for each
j in 1..n outside D, and `zagreb_by_recurrence` divides by each (1 - dt),
after halving p by root squaring until at most |D| + 1 terms remain, so
its cost grows with log p and the size of Z_p, not with p steps.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from operator import mul

from .combinatorics import stirling1_rows, surjection_row
from .graph import Graph, _Value
from .star import StarSequence

__all__ = [
    "ZagrebGenFunc",
    "RecurrenceCheck",
    "zagreb_direct",
    "zagreb_from_stars",
    "genfunc_numerator",
    "recurrence_coeffs",
    "zagreb_by_recurrence",
    "verify_recurrence",
]


def zagreb_direct(g: Graph, p: int) -> int:
    """sum_d f_d d^p over the distinct degrees d, with 0^0 = 1, so Z_0 = n
    and Z_1 = 2m."""
    if p < 0:
        raise ValueError("exponent must be a non-negative integer")
    return sum(c * d**p for d, c in enumerate(g.frequency.counts) if c)


def zagreb_from_stars(s: StarSequence, p: int) -> int:
    """Z_p from star counts: 2*S_1 + sum_{i=2..p} i! {p, i} S_i.

    Only i up to min(p, s.top) can contribute, which is min(p, max degree)
    for a graph, so the surjection row stops there.
    Valid for p >= 1 only.  At p = 0 the star route would collapse to 2m
    instead of n, so that case is refused; use zagreb_direct.
    """
    if p < 1:
        raise ValueError("star route needs p >= 1; use zagreb_direct for p = 0")
    row = surjection_row(p, min(p, s.top))
    return s.adjusted_first + sum(row[i] * s.entry(i) for i in range(2, len(row)))


class ZagrebGenFunc(_Value):
    """Numerator a_0..a_n of the Zagreb generating function over (1-t)...(1-nt).

    a_0 = n always, and a_n = (-1)^n n! f_0, so the numerator degree drops
    below n exactly when the graph has no isolated vertices.
    """

    _fields = ("n", "numerator")

    def __init__(self, n: int, numerator: tuple[int, ...]) -> None:
        if n < 1:
            raise ValueError("generating function needs at least one vertex")
        if len(numerator) != n + 1:
            raise ValueError(f"expected {n + 1} numerator coefficients")
        self.__dict__.update(n=n, numerator=numerator)

    @property
    def strictly_proper(self) -> bool:
        """True when the numerator degree is below the denominator degree (a_n = 0)."""
        return self.numerator[-1] == 0

    def denominator_factors(self) -> list[str]:
        return ["1-t"] + [f"1-{j}t" for j in range(2, self.n + 1)]


def _times_factor(series: list[int], d: int) -> None:
    """Multiply series by (1 - dt) in place, truncated at its own length."""
    for k in range(len(series) - 1, 0, -1):
        series[k] -= d * series[k - 1]


def _reduced_numerator(g: Graph) -> tuple[list[int], list[int]]:
    """R(t) = Z(t) prod_{d in D} (1 - dt) and D in ascending order.  R needs
    only Z_0..Z_|D|, formed as running products: each term f_d d^p starts at
    f_d (so 0^0 = 1) and is multiplied by its d once per step."""
    counts = g.frequency.counts
    degrees = [d for d, c in enumerate(counts) if c]
    factors, terms, num = [d for d in degrees if d], [c for c in counts if c], []
    for _ in range(len(factors) + 1):
        num.append(sum(terms))
        terms = list(map(mul, terms, degrees))
    for d in factors:
        _times_factor(num, d)
    return num, factors


def genfunc_numerator(g: Graph) -> ZagrebGenFunc:
    """Numerator a_0..a_n of Z(t) over (1-t)(1-2t)...(1-nt): the reduced
    numerator times (1 - jt) for each j in 1..n outside D, no Stirling row."""
    num, factors = _reduced_numerator(g)
    num += [0] * (g.n - len(factors))
    for j in set(range(1, g.n + 1)).difference(factors):
        _times_factor(num, j)
    return ZagrebGenFunc(n=g.n, numerator=tuple(num))


def recurrence_coeffs(n: int) -> list[int]:
    """c_1..c_n with Z_p = -(c_1 Z_{p-1} + ... + c_n Z_{p-n}) for every p > n.

    c_i = s(n+1, n+1-i), the t^i coefficient of (1-t)(1-2t)...(1-nt); the
    coefficient index is tied to the vertex count, never to the exponent.
    """
    if n < 1:
        raise ValueError("recurrence needs at least one vertex")
    row = next(islice(stirling1_rows(), n + 1, None))
    return [row[n + 1 - i] for i in range(1, n + 1)]


def zagreb_by_recurrence(g: Graph, p: int) -> int:
    """Z_p = [t^p] R(t) / prod_{d in D} (1 - dt), from the reduced
    numerator R and the factors alone, never from direct powers.

    First the exponent is halved by root squaring (Graeffe's method; the
    halving step of Bostan and Mori, "A simple and fast algorithm for
    computing the N-th term of a linearly recurrent sequence", SOSA 2021):
    with R(t) prod_{d in D} (1 + dt) = U_0(t^2) + t U_1(t^2), the t^p
    coefficient is [s^(p // 2)] U_(p mod 2)(s) / prod_{d in D} (1 - d^2 s).
    Each halving keeps at most |D| + 1 numerator coefficients and squares
    each factor, so it runs about log2(p / |D|) times.  Then the numerator
    streams through one running quotient per factor, ascending, for at
    most |D| + 2 steps, and the last one's t^p coefficient is Z_p.
    Dividing by (1 - dt) is y_k = x_k + d y_{k-1}; each quotient grows like
    the largest factor already divided out, so the small ones go first.
    """
    if p < 0:
        raise ValueError("exponent must be a non-negative integer")
    num, factors = _reduced_numerator(g)
    while p > len(num):
        num += [0] * len(factors)
        for d in factors:
            _times_factor(num, -d)
        num = num[p & 1::2]
        factors = [d * d for d in factors]
        p //= 2
    carry = [0] * len(factors)
    for x in chain(num[: p + 1], repeat(0, p + 1 - len(num))):
        for i, d in enumerate(factors):
            x += d * carry[i]
            carry[i] = x
    return x


class RecurrenceCheck(_Value):
    """Residual Z_p + sum_i c_i Z_{p-i} at one exponent; zero means the relation holds."""

    _fields = ("p", "residual")

    def __init__(self, p: int, residual: int) -> None:
        self.__dict__.update(p=p, residual=residual)

    @property
    def holds(self) -> bool:
        return self.residual == 0


def verify_recurrence(g: Graph, p_min: int, p_max: int) -> list[RecurrenceCheck]:
    """Recurrence residuals from direct values for each p in [p_min, p_max].

    The residual is zero for every p >= n+1.  At p = n it equals the top
    numerator coefficient (-1)^n n! f_0, hence vanishes exactly when the
    graph has no isolated vertices; checks may not start below p = n.
    """
    n = g.n
    if p_min < n:
        raise ValueError("recurrence checks start at p = n")
    coeffs = recurrence_coeffs(n)
    z = [zagreb_direct(g, q) for q in range(p_max + 1)]
    out = []
    for p in range(p_min, p_max + 1):
        residual = z[p] + sum(coeffs[i - 1] * z[p - i] for i in range(1, n + 1))
        out.append(RecurrenceCheck(p=p, residual=residual))
    return out
