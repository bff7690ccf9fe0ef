"""General first Zagreb indices Z_p = sum_v deg(v)^p along three routes,
plus the rational generating function of the whole sequence (Z_p)_{p>=0}.

The generating function is N(t) / ((1-t)(1-2t)...(1-nt)) with deg N <= n.
Its denominator drives an order-n linear recurrence that extends Z_p to
arbitrary exponents without computing a single p-th power.  The paper's
Stirling form of that recurrence is built by `recurrence_coeffs` and checked
by `verify_recurrence`.  That fraction is never in lowest terms: Z(t) is
f_0 + sum_{d in D} f_d / (1 - dt) over the set D of distinct positive
degrees, so only the factors (1 - dt) with d in D survive reduction.
`zagreb_by_recurrence` runs that order-|D| recurrence factor by factor,
dividing the reduced numerator by each (1 - dt) in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, repeat

from .combinatorics import stirling1_rows, surjection_row
from .graph import Graph
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


@dataclass(frozen=True)
class ZagrebGenFunc:
    """Numerator a_0..a_n of the Zagreb generating function over (1-t)...(1-nt).

    a_0 = n always, and a_n = (-1)^n n! f_0, so the numerator degree drops
    below n exactly when the graph has no isolated vertices.
    """

    n: int
    numerator: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("generating function needs at least one vertex")
        if len(self.numerator) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} numerator coefficients")

    @property
    def strictly_proper(self) -> bool:
        """True when the numerator degree is below the denominator degree (a_n = 0)."""
        return self.numerator[-1] == 0

    def denominator_factors(self) -> list[str]:
        return ["1-t"] + [f"1-{j}t" for j in range(2, self.n + 1)]


def genfunc_numerator(g: Graph) -> ZagrebGenFunc:
    """Numerator coefficients a_k = sum_{i<=k} s(n+1, n+1-(k-i)) Z_i, k = 0..n."""
    n = g.n
    z = [zagreb_direct(g, p) for p in range(n + 1)]
    c = [1, *recurrence_coeffs(n)]
    num = tuple(sum(c[k - i] * z[i] for i in range(k + 1)) for k in range(n + 1))
    return ZagrebGenFunc(n=n, numerator=num)


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
    """Z_p via the order-|D| recurrence in factored form, seeded with direct values.

    D is the set of distinct positive degrees and r = |D|.  Returns the
    direct value for p <= r.  Beyond that, the numerator a_0..a_r of
    Z(t) prod_{d in D} (1 - dt), a polynomial of degree at most r, is formed
    from Z_0..Z_r by multiplying in one factor (1 - dt) at a time, truncated
    at t^r.  Then that numerator is streamed through r running quotients,
    one per factor in ascending d: dividing by (1 - dt) is
    y_k = x_k + d y_{k-1}, and each quotient grows like the largest degree
    already divided out, so the small ones go first.  Every big-integer
    step multiplies by a small d < n, memory stays at r + 1 integers for
    any exponent, and direct values are read only at q <= r, so no p-th
    power is ever formed.
    """
    if p < 0:
        raise ValueError("exponent must be a non-negative integer")
    factors = [d for d, c in enumerate(g.frequency.counts) if c and d]
    r = len(factors)
    if p <= r:
        return zagreb_direct(g, p)
    num = [zagreb_direct(g, q) for q in range(r + 1)]
    for d in factors:
        for k in range(r, 0, -1):
            num[k] -= d * num[k - 1]
    carry = [0] * r
    for x in chain(num, repeat(0, p - r)):
        for i, d in enumerate(factors):
            x += d * carry[i]
            carry[i] = x
    return x


@dataclass(frozen=True)
class RecurrenceCheck:
    """Residual Z_p + sum_i c_i Z_{p-i} at one exponent; zero means the relation holds."""

    p: int
    residual: int

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
