"""Exact integer combinatorics: binomials, the surjection numbers i! {p, i}
(Stirling numbers of the second kind times i!), the rows of signed Stirling
numbers of the first kind, and the coefficients of (1 - t)(1 - 2t) ... (1 - nt).

Everything returns plain Python integers, so results stay exact at any
size.  No floating point is used anywhere in this package.  Nothing is
memoized: each function builds only the row it is asked for, so its work
and memory are bounded by its own arguments.
"""

from __future__ import annotations

import math
from itertools import count
from typing import Iterator

__all__ = [
    "binomial",
    "surjection_row",
    "stirling1_rows",
    "falling_factorial_coeffs",
]


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention C(n, k) = 0 for k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial expects non-negative arguments")
    return math.comb(n, k)


def surjection_row(p: int, k: int) -> list[int]:
    """i! {p, i} for i = 0..k, the number of maps from a p-set onto an i-set.

    i! {p, i} = sum_j (-1)^(i-j) C(i, j) j^p (Graham, Knuth and Patashnik,
    Concrete Mathematics, eq. 6.19) is the i-th forward difference of j^p
    at j = 0, so the row comes from the k + 1 powers 0^p..k^p by repeated
    differencing.  Entries past i = p are zero.
    """
    if p < 0 or k < 0:
        raise ValueError("Stirling indices must be non-negative")
    diffs = [j**p for j in range(k + 1)]
    row = []
    while diffs:
        row.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return row


def stirling1_rows() -> Iterator[list[int]]:
    """Rows s(q, 0..q) of signed Stirling numbers of the first kind, q = 0, 1, ...

    s(q, k) is the coefficient of x^k in x(x-1)...(x-q+1); each row follows
    from the last by s(q+1, k) = s(q, k-1) - q * s(q, k), and only the
    current row is held.
    """
    row = [1]
    for q in count():
        yield row
        row = [a - q * b for a, b in zip([0, *row], [*row, 0])]


def falling_factorial_coeffs(n: int) -> list[int]:
    """Coefficients c_0..c_n of prod_{j=1..n} (1 - j*t).

    Computed by direct polynomial multiplication, which keeps this an
    independent route from the Stirling recurrence; the two agree through
    c_i = s(n+1, n+1-i).
    """
    if n < 0:
        raise ValueError("need a non-negative number of factors")
    coeffs = [1]
    for j in range(1, n + 1):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] -= j * c
        coeffs = nxt
    return coeffs
