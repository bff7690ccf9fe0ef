"""Combinatorics against independent oracles.

Binomials are rechecked with the Pascal recurrence, Stirling numbers of the
second kind by actually enumerating set partitions, and Stirling numbers of
the first kind by expanding x(x-1)...(x-n+1) as a polynomial.  Both kinds
are also checked against the classic triangle recurrences, kept here as a
reference for the library's closed form and row generator.
"""

from __future__ import annotations

import math
from functools import lru_cache

import pytest

from starzagreb.combinatorics import (
    binomial,
    falling_factorial_coeffs,
    stirling1_rows,
    stirling1_signed,
    stirling2,
    surjection_row,
)

TRIANGLE_SIZE = 60


@lru_cache(maxsize=None)
def pascal(n: int, k: int) -> int:
    if k == 0:
        return 1
    if k > n:
        return 0
    return pascal(n - 1, k - 1) + pascal(n - 1, k)


def stirling_triangles(size: int) -> tuple[list[list[int]], list[list[int]]]:
    """Rows 0..size of {p, k} and s(n, k) by the triangle recurrences.

    {p, k} = {p-1, k-1} + k {p-1, k} and s(n, k) = s(n-1, k-1) - (n-1) s(n-1, k).
    """
    second, first = [[1]], [[1]]
    for q in range(1, size + 1):
        prev2, prev1 = second[-1], first[-1]
        row2, row1 = [0] * (q + 1), [0] * (q + 1)
        for k in range(1, q):
            row2[k] = prev2[k - 1] + k * prev2[k]
            row1[k] = prev1[k - 1] - (q - 1) * prev1[k]
        row2[q] = row1[q] = 1
        second.append(row2)
        first.append(row1)
    return second, first


def set_partitions(items: tuple[int, ...], k: int):
    """Yield every partition of items into exactly k nonempty blocks."""
    if not items:
        if k == 0:
            yield []
        return
    first, rest = items[0], items[1:]
    for blocks in set_partitions(rest, k):
        for i in range(len(blocks)):
            yield blocks[:i] + [blocks[i] | {first}] + blocks[i + 1:]
    for blocks in set_partitions(rest, k - 1):
        yield blocks + [{first}]


def expand_falling_factorial(n: int) -> list[int]:
    """Coefficients of x(x-1)...(x-n+1), lowest power first."""
    coeffs = [1]
    for j in range(n):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] -= j * c
            nxt[i + 1] += c
        coeffs = nxt
    return coeffs


def test_binomial_known_values():
    assert binomial(5, 2) == 10
    assert binomial(5, 0) == 1
    assert binomial(0, 0) == 1
    assert binomial(3, 5) == 0


def test_binomial_rejects_negative_arguments():
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -2)


def test_binomial_matches_pascal_recurrence():
    for n in range(13):
        for k in range(14):
            assert binomial(n, k) == pascal(n, k), (n, k)


def test_stirling2_known_values():
    assert stirling2(0, 0) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(7, 1) == 1
    assert stirling2(2, 5) == 0
    assert stirling2(4, 0) == 0


def test_stirling2_counts_actual_set_partitions():
    for p in range(8):
        for k in range(p + 2):
            expected = sum(1 for _ in set_partitions(tuple(range(p)), k))
            assert stirling2(p, k) == expected, (p, k)


def test_stirling1_known_values():
    # x(x-1)(x-2) = x^3 - 3x^2 + 2x
    assert stirling1_signed(3, 3) == 1
    assert stirling1_signed(3, 2) == -3
    assert stirling1_signed(3, 1) == 2
    assert stirling1_signed(3, 0) == 0
    assert stirling1_signed(0, 0) == 1
    assert stirling1_signed(2, 4) == 0


def test_stirling1_matches_polynomial_expansion():
    for n in range(11):
        coeffs = expand_falling_factorial(n)
        for k in range(n + 1):
            assert stirling1_signed(n, k) == coeffs[k], (n, k)


def test_falling_factorial_coeffs_small():
    assert falling_factorial_coeffs(0) == [1]
    assert falling_factorial_coeffs(1) == [1, -1]
    assert falling_factorial_coeffs(2) == [1, -3, 2]


def test_falling_factorial_coeffs_match_stirling1():
    for n in range(13):
        coeffs = falling_factorial_coeffs(n)
        assert len(coeffs) == n + 1
        for i in range(n + 1):
            assert coeffs[i] == stirling1_signed(n + 1, n + 1 - i), (n, i)


def test_power_sum_identity():
    # sum_{i=1..k} i^p (-1)^(k-i) C(k, i) = k! {p, k}
    for p in range(1, 13):
        for k in range(1, 13):
            lhs = sum((-1) ** (k - i) * binomial(k, i) * i**p for i in range(1, k + 1))
            assert lhs == math.factorial(k) * stirling2(p, k), (p, k)


def test_stirling_orthogonality():
    # sum_k s(n, k) {k, m} = [n == m]
    for n in range(13):
        for m in range(13):
            total = sum(stirling1_signed(n, k) * stirling2(k, m) for k in range(n + 1))
            assert total == (1 if n == m else 0), (n, m)


def test_stirling2_matches_triangle_recurrence():
    second, _ = stirling_triangles(TRIANGLE_SIZE)
    for p in range(TRIANGLE_SIZE + 1):
        for k in range(TRIANGLE_SIZE + 1):
            expected = second[p][k] if k <= p else 0
            assert stirling2(p, k) == expected, (p, k)


def test_stirling1_matches_triangle_recurrence():
    _, first = stirling_triangles(TRIANGLE_SIZE)
    for n in range(TRIANGLE_SIZE + 1):
        for k in range(TRIANGLE_SIZE + 1):
            expected = first[n][k] if k <= n else 0
            assert stirling1_signed(n, k) == expected, (n, k)


def test_rows_match_triangle_recurrence():
    second, first = stirling_triangles(TRIANGLE_SIZE)
    for n, row in zip(range(TRIANGLE_SIZE + 1), stirling1_rows()):
        assert row == first[n], n
    for p in range(TRIANGLE_SIZE + 1):
        expected = [math.factorial(k) * second[p][k] for k in range(p + 1)]
        assert surjection_row(p, p) == expected, p
        assert surjection_row(p, p + 3) == expected + [0, 0, 0], p


def test_negative_indices_rejected():
    for bad in ((-1, 0), (2, -1)):
        with pytest.raises(ValueError):
            stirling2(*bad)
        with pytest.raises(ValueError):
            stirling1_signed(*bad)
        with pytest.raises(ValueError):
            surjection_row(*bad)
    with pytest.raises(ValueError):
        falling_factorial_coeffs(-1)
