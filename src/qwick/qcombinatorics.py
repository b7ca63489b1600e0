"""Exact q-calculus scalars and the combinatorics behind them.

Everything in this module is pure and deterministic.  Shuffles are produced
as (positions, inversions) tuples in lexicographic order, so any report
built on that stream is reproducible run to run.  The crossing polynomial of
pair partitions is summed from the Touchard-Riordan closed form with no
enumeration; the pair-partition enumeration it is checked against lives in
the tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator, Sequence

# Enumeration caps keep brute-force suites under a minute at desk scale.
PERMUTATION_CAP = 8  # largest n for S_n enumeration (8! = 40320)


def check_deformation(q: float) -> float:
    """Validate the deformation parameter; the whole theory lives on |q| < 1."""
    q = float(q)
    if not -1.0 < q < 1.0:
        raise ValueError(f"deformation parameter must satisfy |q| < 1, got {q}")
    return q


def q_integer(n: int, q: float) -> float:
    """The q-integer [n]_q = 1 + q + ... + q^(n-1), with [0]_q = 0.

    >>> q_integer(3, 0.5)
    1.75
    """
    q = check_deformation(q)
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0.0
    power = 1.0  # q^0 = 1 also when q = 0
    for _ in range(n):
        total += power
        power *= q
    return total


@functools.lru_cache(maxsize=None)
def q_factorial(n: int, q: float) -> float:
    """The q-factorial [n]_q! = [1]_q [2]_q ... [n]_q, empty product for n = 0;
    memoized per (n, q), since every norm reads it once per degree.

    >>> q_factorial(3, 0.5)
    2.625
    """
    q = check_deformation(q)
    if n < 0:
        raise ValueError("n must be nonnegative")
    result = 1.0
    for k in range(1, n + 1):
        result *= q_integer(k, q)
    return result


def q_binomial(n: int, i: int, q: float) -> float:
    """The Gaussian binomial coefficient [n]_q! / ([i]_q! [n-i]_q!)."""
    if not 0 <= i <= n:
        raise ValueError(f"index i must lie in 0..{n}, got {i}")
    return q_factorial(n, q) / (q_factorial(i, q) * q_factorial(n - i, q))


def inversions(image: Sequence[int]) -> int:
    """Count the pairs i < j with image[i] > image[j].

    >>> inversions([2, 3, 1])
    2
    """
    count = 0
    for i in range(len(image)):
        for j in range(i + 1, len(image)):
            if image[i] > image[j]:
                count += 1
    return count


def enumerate_shuffles(m: int, n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """All C(m+n, m) shuffles of an m-block into an n-block, lexicographically,
    each as (positions, inversions): the slots 1..m+n of the left block, and
    the number of right-block slots that precede a left-block slot."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be nonnegative")
    if m + n > PERMUTATION_CAP:
        raise ValueError(f"shuffle enumeration capped at m + n <= {PERMUTATION_CAP}")
    return (
        (positions, sum(p - 1 - k for k, p in enumerate(positions)))
        for positions in itertools.combinations(range(1, m + n + 1), m)
    )


def macmahon_residual(m: int, n: int, q: float) -> float:
    """|sum over shuffles of |q|^inv  -  Gaussian binomial (m+n choose m) at |q||.

    The two sides agree identically; the residual measures only floating-point
    noise and is expected to vanish to the working tolerance.
    """
    aq = abs(check_deformation(q))
    total = 0.0
    for _, inv in enumerate_shuffles(m, n):
        total += aq**inv
    return abs(total - q_binomial(m + n, m, aq))


def crossing_polynomial(n: int) -> list[int]:
    """Coefficients c_k = #{pair partitions of {1..2n} with exactly k crossings}.

    The list has length n(n-1)/2 + 1 (the maximum crossing number is C(n,2)),
    sums to (2n-1)!!, and starts at the Catalan number (the non-crossing count).
    Coefficients are exact integers.

    This is the fast route, the Touchard-Riordan formula (Riordan, Math. Comp.
    29 (1975)): sum_k c_k q^k is (1-q)^(-n) times
    sum_j (-1)^j (C(2n, n-j) - C(2n, n+j+1)) q^(j(j+1)/2), summed as one
    prefix sum per factor 1/(1-q) and cut at degree C(n,2).  C(2n, n+j+1) is
    C(2n, n-j-1) mirrored, so it is 0 at j = n.  There is no cap; the tests
    check it against an enumeration of pair partitions.

    >>> crossing_polynomial(3)
    [5, 6, 3, 1]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    top = math.comb(n, 2)
    series = [0] * (top + 1)
    for j in range(n + 1):
        degree = j * (j + 1) // 2
        if degree <= top:  # every j < n, and j = 0 at n = 0
            ballot = math.comb(2 * n, n - j) - math.comb(2 * n, n + j + 1)
            series[degree] = (-1) ** j * ballot
    for _ in range(n):
        series = list(itertools.accumulate(series))
    return series
