"""Exact q-calculus scalars and the combinatorial enumerations behind them.

Everything in this module is pure and deterministic.  Permutations, shuffle
subsets and pair partitions are produced in lexicographic order, so any
report built on top of these streams is reproducible run to run.  The
crossing polynomial of pair partitions is counted by a Dyck-path transfer
with no enumeration; the pair-partition enumeration stays as its test oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

# Enumeration caps keep brute-force suites under a minute at desk scale.
PERMUTATION_CAP = 8   # largest n for S_n enumeration (8! = 40320)
PAIRING_CAP = 12      # largest point count 2n of the pair-partition test oracle


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


def q_factorial(n: int, q: float) -> float:
    """The q-factorial [n]_q! = [1]_q [2]_q ... [n]_q, empty product for n = 0.

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


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} stored as its image tuple (pi(1), ..., pi(n))."""

    image: tuple[int, ...]

    def __post_init__(self):
        image = tuple(int(x) for x in self.image)
        object.__setattr__(self, "image", image)
        if sorted(image) != list(range(1, len(image) + 1)):
            raise ValueError(f"image must be a bijection of {{1,...,{len(image)}}}")

    def __len__(self) -> int:
        return len(self.image)


def inversions(p: Permutation | Sequence[int]) -> int:
    """Count the pairs i < j with p(i) > p(j).

    >>> inversions([2, 3, 1])
    2
    """
    image = p.image if isinstance(p, Permutation) else tuple(p)
    count = 0
    for i in range(len(image)):
        for j in range(i + 1, len(image)):
            if image[i] > image[j]:
                count += 1
    return count


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations of {1, ..., n}, lexicographic in the image tuple."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > PERMUTATION_CAP:
        raise ValueError(f"permutation enumeration capped at n <= {PERMUTATION_CAP}, got {n}")
    return (Permutation(image) for image in itertools.permutations(range(1, n + 1)))


@dataclass(frozen=True)
class ShuffleSubset:
    """An m-element subset of {1, ..., total} marking the slots of the left block.

    The complement, in increasing order, holds the right block; both blocks
    keep their internal order, which is what makes this a shuffle.
    """

    positions: tuple[int, ...]
    total: int

    def __post_init__(self):
        positions = tuple(int(x) for x in self.positions)
        object.__setattr__(self, "positions", positions)
        if list(positions) != sorted(set(positions)):
            raise ValueError("positions must be strictly increasing")
        if positions and not (1 <= positions[0] and positions[-1] <= self.total):
            raise ValueError(f"positions must lie in 1..{self.total}")

    @property
    def m(self) -> int:
        return len(self.positions)

    def complement(self) -> tuple[int, ...]:
        chosen = set(self.positions)
        return tuple(x for x in range(1, self.total + 1) if x not in chosen)


def shuffle_inversions(subset: ShuffleSubset) -> int:
    """Number of pairs (j, i) with j in the complement, i chosen, and j < i."""
    comp = subset.complement()
    return sum(1 for j in comp for i in subset.positions if j < i)


def enumerate_shuffles(m: int, n: int) -> Iterator[tuple[ShuffleSubset, int]]:
    """All C(m+n, m) shuffle subsets with their inversion statistic."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be nonnegative")
    if m + n > PERMUTATION_CAP:
        raise ValueError(f"shuffle enumeration capped at m + n <= {PERMUTATION_CAP}")

    def gen():
        for positions in itertools.combinations(range(1, m + n + 1), m):
            subset = ShuffleSubset(positions, m + n)
            yield subset, shuffle_inversions(subset)

    return gen()


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


@dataclass(frozen=True)
class PairPartition:
    """A perfect matching of {1, ..., 2n} together with its crossing count."""

    blocks: tuple[tuple[int, int], ...]
    crossings: int


def count_crossings(blocks: Sequence[tuple[int, int]]) -> int:
    """Crossings: pairs of blocks {a,b}, {c,d} with a < c < b < d."""
    count = 0
    for (a, b), (c, d) in itertools.combinations(blocks, 2):
        if a < c < b < d or c < a < d < b:
            count += 1
    return count


def enumerate_pair_partitions(n: int) -> Iterator[PairPartition]:
    """All (2n-1)!! perfect matchings of {1, ..., 2n}, smallest-element first;
    the test oracle of `crossing_polynomial`."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if 2 * n > PAIRING_CAP:
        raise ValueError(f"pair-partition enumeration capped at 2n <= {PAIRING_CAP}")

    def rec(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not points:
            yield ()
            return
        first = points[0]
        for k in range(1, len(points)):
            partner = points[k]
            rest = points[1:k] + points[k + 1 :]
            for tail in rec(rest):
                yield ((first, partner),) + tail

    def gen():
        for blocks in rec(tuple(range(1, 2 * n + 1))):
            yield PairPartition(blocks, count_crossings(blocks))

    return gen()


def crossing_polynomial(n: int) -> list[int]:
    """Coefficients c_k = #{pair partitions of {1..2n} with exactly k crossings}.

    The list has length n(n-1)/2 + 1 (the maximum crossing number is C(n,2)),
    sums to (2n-1)!!, and starts at the Catalan number (the non-crossing count).
    Coefficients are exact integers.

    This is the fast route: Flajolet's continued fraction (Discrete Math. 32
    (1980)) counts the same polynomial as Dyck paths of length 2n whose
    down-step from height h carries [h]_q = 1 + q + ... + q^(h-1), summed by
    a transfer over (step, height) on integer coefficient lists.  There is no
    cap; `enumerate_pair_partitions` is the oracle it is tested against.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    paths = [[1]]  # paths[h]: the weighted paths of the steps so far ending at height h
    for step in range(1, 2 * n + 1):
        top = min(step, 2 * n - step)  # higher paths cannot return to 0 in time
        nxt: list[list[int]] = [[] for _ in range(top + 1)]
        for h, poly in enumerate(paths):
            if h < top:
                _add_into(nxt[h + 1], poly)
            if 0 < h <= top + 1:
                _add_into(nxt[h - 1], _times_q_integer(poly, h))
        paths = nxt
    return paths[0]


def _add_into(acc: list[int], poly: list[int]) -> None:
    acc.extend([0] * (len(poly) - len(acc)))
    for j, c in enumerate(poly):
        acc[j] += c


def _times_q_integer(poly: list[int], h: int) -> list[int]:
    """poly * [h]_q: coefficient j is the sum of poly[j-h+1 .. j]."""
    out, window = [], 0
    for j in range(len(poly) + h - 1):
        if j < len(poly):
            window += poly[j]
        if j >= h:
            window -= poly[j - h]
        out.append(window)
    return out


def double_factorial_odd(n: int) -> int:
    """(2n - 1)!! = 1 * 3 * ... * (2n - 1); the number of pair partitions."""
    return math.prod(range(1, 2 * n, 2)) if n > 0 else 1


def catalan_number(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)
