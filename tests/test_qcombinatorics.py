import doctest
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import pytest

from qwick import qcombinatorics
from qwick.qcombinatorics import (
    PERMUTATION_CAP,
    crossing_polynomial,
    enumerate_shuffles,
    inversions,
    macmahon_residual,
    q_binomial,
    q_factorial,
    q_integer,
)

Q_GRID = (-0.9, -0.5, 0.0, 0.3, 0.5, 0.9)


def double_factorial_odd(n: int) -> int:
    """(2n - 1)!! = 1 * 3 * ... * (2n - 1); the number of pair partitions."""
    return math.prod(range(1, 2 * n, 2)) if n > 0 else 1


def catalan_number(n: int) -> int:
    """C_n = (2n choose n) / (n + 1); the non-crossing pair partitions."""
    return math.comb(2 * n, n) // (n + 1)


PAIRING_CAP = 12  # largest point count 2n of the pair-partition oracle


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
    the oracle of `crossing_polynomial`."""
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


def test_q_integer_values():
    assert q_integer(3, 0.5) == 1.75
    assert q_integer(2, -0.5) == 0.5
    assert q_integer(0, 0.7) == 0.0
    for n in range(1, 9):
        assert q_integer(n, 0.0) == 1.0  # only the q^0 term survives


def test_q_integer_domain():
    with pytest.raises(ValueError):
        q_integer(2, 1.0)
    with pytest.raises(ValueError):
        q_integer(2, -1.3)
    with pytest.raises(ValueError):
        q_integer(-1, 0.5)


def test_q_factorial_values():
    assert q_factorial(3, 0.5) == 1.0 * 1.5 * 1.75
    for q in Q_GRID:
        assert q_factorial(0, q) == 1.0
    for n in range(0, 9):
        assert q_factorial(n, 0.0) == 1.0


def test_q_binomial_against_polynomial_oracle():
    # (4 choose 2)_q expands to 1 + q + 2q^2 + q^3 + q^4
    for q in Q_GRID:
        oracle = 1 + q + 2 * q**2 + q**3 + q**4
        assert q_binomial(4, 2, q) == pytest.approx(oracle, abs=1e-12)
    assert q_binomial(4, 2, 0.5) == 2.1875


def test_q_binomial_edges():
    for q in Q_GRID:
        for n in range(7):
            assert q_binomial(n, 0, q) == 1.0
    # classical limit
    assert q_binomial(4, 2, 1 - 1e-9) == pytest.approx(6.0, abs=1e-6)
    with pytest.raises(ValueError):
        q_binomial(4, 5, 0.5)
    with pytest.raises(ValueError):
        q_binomial(4, -1, 0.5)


def test_q_binomial_symmetry_and_pascal():
    for q in Q_GRID:
        for n in range(1, 8):
            for i in range(n + 1):
                assert q_binomial(n, i, q) == pytest.approx(
                    q_binomial(n, n - i, q), abs=1e-12
                )
                if 1 <= i:
                    recursion = q_binomial(n - 1, i, q) if i <= n - 1 else 0.0
                    recursion += q ** (n - i) * q_binomial(n - 1, i - 1, q)
                    assert q_binomial(n, i, q) == pytest.approx(recursion, abs=1e-12)


def test_inversions_examples():
    assert inversions(tuple(range(1, 6))) == 0
    assert inversions([2, 3, 1]) == 2
    for n in range(2, 8):
        assert inversions(tuple(range(n, 0, -1))) == n * (n - 1) // 2


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("n", range(0, 7))
def test_inversion_generating_function_is_q_factorial(n, q):
    total = sum(q ** inversions(p) for p in itertools.permutations(range(n)))
    assert total == pytest.approx(q_factorial(n, q), abs=1e-12)


def test_enumerate_shuffles_examples():
    one_one = dict(enumerate_shuffles(1, 1))
    assert one_one == {(1,): 0, (2,): 1}
    only = list(enumerate_shuffles(3, 0))
    assert len(only) == 1 and only[0][1] == 0
    total = sum(0.5**inv for _, inv in enumerate_shuffles(2, 2))
    assert total == q_binomial(4, 2, 0.5)
    with pytest.raises(ValueError):
        list(enumerate_shuffles(5, 4))


def test_shuffle_subset_complement():
    # the inversion count is the number of pairs (j, i) with j in the
    # complement of the subset, i in it and j < i
    for total in range(PERMUTATION_CAP + 1):
        for m in range(total + 1):
            shuffles = list(enumerate_shuffles(m, total - m))
            assert [positions for positions, _ in shuffles] == list(
                itertools.combinations(range(1, total + 1), m)
            )
            for positions, inv in shuffles:
                complement = set(range(1, total + 1)) - set(positions)
                assert inv == sum(1 for j in complement for i in positions if j < i)
    assert dict(enumerate_shuffles(2, 3))[(2, 5)] == 1 + 3


@pytest.mark.parametrize("q", Q_GRID)
def test_macmahon_residual_small(q):
    assert macmahon_residual(1, 1, q) <= 1e-12
    assert macmahon_residual(3, 0, q) == 0.0
    assert macmahon_residual(3, 2, q) <= 1e-12


def test_macmahon_full_grid():
    for q in Q_GRID:
        for m in range(0, 9):
            for n in range(0, 9 - m):
                assert macmahon_residual(m, n, q) <= 1e-12
    assert macmahon_residual(3, 2, -0.7) <= 1e-12


def _matchings_by_permutations(n):
    """Independent oracle: build matchings from raw permutations and dedupe."""
    seen = set()
    for perm in itertools.permutations(range(1, 2 * n + 1)):
        blocks = []
        for k in range(n):
            a, b = perm[2 * k], perm[2 * k + 1]
            blocks.append((min(a, b), max(a, b)))
        blocks.sort()
        seen.add(tuple(blocks))
    return seen


def _crossings_by_interleaving(blocks):
    crossings = 0
    for (a, b), (c, d) in itertools.combinations(blocks, 2):
        inside = (a < c < b) + (a < d < b)
        if inside == 1:
            crossings += 1
    return crossings


@pytest.mark.parametrize("n", range(0, 41))
def test_crossing_polynomial_against_independent_enumeration(n):
    if n <= 3:  # permutation-based oracle is factorial-cost
        oracle_counts = {}
        for blocks in _matchings_by_permutations(n):
            k = _crossings_by_interleaving(blocks)
            oracle_counts[k] = oracle_counts.get(k, 0) + 1
        computed = crossing_polynomial(n)
        for k, c in enumerate(computed):
            assert oracle_counts.get(k, 0) == c
    counts = crossing_polynomial(n)
    assert sum(counts) == double_factorial_odd(n)
    assert counts[0] == catalan_number(n)
    assert len(counts) - 1 == math.comb(n, 2)
    assert counts[-1] == 1
    # two chords cross in one of the three ways to match their four endpoints,
    # so a pair partition has C(n,2)/3 crossings on average: this pins the middle
    crossings = sum(k * c for k, c in enumerate(counts))
    assert 3 * crossings == double_factorial_odd(n) * math.comb(n, 2)


@pytest.mark.parametrize("n", range(0, 7))
def test_crossing_polynomial_matches_pair_partition_enumeration(n):
    counts = [0] * (math.comb(n, 2) + 1)
    for partition in enumerate_pair_partitions(n):
        counts[partition.crossings] += 1
    assert crossing_polynomial(n) == counts


def test_crossing_polynomial_frozen_values():
    assert crossing_polynomial(1) == [1]
    assert crossing_polynomial(2) == [2, 1]
    assert crossing_polynomial(3) == [5, 6, 3, 1]
    assert crossing_polynomial(4) == [14, 28, 28, 20, 10, 4, 1]
    with pytest.raises(ValueError):
        crossing_polynomial(-1)
    with pytest.raises(ValueError):  # the enumeration oracle keeps its cap
        next(enumerate_pair_partitions(7))


def test_module_doctests_pass():
    """The `>>>` examples in the module's docstrings; pytest does not collect them."""
    results = doctest.testmod(qcombinatorics)
    assert results.failed == 0
    assert results.attempted >= 4


def test_pair_partition_invariants():
    for partition in enumerate_pair_partitions(3):
        points = sorted(x for block in partition.blocks for x in block)
        assert points == list(range(1, 7))
        assert partition.crossings == count_crossings(partition.blocks)
    assert len(list(enumerate_pair_partitions(0))) == 1


def test_enumeration_is_deterministic():
    first = [p.blocks for p in enumerate_pair_partitions(4)]
    second = [p.blocks for p in enumerate_pair_partitions(4)]
    assert first == second
    assert list(enumerate_shuffles(2, 2)) == list(enumerate_shuffles(2, 2))
