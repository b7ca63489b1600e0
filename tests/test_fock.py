import ast
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qwick
from qwick import fock
from qwick.fock import (
    GradedVector,
    QContext,
    annihilate,
    annihilation_matrix,
    apply_pq,
    basis_vector,
    commutation_residual,
    contract,
    create,
    creation_matrix,
    elementary_tensor,
    fock_norm,
    pq_matrix,
    pq_spectrum,
    q_inner,
    slot_sum,
    swap_constant,
    symmetrize,
    tensor_product,
)
from qwick.qcombinatorics import inversions, q_factorial
from qwick.scales import graded_tensor
from qwick.series import wick_exp, wick_inverse
from qwick.suites import SUITES, _basis_residuals
from qwick.wick import apply_to_fock

from oracles import random_vector, stack_vectors

Q_GRID = (-0.9, -0.5, 0.0, 0.3, 0.5, 0.9)


def ctx_of(q=0.5, dim=2, max_degree=4):
    return QContext(q, dim, max_degree)


def test_context_validation():
    with pytest.raises(ValueError):
        QContext(1.0, 2, 3)
    with pytest.raises(ValueError):
        QContext(0.5, 0, 3)
    with pytest.raises(ValueError):
        QContext(0.5, 2, -1)


@pytest.mark.parametrize("dim,top", ((1, 0), (1, 5), (2, 0), (2, 6), (3, 4)))
def test_random_is_one_draw_per_degree(dim, top):
    # one draw of every degree's entries gives the numbers and the generator
    # state of one draw per degree, so seeded trials are unchanged
    ctx = QContext(0.5, dim, top)
    for seed in range(40):
        rng, per_degree = np.random.default_rng(seed), np.random.default_rng(seed)
        vec = random_vector(ctx, rng)
        assert sorted(vec.components) == list(range(top + 1))
        for n in range(top + 1):
            assert np.array_equal(vec.components[n], per_degree.standard_normal(dim**n))
            assert not vec.components[n].flags.writeable
        assert rng.bit_generator.state == per_degree.bit_generator.state


def test_graded_vector_shapes():
    ctx = ctx_of()
    with pytest.raises(ValueError):
        GradedVector(ctx, {1: [1.0, 0.0, 0.0]})
    with pytest.raises(ValueError):
        GradedVector(ctx, {5: np.zeros(32)})
    v = GradedVector(ctx, {2: np.arange(4.0)})
    assert v.component(3).shape == (8,)
    assert v.component(2) @ v.component(2) == 14.0


@pytest.mark.parametrize("q", Q_GRID)
def test_apply_pq_degree_two(q):
    ctx = ctx_of(q=q)
    e1, e2 = basis_vector(2, 0), basis_vector(2, 1)
    out = apply_pq(2, elementary_tensor([e1, e2]), ctx)
    expected = elementary_tensor([e1, e2]) + q * elementary_tensor([e2, e1])
    assert np.allclose(out, expected, atol=1e-15)


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("n", range(0, 6))
def test_apply_pq_symmetric_eigenvector(n, q):
    # e (x) ... (x) e is an eigenvector with the full inversion-sum eigenvalue
    ctx = QContext(q, 2, 6)
    e = basis_vector(2, 0)
    t = elementary_tensor([e] * n)
    out = apply_pq(n, t, ctx)
    assert np.allclose(out, q_factorial(n, q) * t, atol=1e-12)


def test_apply_pq_free_case_is_identity():
    ctx = ctx_of(q=0.0, dim=3)
    rng = np.random.default_rng(0)
    t = rng.standard_normal(9)
    assert np.array_equal(apply_pq(2, t, ctx), t)


def test_apply_pq_matches_matrix():
    # against the n!-term enumeration; entries grow like [n]_|q|!, and at
    # (2, 8) near |q| = 1 the enumeration is the less accurate side
    rng = np.random.default_rng(1)
    for dim, n in ((1, 6), (2, 8), (3, 4), (4, 4)):
        for q in Q_GRID:
            t = rng.standard_normal(dim**n)
            got = apply_pq(n, t, QContext(q, dim, n))
            want = np.asarray(pq_matrix(n, dim, q)) @ t
            assert np.max(np.abs(got - want)) <= 1e-12 * q_factorial(n, abs(q)), (dim, n, q)


def _pq_matrix_oracle(n: int, dim: int, q: float) -> np.ndarray:
    """The n!-term sum with one fancy-index add per permutation."""
    size = dim**n
    idx = np.arange(size)
    digits = np.array([(idx // dim ** (n - 1 - k)) % dim for k in range(n)])
    mat = np.zeros((size, size))
    for p in itertools.permutations(range(n)):
        gather = sum(digits[p[k]] * dim ** (n - 1 - k) for k in range(n))
        mat[idx, gather] += q ** inversions(p)
    return mat


@pytest.mark.parametrize("q", (-0.7, 0.0, 0.5))
def test_pq_matrix_matches_per_permutation_oracle_bit_for_bit(q):
    # each cell sums its q**inv in permutation order, also across chunks,
    # and d = 1 and n <= 1 enumerate like every other input
    for dim, top in ((1, 8), (2, 7), (3, 6), (4, 4)):
        for n in range(top + 1):
            got, want = pq_matrix(n, dim, q), _pq_matrix_oracle(n, dim, q)
            assert np.array_equal(got, want), (dim, n)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (dim, n)


def test_perm_actions_list_the_permutations_in_order_with_their_inversions():
    for n in range(8):
        perms, counts = fock._perm_actions(n)
        assert perms.shape == (math.factorial(n), n)
        assert [tuple(row) for row in perms.tolist()] == list(itertools.permutations(range(n)))
        assert counts.tolist() == [inversions(p) for p in itertools.permutations(range(n))]


@pytest.mark.parametrize("n,dim", ((9, 1), (9, 2), (7, 4), (8, 3), (5, 6)))
def test_pq_matrix_caps_raise_before_allocating(n, dim):
    # degree 9 is past the permutation cap, and d**n > 4096 past the
    # dimension cap; either raises before the digits or the matrix exist
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="capped at"):
            pq_matrix(n, dim, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def _symmetrize_out_of_place(t, n, dim, q):
    """The factorized symmetrizer with a fresh array per term, as the kernel
    once summed: the in-place kernel does the same operations."""
    t = np.asarray(t, dtype=float)
    lead = t.shape[:-1]
    if n <= 1:
        return t.copy()
    for m in range(n, 1, -1):
        cube = t.reshape((-1,) + (dim,) * m)
        acc = cube
        for k in range(1, m):
            acc = acc + q**k * np.moveaxis(cube, k + 1, 1)
        t = acc
    return t.reshape(lead + (-1,))


@pytest.mark.parametrize("q", (-0.7, 0.0, 0.5))
@pytest.mark.parametrize("dim,n", ((1, 6), (2, 0), (2, 1), (2, 2), (2, 8), (3, 5), (4, 4)))
@pytest.mark.parametrize("lead", ((), (3,), (2, 3), "wide"))
def test_symmetrize_matches_out_of_place_sum_bit_for_bit(lead, dim, n, q):
    if lead == "wide":
        lead = (dim**n + 3,)  # a batch wider than the tensor
    t = np.random.default_rng([dim, n, len(lead)]).standard_normal(lead + (dim**n,))
    before = t.copy()
    got = symmetrize(t, n, dim, q)
    assert np.array_equal(got, _symmetrize_out_of_place(t, n, dim, q))
    assert np.array_equal(t, before)  # the input is never written
    # the result is a fresh array, also for one row, where no level runs at
    # n <= 1 and the batch transposes without a copy
    for rows in (t, t.reshape(-1, dim**n)[:1]):
        assert not np.shares_memory(symmetrize(rows, n, dim, q), rows)
    eye = np.eye(dim**n)
    assert np.array_equal(symmetrize(eye, n, dim, q), _symmetrize_out_of_place(eye, n, dim, q))


def _slot_sum_moveaxis(t, n, dim, q):
    """slot_sum with one axis per slot, as the kernel once moved slot k: the
    same operations, on n + 2 axes, so numpy's 64-axis limit caps n."""
    t = np.asarray(t, dtype=float)
    cube = t.reshape(t.shape[:-1] + (dim,) * n + (-1,))
    acc = cube.copy()
    scratch = np.empty_like(cube)
    for k in range(1, n):
        np.multiply(np.moveaxis(cube, k - n - 1, -n - 1), q**k, out=scratch)
        acc += scratch
    return acc.reshape(t.shape)


@pytest.mark.parametrize("q", (0.5, -0.7, 0.3))
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_slot_sum_matches_one_axis_per_slot_bit_for_bit(dim, q):
    rng = np.random.default_rng(dim)
    for n, trailing, lead in itertools.product(range(7), (1, 2, 3), ((), (4,), (2, 3))):
        t = rng.standard_normal(lead + (dim ** (n + trailing - 1),))
        got = slot_sum(t, n, dim, q)
        assert got.tobytes() == _slot_sum_moveaxis(t, n, dim, q).tobytes(), (n, trailing, lead)
        strided = np.swapaxes(rng.standard_normal(t.shape[::-1]), 0, -1)  # not C-contiguous
        want = _slot_sum_moveaxis(strided, n, dim, q)
        assert slot_sum(strided, n, dim, q).tobytes() == want.tobytes(), (n, trailing, lead)


def test_apply_pq_past_degree_eight():
    # no degree cap: e (x) ... (x) e stays an eigenvector at degrees 9 and 10
    e = basis_vector(2, 0)
    for n in (9, 10):
        t = elementary_tensor([e] * n)
        for q in Q_GRID:
            out = apply_pq(n, t, QContext(q, 2, n))
            gap = np.max(np.abs(out - q_factorial(n, q) * t))
            assert gap <= 1e-12 * q_factorial(n, abs(q)), (n, q)


def test_q_inner_examples():
    ctx = ctx_of(q=0.3)
    e1, e2 = basis_vector(2, 0), basis_vector(2, 1)
    f = GradedVector(ctx, {2: elementary_tensor([e1, e2])})
    g = GradedVector(ctx, {2: elementary_tensor([e2, e1])})
    assert q_inner(f, f) == pytest.approx(1.0, abs=1e-15)
    assert q_inner(f, g) == pytest.approx(0.3, abs=1e-15)
    vac = GradedVector.vacuum(ctx)
    assert q_inner(vac, vac) == 1.0


def test_q_inner_context_mismatch():
    f = GradedVector.vacuum(ctx_of(q=0.5))
    g = GradedVector.vacuum(ctx_of(q=0.4))
    with pytest.raises(ValueError):
        q_inner(f, g)


@pytest.mark.parametrize("q", Q_GRID)
def test_q_inner_symmetric_positive(q):
    ctx = QContext(q, 2, 3)
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = random_vector(ctx, rng)
        g = random_vector(ctx, rng)
        assert q_inner(f, g) == pytest.approx(q_inner(g, f), rel=1e-12, abs=1e-12)
        assert q_inner(f, f) > 0.0


def test_create_examples():
    ctx = ctx_of()
    e1, e2 = basis_vector(2, 0), basis_vector(2, 1)
    assert np.array_equal(create(e1, GradedVector.vacuum(ctx)).component(1), e1)
    one = GradedVector(ctx, {1: e2})
    assert np.array_equal(create(e1, one).component(2), elementary_tensor([e1, e2]))


def test_create_truncation_drop():
    ctx = QContext(0.5, 2, 2)
    top = GradedVector(ctx, {2: np.ones(4)})
    assert create(basis_vector(2, 0), top).components == {}


@pytest.mark.parametrize("q", Q_GRID)
def test_annihilate_examples(q):
    ctx = ctx_of(q=q)
    e1, e2 = basis_vector(2, 0), basis_vector(2, 1)
    ee = GradedVector(ctx, {2: elementary_tensor([e1, e1])})
    assert np.allclose(annihilate(e1, ee).component(1), (1 + q) * e1, atol=1e-15)
    mixed = GradedVector(ctx, {3: elementary_tensor([e1, e2, e1])})
    out = annihilate(e1, mixed).component(2)
    expected = elementary_tensor([e2, e1]) + q**2 * elementary_tensor([e1, e2])
    assert np.allclose(out, expected, atol=1e-15)
    assert annihilate(e1, GradedVector.vacuum(ctx)).components == {}


@pytest.mark.parametrize("q", Q_GRID)
def test_creation_annihilation_adjoint(q):
    ctx = QContext(q, 3, 4)
    rng = np.random.default_rng(11)
    for _ in range(10):
        phi = rng.standard_normal(3)
        f = random_vector(ctx, rng)
        g = random_vector(ctx, rng)
        lhs = q_inner(create(phi, f), g)
        rhs = q_inner(f, annihilate(phi, g))
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale


def _creation_block(phi, n, dim):
    """Kronecker-product oracle: degree n-1 -> n left tensoring by phi."""
    return np.kron(np.reshape(phi, (dim, 1)), np.eye(dim ** (n - 1)))


def _offsets(ctx):
    """Where each degree's block starts in the truncated space, and its size."""
    return [0, *itertools.accumulate(ctx.dim**n for n in range(ctx.max_degree + 1))]


def _annihilation_block(phi, n, dim, q):
    """Kronecker-product oracle: degree n -> n-1 q-weighted contraction."""
    out = np.zeros((dim ** (n - 1), dim**n))
    for i in range(n):
        out += q**i * np.kron(
            np.kron(np.eye(dim**i), np.reshape(phi, (1, dim))), np.eye(dim ** (n - 1 - i))
        )
    return out


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("dim,top", ((1, 4), (2, 4), (3, 3)))
def test_operator_matrices_match_kron_blocks(dim, top, q):
    ctx = QContext(q, dim, top)
    phi = np.random.default_rng(17).standard_normal(dim)
    offsets = _offsets(ctx)
    plus, minus = creation_matrix(phi, ctx), annihilation_matrix(phi, ctx)
    want_plus, want_minus = np.zeros_like(plus), np.zeros_like(minus)
    for n in range(1, top + 1):
        lo, mid, hi = offsets[n - 1], offsets[n], offsets[n + 1]
        want_plus[mid:hi, lo:mid] = _creation_block(phi, n, dim)
        want_minus[lo:mid, mid:hi] = _annihilation_block(phi, n, dim, q)
    assert np.array_equal(plus, want_plus)
    assert np.allclose(minus, want_minus, rtol=0, atol=1e-14)


def _field_matrix(phi, ctx):
    """Creation plus annihilation by phi in the monomial basis."""
    return creation_matrix(phi, ctx) + annihilation_matrix(phi, ctx)


def _gram_matrix(ctx):
    """Block-diagonal matrix of the twisted scalar product: apply_pq on the
    identity columns of each degree."""
    offsets = _offsets(ctx)
    mat = np.zeros((offsets[-1], offsets[-1]))
    for n in range(ctx.max_degree + 1):
        lo, hi = offsets[n], offsets[n + 1]
        mat[lo:hi, lo:hi] = np.column_stack([apply_pq(n, e, ctx) for e in np.eye(hi - lo)])
    return mat


def _flat(f):
    return np.concatenate([f.component(n) for n in range(f.ctx.max_degree + 1)])


def test_field_matrix_single_mode():
    ctx = QContext(0.5, 1, 1)
    assert np.array_equal(_field_matrix([1.0], ctx), np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("q", Q_GRID)
def test_field_matrix_q_self_adjoint(q):
    # self-adjointness holds in the twisted pairing: G^T P == P G
    ctx = QContext(q, 2, 3)
    rng = np.random.default_rng(5)
    phi = rng.standard_normal(2)
    G = _field_matrix(phi, ctx)
    P = _gram_matrix(ctx)
    assert np.linalg.norm(G.T @ P - P @ G, 2) <= 1e-12 * np.linalg.norm(P @ G, 2)


def test_field_matrix_consistent_with_operators():
    ctx = QContext(-0.5, 2, 3)
    rng = np.random.default_rng(9)
    phi = rng.standard_normal(2)
    f = random_vector(ctx, rng)
    by_ops = create(phi, f) + annihilate(phi, f)
    by_matrix = _field_matrix(phi, ctx) @ _flat(f)
    assert np.allclose(_flat(by_ops), by_matrix, atol=1e-13)


def test_field_matrix_cap():
    ctx = QContext(0.5, 3, 8)
    with pytest.raises(ValueError):
        creation_matrix(basis_vector(3, 0), ctx)
    assert creation_matrix(basis_vector(2, 0), QContext(0.5, 2, 3)).shape == (15, 15)


def _whole_space_matrix(ctx, operator):
    """The operator on every identity column of the truncated space at once,
    as one batched vector: the dense builders' former route."""
    sizes = [ctx.dim**n for n in range(ctx.max_degree + 1)]
    blocks = np.split(np.eye(sum(sizes)), np.cumsum(sizes[:-1]), axis=1)
    image = operator(GradedVector._of(ctx, dict(enumerate(blocks)))).components
    return np.hstack([image.get(n, np.zeros_like(b)) for n, b in enumerate(blocks)]).T


@pytest.mark.parametrize("q", (-0.7, 0.3, 0.9))
@pytest.mark.parametrize("dim,top", ((1, 5), (2, 5), (3, 3)))
def test_operator_matrices_by_degree_equal_the_whole_space_route(dim, top, q):
    ctx = QContext(q, dim, top)
    phi = np.random.default_rng([dim, top]).standard_normal(dim)
    for build, operator in ((creation_matrix, create), (annihilation_matrix, annihilate)):
        # equal, not the same bytes: the whole-space route writes
        # phi_i * 0 = -0.0 in blocks the operator does not reach, where the
        # builders leave +0.0
        want = _whole_space_matrix(ctx, lambda f: operator(phi, f))
        assert np.array_equal(build(phi, ctx), want)


def test_operator_matrices_build_one_degree_at_a_time():
    # a 1023 x 1023 matrix is 8 MiB; applying the operator to the whole
    # space's identity at once peaked at 24 MiB, about three matrices
    ctx = QContext(0.5, 2, 9)
    phi = np.array([0.3, -0.7])
    for build in (creation_matrix, annihilation_matrix):
        tracemalloc.start()
        try:
            mat = build(phi, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mat.shape == (1023, 1023)
        assert peak < 2 * mat.nbytes


@pytest.mark.parametrize("q", (-0.7, 0.3, 0.5, 0.9))
@pytest.mark.parametrize("dim", (2, 3))
def test_batched_basis_findings_equal_one_call_per_pair(dim, q):
    # swap_constant annihilates by e_1 and e_2 as one batch, and
    # _basis_residuals takes every phi = e_i as a batch: bit for bit as one
    # call per vector or per pair
    ctx = QContext(q, dim, 6 if dim == 2 else 4)
    e1, e2 = basis_vector(dim, 0), basis_vector(dim, 1)
    for n in range(1, ctx.max_degree):
        cols = GradedVector._of(QContext(q, dim, n), {n: np.eye(dim**n)})
        term = create(e2, annihilate(e1, cols)) - create(e1, annihilate(e2, cols))
        assert swap_constant(n, dim, q) == float(np.linalg.norm(term.components[n], 2))
    columns = [GradedVector._of(ctx, {n: np.eye(dim**n)}) for n in range(ctx.max_degree)]
    want = np.zeros((dim, dim))
    for i, j in np.ndindex(want.shape):
        e_i, e_j = basis_vector(dim, i), basis_vector(dim, j)
        want[i, j] = max(np.linalg.norm(commutation_residual(e_i, e_j, f)) for f in columns)
    assert _basis_residuals(ctx).tobytes() == want.tobytes()


def _contract_tensordot(phi, t, n, q):
    """Oracle for contract: one tensordot over each slot of the n-cube."""
    t = np.asarray(t, dtype=float)
    cube = t.reshape(t.shape[:-1] + (phi.size,) * n)
    out = np.zeros(t.shape[:-1] + (phi.size,) * (n - 1))
    weight = 1.0
    for i in range(n):
        out += weight * np.tensordot(phi, cube, axes=(0, cube.ndim - n + i))
        weight *= q
    return out.reshape(t.shape[:-1] + (-1,))


@pytest.mark.parametrize("lead", ((), (3,)))
@pytest.mark.parametrize("dim,n", ((1, 6), (2, 8), (3, 5), (4, 4)))
@pytest.mark.parametrize("q", (-0.7, 0.0, 0.5))
def test_contract_matches_tensordot_oracle(dim, n, lead, q):
    rng = np.random.default_rng([dim, n, len(lead)])
    phi = rng.standard_normal(dim)
    t = rng.standard_normal(lead + (dim**n,))
    got = contract(phi, t, n, q)
    assert got.shape == lead + (dim ** (n - 1),)
    gap = np.max(np.abs(got - _contract_tensordot(phi, t, n, q)))
    assert gap <= 1e-15 * np.linalg.norm(phi) * np.linalg.norm(t)

    # a batch of phi, shape (3, 1, d), against a batch of tensors, as the
    # commutation blocks pass them: every row is bit for bit the unbatched call
    phis = rng.standard_normal((3, 1, dim))
    ts = rng.standard_normal((2, dim**n))
    got = contract(phis, ts, n, q)
    assert got.shape == (3, 2, dim ** (n - 1))
    for i, k in itertools.product(range(3), range(2)):
        row = contract(phis[i, 0], ts[k], n, q)
        assert np.array_equal(got[i, k], row)
        gap = np.max(np.abs(row - _contract_tensordot(phis[i, 0], ts[k], n, q)))
        assert gap <= 1e-15 * np.linalg.norm(phis[i, 0]) * np.linalg.norm(ts[k])

    # a tensor of degree n + 1, as field_mul passes: its last slot passes
    # through, so the oracle takes that slot as a batch axis
    t = rng.standard_normal(lead + (dim ** (n + 1),))
    got = contract(phi, t, n, q)
    assert got.shape == lead + (dim**n,)
    last_first = np.swapaxes(t.reshape(lead + (dim**n, dim)), -1, -2)
    want = np.swapaxes(_contract_tensordot(phi, last_first, n, q), -1, -2)
    gap = np.max(np.abs(got - want.reshape(got.shape)))
    assert gap <= 1e-15 * np.linalg.norm(phi) * np.linalg.norm(t)


def _contract_elementwise(phi, t, n, q):
    """The per-slot contract that slot_sum replaced, kept as its reference:
    slot i is sum_j phi_j view[..., j, :] with the tensor viewed as
    (..., d**i, d, rest), d strided multiply-adds weighted q^i."""
    t = np.asarray(t, dtype=float)
    d = phi.shape[-1]
    coef = [phi[..., j, None, None] for j in range(d)]
    weight = 1.0
    for i in range(n):
        view = t.reshape(t.shape[:-1] + (d**i, d, -1))
        slot = coef[0] * view[..., 0, :]
        for j in range(1, d):
            slot += coef[j] * view[..., j, :]
        slot = slot.reshape(slot.shape[:-2] + (-1,))
        slot *= weight
        if i == 0:
            out = np.zeros(slot.shape)
        out += slot
        weight *= q
    return out


@pytest.mark.parametrize("q", (0.5, 0.3, -0.7, 0.9))
@pytest.mark.parametrize("dim", (1, 2, 3, 4))
def test_contract_matches_elementwise_reference(dim, q):
    # slot_sum adds the weighted slots before phi meets them, the reference
    # after, so they agree within a bound fixed from float64's eps: 4 n d eps
    # times |phi| contracted with |t| at weights |q|^i, entry by entry
    eps = np.finfo(float).eps
    rng = np.random.default_rng([dim, int(10 * q) + 10])
    for n in range(1, 7):
        phi, phis = rng.standard_normal(dim), rng.standard_normal((3, dim))
        for trailing in (0, 1):  # slots past the n-th pass through, as field_mul passes them
            t = rng.standard_normal(dim ** (n + trailing))
            ts = rng.standard_normal((3, dim ** (n + trailing)))
            for a, b in ((phi, t), (phis, ts), (phi, ts)):
                got = contract(a, b, n, q)
                want = _contract_elementwise(a, b, n, q)
                bound = 4 * n * dim * eps * _contract_elementwise(np.abs(a), np.abs(b), n, abs(q))
                assert got.shape == want.shape == b.shape[:-1] + (dim ** (n - 1 + trailing),)
                assert np.all(np.abs(got - want) <= bound), (n, trailing, a.shape, b.shape)
                for i in range(len(got) if got.ndim > 1 else 0):
                    assert np.array_equal(got[i], contract(a[i] if a.ndim > 1 else a, b[i], n, q))


@pytest.mark.parametrize("dim,q", ((1, 0.5), (2, -0.7), (3, 0.3), (4, 0.9)))
def test_apply_to_fock_annihilators_are_annihilate(dim, q):
    # a basis word of annihilators reads one row of apply_to_fock's tables,
    # which pins their layout: row (i, j) is a^-(e_i) a^-(e_j), bit for bit
    ctx = QContext(q, dim, 4)
    rng = np.random.default_rng([dim, 61])
    fs = [random_vector(ctx, rng) for _ in range(3)]
    for f in (*fs, stack_vectors(fs)):
        for i in range(dim):
            e_i = basis_vector(dim, i)
            words = [({(0, 1): e_i[None, :]}, annihilate(e_i, f))]
            for j in range(dim):
                e_j = basis_vector(dim, j)
                both = tensor_product(e_i, e_j)[None, :]
                words.append(({(0, 2): both}, annihilate(e_i, annihilate(e_j, f))))
            for word, want in words:
                got = apply_to_fock(word, f)
                assert got.components.keys() == want.components.keys()
                for n, arr in want.components.items():
                    assert np.array_equal(got.components[n], arr), (i, n)


def _commutation_oracle(phi, psi, ctx):
    """(exchange, swapped) as the largest dense 2-norm over degrees < N, one
    SVD per degree, variant and pair."""
    q, want = ctx.q, [0.0, 0.0]
    for n in range(ctx.max_degree):
        cols = np.eye(ctx.dim**n)
        block = contract(phi, tensor_product(psi, cols), n + 1, q)
        for k, (plus_vec, minus_vec) in enumerate(((psi, phi), (phi, psi))):
            term = block
            if n > 0:
                term = term - q * tensor_product(plus_vec, contract(minus_vec, cols, n, q))
            want[k] = max(want[k], float(np.linalg.norm(term - float(phi @ psi) * cols, 2)))
    return want


def _swap_constant_oracle(ctx):
    """max over degrees < N of the 2-norm of e_2 (x) M_(e_1) - e_1 (x) M_(e_2),
    with M_x built by the tensordot oracle."""
    if ctx.dim == 1:
        return 0.0
    e1, e2 = basis_vector(ctx.dim, 0), basis_vector(ctx.dim, 1)
    top = 0.0
    for n in range(1, ctx.max_degree):
        cols = np.eye(ctx.dim**n)
        term = np.kron(_contract_tensordot(e1, cols, n, ctx.q), e2)
        term -= np.kron(_contract_tensordot(e2, cols, n, ctx.q), e1)
        top = max(top, float(np.linalg.norm(term, 2)))
    return top


def _swapped_finding(ctx):
    """The commutation suite's finding on the argument-swapped variant."""
    values, findings, side_checks = SUITES["commutation"].findings(ctx)
    assert values == []
    assert side_checks == ((findings["basis_max_residual"], 1e-12),)
    return findings["argument_swapped_variant_max_residual"]


def _below_edge(ctx, rng):
    """A commutation trial's f: standard normal on degrees 0..N-1."""
    return GradedVector._flat(ctx, SUITES["commutation"].draw(ctx, rng)[2], range(ctx.max_degree))


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("dim,top", ((1, 6), (2, 6), (3, 6)))
def test_commutation_matches_dense_svd_oracle(dim, top, q):
    """At each basis pair the exchange value is a Frobenius bound: at least
    the dense 2-norm and still within the tolerance; a trial on a vector
    below the edge holds only rounding.  The swapped variant's dense 2-norm
    is |q| |phi ^ psi| max c_n, so at most |phi| |psi| times the finding,
    and only rounding when d = 1, q = 0 or psi = +-phi."""
    ctx = QContext(q, dim, top)
    basis = _basis_residuals(ctx)
    for i, j in np.ndindex(basis.shape):
        want_exchange = _commutation_oracle(basis_vector(dim, i), basis_vector(dim, j), ctx)[0]
        assert want_exchange <= basis[i, j] <= 1e-12
    rng = np.random.default_rng([dim, top])
    phi = rng.standard_normal(dim)
    pairs = [(phi, rng.standard_normal(dim)), (phi, 0.5 * rng.standard_normal(dim))]
    pairs += [(phi, phi), (phi, -phi)]
    finding = _swapped_finding(ctx)
    for k, (a, b) in enumerate(pairs):
        assert commutation_residual(a, b, _below_edge(ctx, rng)) <= 1e-12
        want_swapped = _commutation_oracle(a, b, ctx)[1]
        size = np.linalg.norm(a) * np.linalg.norm(b)
        if dim == 1 or q == 0.0 or k >= 2:
            # the dense block holds only rounding here
            assert want_swapped <= 1e-12 * size
        else:
            assert 1e-3 < want_swapped <= (1 + 1e-14) * finding * size


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_commutation_finding_is_the_swapped_supremum(dim, q):
    """The finding is |q| max c_n: the swapped variant's dense 2-norm at the
    orthonormal pair (e_1, e_2), an upper bound on it at random unit pairs,
    and 0 when d = 1 or q = 0."""
    ctx = QContext(q, dim, 5)
    finding = _swapped_finding(ctx)
    assert finding == pytest.approx(abs(q) * _swap_constant_oracle(ctx), rel=1e-14)
    if dim == 1 or q == 0.0:
        assert finding == 0.0
        return
    e1, e2 = basis_vector(dim, 0), basis_vector(dim, 1)
    assert _commutation_oracle(e1, e2, ctx)[1] == pytest.approx(finding, rel=1e-14)
    rng = np.random.default_rng([dim, 7])
    for _ in range(10):
        phi, psi = rng.standard_normal(dim), rng.standard_normal(dim)
        phi /= np.linalg.norm(phi)
        psi /= np.linalg.norm(psi)
        assert _commutation_oracle(phi, psi, ctx)[1] <= (1 + 1e-14) * finding


def test_kernel_results_skip_revalidation(monkeypatch):
    ctx = QContext(0.5, 2, 4)
    rng = np.random.default_rng(3)
    f, g = random_vector(ctx, rng), random_vector(ctx, rng)
    # 2 a^+((1, 0.5)) a^-((0.25, -1)) - 1 as kernels
    p = {(1, 1): 2.0 * np.outer([1.0, 0.5], [0.25, -1.0]), (0, 0): np.array([[-1.0]])}
    calls = []
    original = GradedVector.__init__
    monkeypatch.setattr(
        GradedVector, "__init__", lambda self, *args: calls.append(1) or original(self, *args)
    )
    results = [wick_inverse(f), graded_tensor(f, g), apply_to_fock(p, f)]
    assert calls == []
    for result in results:
        assert result.components
        assert not any(arr.flags.writeable for arr in result.components.values())


def _by_constructor(ctx, x):
    return GradedVector(ctx, {0: [1.0], 1: [x, x], 2: [x * x] * 4, 3: [x * x] * 8})


def _entries(x):
    """The entries of `_by_constructor(ctx, x)` at d = 2, as one flat row."""
    return np.array([1.0, x, x] + [x * x] * 12)


@pytest.mark.parametrize(
    "build, bad, first",
    (
        # degrees 2 and up overflow; the error names degree 2
        pytest.param(_by_constructor, 1e200, 2, id="constructor"),
        pytest.param(
            lambda ctx, x: graded_tensor(*[GradedVector(ctx, {0: [1.0], 1: [x, x], 2: [x] * 4})] * 2),
            1e200,
            2,
            id="graded-tensor",
        ),
        # one flat draw of 31 entries, degrees 0-3 taking the first 15: a
        # NaN only in the last, in degree 4
        pytest.param(
            lambda ctx, x: GradedVector._flat(ctx, np.array([1.0] * 30 + [x]), range(5)),
            math.nan,
            4,
            id="flat-draw-top-degree",
        ),
        # a stream's draws stacked into one block and cut once: one test
        # covers the block, and its copies name the first bad degree
        pytest.param(
            lambda ctx, x: GradedVector._flat(ctx, np.stack([_entries(1.0), _entries(x)]), range(4)),
            1e200,
            2,
            id="stack",
        ),
    ),
)
def test_seal_names_the_first_non_finite_degree(build, bad, first):
    # every way a vector is made gives sealed components, and a non-finite
    # entry raises naming the first degree it is in
    ctx = QContext(0.5, 2, 4)
    vec = build(ctx, 1.0)
    assert vec.components and not any(arr.flags.writeable for arr in vec.components.values())
    message = rf"^degree-{first} component entries must be finite$"
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
        build(ctx, bad)


# every function in src/qwick that sets an array's writeable flag: a
# component is sealed exactly when it is read-only, so each site marks an
# array only once its entries are known to be finite
READ_ONLY_SITES = [
    "fock.GradedVector._flat",  # a 1-D flat, whose slices inherit the flag
    "fock.GradedVector._flat",  # a batched block's per-degree copies
    "fock._pq_cached",
    "fock._seal",
    "fock.pq_matrix",
    "scales._weight_power",
]


def _read_only_sites(node, name):
    """The qualified function name of every writeable assignment or setflags
    call below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _read_only_sites(child, f"{name}.{child.name}")
            continue
        targets = child.targets if isinstance(child, ast.Assign) else []
        if any(getattr(target, "attr", None) == "writeable" for target in targets):
            yield name
        elif isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "setflags":
            yield name
        yield from _read_only_sites(child, name)


def test_arrays_are_marked_read_only_only_at_known_sites():
    sites = []
    for path in sorted(Path(qwick.__file__).parent.glob("*.py")):
        sites += _read_only_sites(ast.parse(path.read_text()), path.stem)
    assert sorted(sites) == READ_ONLY_SITES


@pytest.mark.parametrize(
    "operation",
    (
        pytest.param(lambda f, g: f + g, id="add"),
        pytest.param(lambda f, g: wick_exp(f), id="wick-exp"),
    ),
)
def test_sealed_components_pass_through_untested(operation, monkeypatch):
    # the seal tests fresh arrays only: an operand's untouched components,
    # read-only already, are taken over without another finiteness test
    ctx = QContext(0.5, 2, 4)
    rng = np.random.default_rng(21)
    f, g = random_vector(ctx, rng), random_vector(ctx, rng, [1, 2])
    inputs = [*f.components.values(), *g.components.values()]
    tested = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda x: tested.append(x) or isfinite(x))
    result = operation(f, g)
    assert tested
    assert not any(np.shares_memory(x, arr) for x in tested for arr in inputs)
    assert not any(arr.flags.writeable for arr in result.components.values())


def test_commutation_examples():
    rng = np.random.default_rng(5)
    single = _below_edge(QContext(0.5, 1, 4), rng)
    assert commutation_residual([1.0], [1.0], single) <= 1e-12
    # free case with orthogonal vectors: a^- a^+ alone must vanish on the pairing
    ctx0 = QContext(0.0, 2, 3)
    e1, e2 = basis_vector(2, 0), basis_vector(2, 1)
    assert commutation_residual(e1, e2, _below_edge(ctx0, rng)) <= 1e-12
    # a zero vector has a zero residual, not 0 / 0
    zero = GradedVector(ctx0, {0: [0.0], 1: [0.0, 0.0]})
    assert commutation_residual(e1, e1, zero) == 0.0
    assert commutation_residual(e1, e1, GradedVector.zero(ctx0)) == 0.0


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_commutation_random_grid(q, dim):
    ctx = QContext(q, dim, 4)
    rng = np.random.default_rng(13)
    for _ in range(5):
        phi = rng.standard_normal(dim)
        psi = rng.standard_normal(dim)
        phi /= np.linalg.norm(phi)
        psi /= np.linalg.norm(psi)
        assert commutation_residual(phi, psi, _below_edge(ctx, rng)) <= 1e-12


def test_commutation_variant_form_differs():
    # trading the arguments instead of exchanging the operators leaves a gap;
    # report it, never absorb it
    ctx = QContext(-0.9, 3, 4)
    rng = np.random.default_rng(0)
    phi, psi = rng.standard_normal(3), rng.standard_normal(3)
    assert commutation_residual(phi, psi, _below_edge(ctx, rng)) <= 1e-12
    assert _commutation_oracle(phi, psi, ctx)[1] > 1e-2
    assert _swapped_finding(ctx) > 1e-2


@pytest.mark.parametrize("q", Q_GRID)
def test_pq_spectrum_degree_two(q):
    ctx = QContext(q, 2, 2)
    lo, hi = pq_spectrum(2, ctx)
    assert lo == pytest.approx(1 - abs(q), abs=1e-12)
    assert hi == pytest.approx(1 + abs(q), abs=1e-12)


def test_pq_spectrum_trivial_cases():
    for q in Q_GRID:
        assert pq_spectrum(1, QContext(q, 2, 1)) == (1.0, 1.0)
    for n in range(4):
        lo, hi = pq_spectrum(n, QContext(0.0, 2, 4))
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("q", (-0.95, -0.5, 0.0, 0.5, 0.95))
@pytest.mark.parametrize("dim", (1, 2))
def test_pq_positivity_and_norm_bound(q, dim):
    ctx = QContext(q, dim, 6)
    for n in range(7):
        lo, hi = pq_spectrum(n, ctx)
        assert lo > 0.0
        assert hi <= q_factorial(n, abs(q)) + 1e-10


def test_pq_norm_exceeds_plain_weights_for_negative_q():
    lo, hi = pq_spectrum(2, QContext(-0.5, 2, 2))
    assert hi > q_factorial(2, -0.5) + 1e-10  # 1.5 vs 0.5


def test_pq_spectrum_cap():
    with pytest.raises(ValueError):
        pq_spectrum(7, QContext(0.5, 4, 7))


def test_graded_vector_json_roundtrip_bit_exact():
    ctx = QContext(-0.3, 2, 3)
    rng = np.random.default_rng(21)
    f = random_vector(ctx, rng)
    text = json.dumps(f.to_json_dict())
    g = GradedVector.from_json_dict(json.loads(text))
    assert g.ctx.q == ctx.q and g.ctx.dim == ctx.dim and g.ctx.max_degree == ctx.max_degree
    for n in f.components:
        assert f.component(n).tobytes() == g.component(n).tobytes()
    # and the serialized form is stable under one more cycle
    again = GradedVector.from_json_dict(json.loads(json.dumps(g.to_json_dict())))
    assert json.dumps(again.to_json_dict()) == text


def test_graded_vector_arithmetic():
    ctx = ctx_of()
    rng = np.random.default_rng(3)
    f = random_vector(ctx, rng)
    g = random_vector(ctx, rng)
    h = f + g.scale(-2.0)
    for n in range(ctx.max_degree + 1):
        assert np.allclose(h.component(n), f.component(n) - 2 * g.component(n))
    assert fock_norm(GradedVector.vacuum(ctx)) == 1.0
