import itertools

import numpy as np
import pytest

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
    degree_offsets,
    elementary_tensor,
    fock_norm,
    pq_matrix,
    pq_spectrum,
    q_inner,
    tensor_product,
)
from qwick.qcombinatorics import inversions, q_factorial
from qwick.scales import graded_tensor
from qwick.series import wick_inverse
from qwick.wick import NormalWord, WickPolynomial, apply_to_fock

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
    # each cell sums its q**inv in permutation order, also across chunks
    for dim, top in ((2, 7), (3, 6), (4, 4)):
        for n in range(2, top + 1):
            got, want = pq_matrix(n, dim, q), _pq_matrix_oracle(n, dim, q)
            assert np.array_equal(got, want), (dim, n)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (dim, n)


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
        f = GradedVector.random(ctx, rng)
        g = GradedVector.random(ctx, rng)
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
        f = GradedVector.random(ctx, rng)
        g = GradedVector.random(ctx, rng)
        lhs = q_inner(create(phi, f), g)
        rhs = q_inner(f, annihilate(phi, g))
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale


def _creation_block(phi, n, dim):
    """Kronecker-product oracle: degree n-1 -> n left tensoring by phi."""
    return np.kron(np.reshape(phi, (dim, 1)), np.eye(dim ** (n - 1)))


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
    offsets = degree_offsets(ctx)
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
    offsets = degree_offsets(ctx)
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
    f = GradedVector.random(ctx, rng)
    by_ops = create(phi, f) + annihilate(phi, f)
    by_matrix = _field_matrix(phi, ctx) @ _flat(f)
    assert np.allclose(_flat(by_ops), by_matrix, atol=1e-13)


def test_field_matrix_cap():
    ctx = QContext(0.5, 3, 8)
    with pytest.raises(ValueError):
        creation_matrix(basis_vector(3, 0), ctx)
    assert degree_offsets(QContext(0.5, 2, 3))[-1] == 15


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


@pytest.mark.parametrize("dim,top", ((2, 6), (2, 8), (3, 6)))
def test_commutation_stacked_svd_is_the_two_norm(dim, top):
    """Both variants share one stacked SVD per degree; it must give exactly
    what np.linalg.norm(term, 2) gives for each variant on its own."""
    ctx = QContext(-0.7, dim, top)
    rng = np.random.default_rng(dim * top)
    phi, psi = rng.standard_normal(dim), rng.standard_normal(dim)
    want = [0.0, 0.0]
    for n in range(top):
        cols = np.eye(dim**n)
        block = contract(phi, tensor_product(psi, cols), n + 1, ctx.q)
        for k, (plus_vec, minus_vec) in enumerate(((psi, phi), (phi, psi))):
            term = block
            if n > 0:
                term = term - ctx.q * tensor_product(plus_vec, contract(minus_vec, cols, n, ctx.q))
            want[k] = max(want[k], float(np.linalg.norm(term - float(phi @ psi) * cols, 2)))
    assert commutation_residual(phi, psi, ctx) == tuple(want)


def test_kernel_results_skip_revalidation(monkeypatch):
    ctx = QContext(0.5, 2, 4)
    rng = np.random.default_rng(3)
    f, g = GradedVector.random(ctx, rng), GradedVector.random(ctx, rng)
    word = NormalWord.build(creators=[[1.0, 0.5]], annihilators=[[0.25, -1.0]])
    p = WickPolynomial({word: 2.0, NormalWord(): -1.0})
    calls = []
    original = GradedVector.__post_init__
    monkeypatch.setattr(
        GradedVector, "__post_init__", lambda self: calls.append(1) or original(self)
    )
    results = [wick_inverse(f), graded_tensor(f, g), apply_to_fock(p, f)]
    assert calls == []
    for result in results:
        assert result.degrees()
        assert not any(arr.flags.writeable for arr in result.components.values())
    big = GradedVector(ctx, {0: [1e200], 1: [1e200, 1e200]})
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        graded_tensor(big, big)


def test_commutation_examples():
    assert commutation_residual([1.0], [1.0], QContext(0.5, 1, 4))[0] <= 1e-12
    # free case with orthogonal vectors: a^- a^+ alone must vanish on the pairing
    ctx0 = QContext(0.0, 2, 3)
    assert commutation_residual(basis_vector(2, 0), basis_vector(2, 1), ctx0)[0] <= 1e-12


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
        assert commutation_residual(phi, psi, ctx)[0] <= 1e-12


def test_commutation_variant_form_differs():
    # trading the arguments instead of exchanging the operators leaves a gap;
    # report it, never absorb it
    ctx = QContext(-0.9, 3, 4)
    rng = np.random.default_rng(0)
    phi, psi = rng.standard_normal(3), rng.standard_normal(3)
    exchange, swapped = commutation_residual(phi, psi, ctx)
    assert exchange <= 1e-12
    assert swapped > 1e-2


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
    f = GradedVector.random(ctx, rng)
    text = f.to_json()
    g = GradedVector.from_json(text)
    assert g.ctx.q == ctx.q and g.ctx.dim == ctx.dim and g.ctx.max_degree == ctx.max_degree
    for n in f.degrees():
        assert f.component(n).tobytes() == g.component(n).tobytes()
    # and the serialized form is stable under one more cycle
    assert GradedVector.from_json(g.to_json()).to_json() == text


def test_graded_vector_arithmetic():
    ctx = ctx_of()
    rng = np.random.default_rng(3)
    f = GradedVector.random(ctx, rng)
    g = GradedVector.random(ctx, rng)
    h = f + g.scale(-2.0)
    for n in range(ctx.max_degree + 1):
        assert np.allclose(h.component(n), f.component(n) - 2 * g.component(n))
    assert fock_norm(GradedVector.vacuum(ctx)) == 1.0
