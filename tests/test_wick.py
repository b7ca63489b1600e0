import math

import numpy as np
import pytest

import qwick.wick as wick
from qwick.fock import (
    GradedVector,
    QContext,
    annihilate,
    basis_vector,
    create,
    elementary_tensor,
    q_inner,
)
from qwick.qcombinatorics import q_integer
from qwick.wick import (
    MAX_MOMENT_ORDER,
    add_scaled,
    apply_to_fock,
    field_mul,
    moment,
    moments,
    pairing_moments,
    vacuum_vector,
    wick_monomial,
    wick_monomial_tails,
    wick_mul_poly,
)

from oracles import random_vector, stack_vectors

Q_GRID = (-0.9, -0.5, 0.0, 0.3, 0.5, 0.9)
DYADIC_Q = (-0.5, 0.0, 0.25, 0.5)
MONOMIAL_Q = (-0.9, -0.5, 0.0, 0.5, 0.9, 1 - 1e-6)


# -- the word-dict oracle ----------------------------------------------------
# A polynomial is {word: coefficient}, a word the pair (creators,
# annihilators) of argument tuples, so equal words merge exactly.  It shares
# no code with the kernel algebra of qwick.wick; `kernels` is the bridge: a
# word is multilinear in its arguments, so it adds c (creators) (x)
# (annihilators) to the kernel of its bidegree.


def word(creators=(), annihilators=()) -> tuple:
    def args(vs):
        return tuple(tuple(float(x) for x in np.asarray(v, dtype=float).reshape(-1)) for v in vs)

    return args(creators), args(annihilators)


def w_add(p: dict, r: dict, c: float = 1.0) -> dict:
    """p + c r, merged word by word."""
    out = dict(p)
    for w, v in r.items():
        out[w] = out.get(w, 0.0) + c * v
    return out


def w_field(phi) -> dict:
    (phi_t,), _ = word([phi])
    return {((phi_t,), ()): 1.0, ((), (phi_t,)): 1.0}


def w_wick_mul(p1: dict, p2: dict, q: float) -> dict:
    """Concatenate creator and annihilator strings; the creators of the right
    word jump the annihilators of the left one at q each."""
    out: dict = {}
    for (c1, a1), x in p1.items():
        for (c2, a2), y in p2.items():
            w = (c1 + c2, a1 + a2)
            out[w] = out.get(w, 0.0) + x * y * q ** (len(c2) * len(a1))
    return out


def w_adjoint(p: dict) -> dict:
    """Reverse each word and swap its creator and annihilator strings."""
    out: dict = {}
    for (c, a), x in p.items():
        w = (tuple(reversed(a)), tuple(reversed(c)))
        out[w] = out.get(w, 0.0) + x
    return out


def w_field_mul(phi, p: dict, q: float) -> dict:
    """(a^+(phi) + a^-(phi)) p, normal-ordered: a^-(phi) passes creator i at
    the cost q^(i-1) and the pairing (phi, h_i), then joins the annihilators."""
    (phi_t,), _ = word([phi])
    out: dict = {}

    def put(w, x):
        out[w] = out.get(w, 0.0) + x

    for (cs, a_s), x in p.items():
        put(((phi_t,) + cs, a_s), x)
        weight = 1.0
        for i, h in enumerate(cs):
            put((cs[:i] + cs[i + 1 :], a_s), x * weight * float(np.dot(phi_t, h)))
            weight *= q
        put((cs, (phi_t,) + a_s), x * weight)
    return out


def w_monomial(vectors: list, q: float) -> dict:
    """The contraction recursion on words, every sub-list rebuilt."""
    if not vectors:
        return {word(): 1.0}
    head, tail = vectors[0], vectors[1:]
    result = w_field_mul(head, w_monomial(tail, q), q)
    weight = 1.0
    for j, t in enumerate(tail):
        rest = w_monomial(tail[:j] + tail[j + 1 :], q)
        result = w_add(result, rest, -weight * float(np.dot(head, t)))
        weight *= q
    return result


def w_apply(p: dict, f: GradedVector) -> GradedVector:
    """Each word as its operators through create and annihilate, right to left."""
    out = GradedVector.zero(f.ctx)
    for (cs, a_s), x in p.items():
        current = f
        for g in reversed(a_s):
            current = annihilate(np.asarray(g), current)
        for h in reversed(cs):
            current = create(np.asarray(h), current)
        out = out + current.scale(x)
    return out


def kernels(p: dict, dim: int) -> dict:
    """The word-to-kernel converter."""
    out: dict = {}
    for (cs, a_s), x in p.items():
        key = (len(cs), len(a_s))
        block = x * np.outer(elementary_tensor(cs), elementary_tensor(a_s))
        out[key] = out[key] + block if key in out else block
    return out


def gap(p: dict, r: dict) -> float:
    """Largest entry of |p - r| over every bidegree either has."""
    diff = add_scaled(p, r, -1.0)
    return max((float(np.max(np.abs(k))) for k in diff.values()), default=0.0)


def scale_of(p: dict) -> float:
    return max(1.0, max(float(np.max(np.abs(k))) for k in p.values()))


def same_bits(p: dict, r: dict) -> bool:
    return p.keys() == r.keys() and all(p[k].tobytes() == r[k].tobytes() for k in p)


def random_words(rng, dim: int, terms: int, dyadic: bool = False) -> dict:
    def vec():
        return rng.integers(-4, 5, dim).astype(float) if dyadic else rng.standard_normal(dim)

    out: dict = {}
    for _ in range(terms):
        w = word(
            [vec() for _ in range(rng.integers(0, 3))], [vec() for _ in range(rng.integers(0, 3))]
        )
        coeff = float(rng.integers(-4, 5)) if dyadic else float(rng.standard_normal())
        out[w] = out.get(w, 0.0) + coeff
    return out


def _argument_lists(dim: int, rng) -> dict[str, list]:
    """Six arguments each: generic, orthogonal (basis vectors and zeros, so
    many pairings are exactly 0) and dyadic (exact cancellations)."""
    return {
        "generic": [rng.standard_normal(dim) for _ in range(6)],
        "orthogonal": [basis_vector(dim, i % dim) * (i % 3 != 1) for i in range(6)],
        "dyadic": [rng.integers(-2, 3, dim) / 2.0 for _ in range(6)],
    }


# -- helpers on kernels --------------------------------------------------------


def single_mode():
    return basis_vector(1, 0)


IDENTITY = {(0, 0): np.ones((1, 1))}


def vacuum_expectation(p: dict, ctx: QContext) -> float:
    """Vacuum state applied to p: the degree-0 component of p acting on it."""
    return float(vacuum_vector(p, ctx).component(0)[0])


def l2_inner(p1: dict, p2: dict, ctx: QContext) -> float:
    """The polynomial scalar product: the twisted pairing of the vacuum vectors."""
    return q_inner(vacuum_vector(p1, ctx), vacuum_vector(p2, ctx))


def x_poly(k: int, q: float) -> dict:
    """Ordinary k-th power of the single-mode field, by repeated left products."""
    poly = IDENTITY
    for _ in range(k):
        poly = field_mul(single_mode(), poly, q)
    return poly


def scaled(p: dict, c: float) -> dict:
    return add_scaled({}, p, c)


# -- the Wick product ----------------------------------------------------------


def test_wick_mul_exchange_rule():
    # a^-(e) wick a^+(e) = q a^+(e) a^-(e)
    e = single_mode()
    product = wick_mul_poly(kernels({word([], [e]): 1.0}, 1), kernels({word([e]): 1.0}, 1), 0.5)
    assert list(product) == [(1, 1)]
    assert product[(1, 1)].tolist() == [[0.5]]


def test_wick_mul_neutral_element():
    rng = np.random.default_rng(0)
    p = kernels(random_words(rng, 2, 3), 2)
    for q in Q_GRID:
        assert same_bits(wick_mul_poly(IDENTITY, p, q), p)
        assert same_bits(wick_mul_poly(p, IDENTITY, q), p)


@pytest.mark.parametrize("q", Q_GRID)
def test_field_product_expansion(q):
    # (a+ + a-)(phi) wick (a+ + a-)(psi) has four words, with the weight q
    # on the exchanged one
    rng = np.random.default_rng(1)
    phi, psi = rng.standard_normal(2), rng.standard_normal(2)
    product = wick_mul_poly(wick_monomial([phi], q), wick_monomial([psi], q), q)
    assert sorted(product) == [(0, 2), (1, 1), (2, 0)]
    assert np.array_equal(product[(2, 0)][:, 0], np.kron(phi, psi))
    assert np.array_equal(product[(0, 2)][0], np.kron(phi, psi))
    assert np.array_equal(product[(1, 1)], np.outer(phi, psi) + q * np.outer(psi, phi))
    want = kernels(w_wick_mul(w_field(phi), w_field(psi), q), 2)
    assert gap(product, want) <= 1e-15 * scale_of(want)


def test_wick_mul_poly_neutral_and_scalars():
    rng = np.random.default_rng(2)
    p = wick_monomial([rng.standard_normal(2)], 0.7)
    assert gap(wick_mul_poly(p, IDENTITY, 0.7), p) == 0.0
    assert gap(wick_mul_poly(IDENTITY, p, 0.7), p) == 0.0
    product = wick_mul_poly(scaled(IDENTITY, 2.0), scaled(IDENTITY, 3.0), -0.5)
    assert product[(0, 0)].tolist() == [[6.0]]


@pytest.mark.parametrize("q", DYADIC_Q)
def test_wick_product_associative_exactly_on_dyadic_inputs(q):
    rng = np.random.default_rng(5)
    for _ in range(20):
        p1, p2, p3 = (kernels(random_words(rng, 2, 3, dyadic=True), 2) for _ in range(3))
        left = wick_mul_poly(wick_mul_poly(p1, p2, q), p3, q)
        right = wick_mul_poly(p1, wick_mul_poly(p2, p3, q), q)
        assert gap(left, right) == 0.0  # zero tolerance


@pytest.mark.parametrize("q", Q_GRID)
def test_wick_product_associative_to_roundoff(q):
    rng = np.random.default_rng(6)
    for _ in range(10):
        p1, p2, p3 = (kernels(random_words(rng, 2, 1), 2) for _ in range(3))
        left = wick_mul_poly(wick_mul_poly(p1, p2, q), p3, q)
        right = wick_mul_poly(p1, wick_mul_poly(p2, p3, q), q)
        assert gap(left, right) <= 1e-12


@pytest.mark.parametrize("q", MONOMIAL_Q)
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_wick_product_matches_word_oracle(dim, q):
    rng = np.random.default_rng(70 + dim)
    for _ in range(10):
        w1, w2 = random_words(rng, dim, 3), random_words(rng, dim, 3)
        got = wick_mul_poly(kernels(w1, dim), kernels(w2, dim), q)
        want = kernels(w_wick_mul(w1, w2, q), dim)
        assert gap(got, want) <= 1e-14 * scale_of(want)


def test_add_scaled_is_adding_the_scaled_polynomial():
    rng = np.random.default_rng(61)
    for _ in range(20):
        w1, w2 = random_words(rng, 2, 5, dyadic=True), random_words(rng, 2, 5, dyadic=True)
        c = float(rng.integers(-8, 9)) / 4.0
        got = add_scaled(kernels(w1, 2), kernels(w2, 2), c)
        assert gap(got, kernels(w_add(w1, w2, c), 2)) == 0.0  # dyadic: exact


# -- the word oracle's own adjoint, which the scalar-product routes use ---------


def test_adjoint_examples():
    e = single_mode()
    assert w_adjoint({word([e]): 1.0}) == {word([], [e]): 1.0}
    assert w_adjoint({word(): 1.0}) == {word(): 1.0}


def test_adjoint_is_involution_and_reverses():
    rng = np.random.default_rng(7)
    f1, f2, g1 = (rng.standard_normal(2) for _ in range(3))
    p = {word([f1, f2], [g1]): 2.5}
    flipped = w_adjoint(p)
    assert flipped == {word([g1], [f2, f1]): 2.5}
    assert w_adjoint(flipped) == p


# -- action on the Fock space ------------------------------------------------


def test_apply_to_fock_examples():
    ctx = QContext(0.5, 2, 3)
    e1, e2 = basis_vector(2, 0), basis_vector(2, 1)
    f = GradedVector(ctx, {1: e2})
    assert (apply_to_fock(IDENTITY, f) - f).max_abs() == 0.0
    hop = kernels({word([e1], [e2]): 1.0}, 2)
    assert np.array_equal(apply_to_fock(hop, f).component(1), e1)


@pytest.mark.parametrize("q", MONOMIAL_Q)
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_apply_to_fock_matches_word_operators(dim, q):
    # words of up to two creators and two annihilators on a vector that fills
    # the truncation, so the top of the creator phase falls off in both routes
    ctx = QContext(q, dim, 4)
    rng = np.random.default_rng(80 + dim)
    for _ in range(5):
        p = random_words(rng, dim, 4)
        f = random_vector(ctx, rng)
        want = w_apply(p, f)
        got = apply_to_fock(kernels(p, dim), f)
        assert (got - want).max_abs() <= 1e-14 * max(1.0, want.max_abs())


@pytest.mark.parametrize("q", Q_GRID)
def test_vacuum_map_intertwines_products(q):
    # applying a Wick product to the vacuum tensors the factor images
    from qwick.scales import graded_tensor

    ctx = QContext(q, 2, 6)
    rng = np.random.default_rng(8)
    for _ in range(20):
        p1, p2 = kernels(random_words(rng, 2, 2), 2), kernels(random_words(rng, 2, 2), 2)
        left = vacuum_vector(wick_mul_poly(p1, p2, q), ctx)
        right = graded_tensor(vacuum_vector(p1, ctx), vacuum_vector(p2, ctx))
        scale = max(1.0, right.euclidean_norm())
        assert (left - right).euclidean_norm() <= 1e-10 * scale


# -- orthogonal monomials ------------------------------------------------------


def test_wick_monomial_single_field():
    e = single_mode()
    for q in Q_GRID:
        assert same_bits(wick_monomial([e], q), kernels(w_field(e), 1))


@pytest.mark.parametrize("q", Q_GRID)
def test_wick_monomial_degree_two_frozen(q):
    # hand expansion: a+a+ + (1+q) a+a- + a-a-, constant cancels exactly
    h2 = wick_monomial([single_mode()] * 2, q)
    assert h2[(2, 0)][0, 0] == pytest.approx(1.0, abs=1e-15)
    assert h2[(1, 1)][0, 0] == pytest.approx(1 + q, abs=1e-15)
    assert h2[(0, 2)][0, 0] == pytest.approx(1.0, abs=1e-15)
    assert h2[(0, 0)][0, 0] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("q", Q_GRID)
def test_wick_monomial_matches_x_polynomial_identities(q):
    # degree 2..4 against the explicit ordinary-power combinations
    e = single_mode()
    h2 = add_scaled(x_poly(2, q), IDENTITY, -1.0)
    assert gap(wick_monomial([e] * 2, q), h2) <= 1e-13
    h3 = add_scaled(x_poly(3, q), x_poly(1, q), -(2 + q))
    assert gap(wick_monomial([e] * 3, q), h3) <= 1e-13
    h4 = add_scaled(x_poly(4, q), x_poly(2, q), -(3 + 2 * q + q**2))
    h4 = add_scaled(h4, IDENTITY, 1 + q + q**2)
    assert gap(wick_monomial([e] * 4, q), h4) <= 1e-12


@pytest.mark.parametrize("q", DYADIC_Q)
def test_wick_monomial_three_term_recurrence_exact(q):
    e = single_mode()
    polys = [IDENTITY, wick_monomial([e], q)]
    for n in range(1, 7):
        polys.append(add_scaled(field_mul(e, polys[n], q), polys[n - 1], -q_integer(n, q)))
    for n in range(7):
        assert gap(wick_monomial([e] * n, q), polys[n]) == 0.0  # exact


@pytest.mark.parametrize("q", MONOMIAL_Q)
def test_wick_monomial_tails_are_each_tails_monomial(q):
    # one recursion gives every tail, bit for bit as its own call would;
    # repeated, distinct and batched arguments, and no arguments at all
    rng = np.random.default_rng(11)
    e, phi, psi = single_mode(), rng.standard_normal(2), rng.standard_normal(2)
    batch = rng.standard_normal((3, 2))
    for vectors in ([e] * 6, [phi, psi, phi, psi], [batch, phi, batch], []):
        tails = wick_monomial_tails(vectors, q)
        assert len(tails) == len(vectors) + 1
        for k, tail in enumerate(tails):
            # a tail keeps the batch shape of all the arguments
            alone = wick_monomial(vectors[k:], q)
            wide = {key: np.broadcast_to(kernel, tail[key].shape) for key, kernel in alone.items()}
            assert same_bits(tail, wide)
        assert np.all(tails[-1][(0, 0)] == 1.0) and list(tails[-1]) == [(0, 0)]


@pytest.mark.parametrize("q", Q_GRID)
def test_wick_monomial_projects_onto_kernel(q):
    ctx = QContext(q, 2, 4)
    rng = np.random.default_rng(9)
    for n in range(1, 5):
        vectors = [rng.standard_normal(2) for _ in range(n)]
        out = vacuum_vector(wick_monomial(vectors, q), ctx)
        target = elementary_tensor(vectors)
        assert np.allclose(out.component(n), target, atol=1e-10 * max(1, np.abs(target).max()))
        for k in range(n):
            assert np.allclose(out.component(k), 0.0, atol=1e-10)


@pytest.mark.parametrize("q", Q_GRID)
def test_wick_monomial_product_identity(q):
    # joining argument lists is the same as taking the Wick product
    rng = np.random.default_rng(10)
    for _ in range(10):
        fs = [rng.standard_normal(2) for _ in range(rng.integers(1, 3))]
        gs = [rng.standard_normal(2) for _ in range(rng.integers(1, 3))]
        product = wick_mul_poly(wick_monomial(fs, q), wick_monomial(gs, q), q)
        joint = wick_monomial(fs + gs, q)
        assert gap(product, joint) <= 1e-12 * scale_of(joint)


@pytest.mark.parametrize("q", MONOMIAL_Q)
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_wick_monomial_matches_word_oracle(dim, q):
    rng = np.random.default_rng(40 + dim)
    for kind, vectors in _argument_lists(dim, rng).items():
        for n in range(7):
            words = w_monomial(vectors[:n], q)
            want = kernels(words, dim)
            got = wick_monomial(vectors[:n], q)
            assert gap(got, want) <= 1e-14 * scale_of(want), (kind, n)
            want = kernels(w_field_mul(vectors[0], words, q), dim)
            assert gap(field_mul(vectors[0], got, q), want) <= 1e-14 * scale_of(want), (kind, n)


@pytest.mark.parametrize("q", MONOMIAL_Q)
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_wick_monomial_acts_as_its_operator_recursion(dim, q):
    # f has degrees <= N - n only, so no step of the recursion run through
    # create and annihilate leaves the truncation
    ctx = QContext(q, dim, 6)
    rng = np.random.default_rng(90 + dim)
    vectors = _argument_lists(dim, rng)["generic"]
    for n in range(7):
        f = GradedVector(ctx, {j: rng.standard_normal(dim**j) for j in range(7 - n)})
        want = w_apply(w_monomial(vectors[:n], q), f)
        got = apply_to_fock(wick_monomial(vectors[:n], q), f)
        assert (got - want).max_abs() <= 1e-14 * max(1.0, want.max_abs()), n


def test_batched_kernels_give_each_row():
    rng = np.random.default_rng(95)
    ctx = QContext(-0.7, 2, 5)
    vectors = [rng.standard_normal((4, 2)) for _ in range(3)]
    fs = [random_vector(ctx, rng) for _ in range(4)]
    mono = wick_monomial(vectors, ctx.q)
    square = wick_mul_poly(mono, mono, ctx.q)
    acted = apply_to_fock(mono, stack_vectors(fs))
    for i in range(4):
        row = wick_monomial([v[i] for v in vectors], ctx.q)
        assert same_bits({k: a[i] for k, a in mono.items()}, row)
        assert same_bits({k: a[i] for k, a in square.items()}, wick_mul_poly(row, row, ctx.q))
        alone = apply_to_fock(row, fs[i])
        for n, arr in alone.components.items():
            assert acted.components[n][i].tobytes() == arr.tobytes()


# -- oracles: the monomial recursion and the vacuum map as they were before
# sub-lists were memoized and annihilator kernels skipped --------------------


def _wick_monomial_oracle(vecs: list, q: float, calls: list) -> dict:
    """The contraction recursion without memo: every sub-list is rebuilt each
    time it is reached (one entry in calls per evaluation)."""
    calls.append(len(vecs))
    if not vecs:
        return {(0, 0): np.ones((1, 1))}
    head, tail = vecs[0], vecs[1:]
    result = field_mul(head, _wick_monomial_oracle(tail, q, calls), q)
    weight = 1.0
    for j, t in enumerate(tail):
        pairing = head[None, :] @ t[:, None]
        rest = _wick_monomial_oracle(tail[:j] + tail[j + 1 :], q, calls)
        result = add_scaled(result, rest, -weight * pairing)
        weight *= q
    return result


@pytest.mark.parametrize("q", MONOMIAL_Q)
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_wick_monomial_matches_recursion_oracle_bit_for_bit(dim, q):
    rng = np.random.default_rng(40 + dim)
    for kind, vectors in _argument_lists(dim, rng).items():
        for n in range(7):
            got = wick_monomial(vectors[:n], q)
            want = _wick_monomial_oracle([np.asarray(v) for v in vectors[:n]], q, [])
            assert same_bits(got, want), (kind, n)


@pytest.mark.parametrize("q", MONOMIAL_Q)
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_vacuum_vector_matches_every_word_oracle_bit_for_bit(dim, q):
    # every kernel applied to the vacuum, annihilator kernels included; equal
    # entries, but a zero's sign may differ, as the matmul adds to +0.0
    ctx = QContext(q, dim, 6)
    rng = np.random.default_rng(50 + dim)
    vectors = _argument_lists(dim, rng)
    polys = [wick_monomial(vectors[kind][:n], q) for kind in vectors for n in range(7)]
    polys += [kernels(random_words(rng, dim, 4, dyadic=True), dim) for _ in range(6)]
    for p in polys:
        got, want = vacuum_vector(p, ctx), apply_to_fock(p, GradedVector.vacuum(ctx))
        assert list(got.components) == list(want.components)
        for n in want.components:
            assert np.array_equal(got.components[n], want.components[n]), n


def test_wick_monomial_builds_each_sub_list_once(monkeypatch):
    # one field product per distinct sub-list reached; the unmemoized
    # recursion evaluates 170 sub-monomials for six equal arguments
    e = single_mode()
    calls, oracle_calls = [], []
    original = wick.field_mul
    monkeypatch.setattr(wick, "field_mul", lambda *args: calls.append(1) or original(*args))
    got = wick_monomial([e] * 6, 0.5)
    want = _wick_monomial_oracle([e] * 6, 0.5, oracle_calls)
    assert len(oracle_calls) == 170
    assert len(calls) <= 2**6
    assert same_bits(got, want)


def test_vacuum_vector_skips_annihilator_words(monkeypatch):
    ctx = QContext(0.5, 2, 4)
    calls = []
    original = wick.contract
    monkeypatch.setattr(wick, "contract", lambda *args: calls.append(1) or original(*args))
    rng = np.random.default_rng(60)
    p = kernels(
        {
            word(
                [rng.standard_normal(2) for _ in range(k % 3)],
                [rng.standard_normal(2) for _ in range(1 + k % 2)],
            ): float(k + 1)
            for k in range(5)
        },
        2,
    )
    out = vacuum_vector(p, ctx)
    assert calls == []
    assert out.components == {}


def test_vacuum_vector_checks_every_word():
    # a kernel it does not read still has to fit the context
    ctx = QContext(0.5, 2, 2)
    e = basis_vector(2, 0)
    wrong_length = kernels({word([e], [[1.0, 0.0, 0.0]]): 1.0}, 3)
    wrong_length[(1, 1)] = wrong_length[(1, 1)][:2]  # creator of length 2
    with pytest.raises(ValueError, match="length 2"):
        vacuum_vector(wrong_length, ctx)
    too_many = kernels({word([e] * 3, [e]): 1.0}, 2)
    with pytest.raises(ValueError, match="truncation overflow"):
        vacuum_vector(too_many, ctx)


@pytest.mark.parametrize("coeff", ("NaN", "Infinity", "-Infinity"))
def test_wick_polynomial_rejects_non_finite_coefficient(coeff):
    # a polynomial meets the Fock space only through vacuum_vector and
    # apply_to_fock, whose results must be finite
    ctx = QContext(0.5, 1, 2)
    p = {(0, 0): np.array([[float(coeff)]])}
    with pytest.raises(ValueError, match="finite"):
        vacuum_vector(p, ctx)
    with pytest.raises(ValueError, match="finite"):
        apply_to_fock(p, GradedVector.vacuum(ctx))


def test_vacuum_expectation_examples():
    ctx = QContext(0.5, 1, 4)
    assert vacuum_expectation(IDENTITY, ctx) == 1.0
    assert vacuum_expectation(kernels({word([single_mode()]): 1.0}, 1), ctx) == 0.0
    assert vacuum_expectation(x_poly(4, 0.5), ctx) == pytest.approx(2.5, abs=1e-14)


def test_vacuum_expectation_overflow():
    ctx = QContext(0.5, 1, 2)
    with pytest.raises(ValueError):
        vacuum_expectation(kernels({word([single_mode()] * 3): 1.0}, 1), ctx)


@pytest.mark.parametrize("q", Q_GRID)
def test_fourth_moment_value(q):
    ctx = QContext(q, 1, 4)
    assert vacuum_expectation(x_poly(4, q), ctx) == pytest.approx(2 + q, abs=1e-13)


def test_moment_odd_orders_vanish():
    rng = np.random.default_rng(12)
    phi = rng.standard_normal(2)
    for k in (1, 3, 5, 7):
        assert moment(phi, k, 0.5) == 0.0
        assert pairing_moments(phi, k, 0.5)[k] == 0.0


@pytest.mark.parametrize("q", Q_GRID)
def test_moment_against_crossing_oracle(q):
    rng = np.random.default_rng(13)
    phi = rng.standard_normal(2)
    walked, paired = moments(phi, 10, q), pairing_moments(phi, 10, q)
    for k in (0, 2, 4, 6, 8, 10):
        assert abs(walked[k] - paired[k]) <= 1e-9 * abs(paired[k])


def test_moment_frozen_values():
    e = basis_vector(2, 0)
    assert pairing_moments(e, 6, 0.5)[6] == pytest.approx(8.875, abs=1e-15)  # 5 + 6q + 3q^2 + q^3
    assert moment(e, 6, 0.5) == pytest.approx(8.875, abs=1e-12)
    catalan = [1.0, 1.0, 2.0, 5.0, 14.0]
    for n, expected in enumerate(catalan):
        assert moment(e, 2 * n, 0.0) == pytest.approx(expected, abs=1e-12)


def test_moment_preconditions():
    for route in (moments, pairing_moments):
        with pytest.raises(ValueError):
            route(basis_vector(2, 0), -1, 0.5)
        with pytest.raises(ValueError):
            route(basis_vector(2, 0), 4, 1.0)  # |q| < 1
        for phi in ([1.0, np.nan], [], 1.0):
            with pytest.raises(ValueError):
                route(phi, 4, 0.5)
    # past the 12 points the pair-partition enumeration stops at
    e = basis_vector(2, 0)
    value, oracle = moment(e, 14, 0.5), pairing_moments(e, 14, 0.5)[14]
    assert abs(value - oracle) <= 1e-13 * oracle


@pytest.mark.parametrize("phi", (1.0, []), ids=("scalar", "empty"))
def test_one_particle_vector_needs_an_entry_at_every_entry_point(phi):
    # a scalar has no last axis to read d from, and an empty vector names a
    # zero-dimensional field; neither is a one-particle vector
    entry_points = (
        lambda: moments(phi, 2, 0.5),
        lambda: pairing_moments(phi, 2, 0.5),
        lambda: field_mul(phi, IDENTITY, 0.5),
        lambda: wick_monomial([phi], 0.5),
    )
    for call in entry_points:
        with pytest.raises(ValueError, match="must have an entry"):
            call()


@pytest.mark.parametrize("dim", (1, 2, 3))
@pytest.mark.parametrize("q", (-0.7, 0.0, 0.5, 0.9))
def test_moments_rows_equal_single_order_walks(dim, q):
    phi = np.random.default_rng(14 + dim).standard_normal(dim)
    walked, paired = moments(phi, 8, q), pairing_moments(phi, 8, q)
    assert walked.shape == paired.shape == (9,)
    for k in range(9):
        assert walked[k].tobytes() == moment(phi, k, q).tobytes()
        assert paired[k] == pairing_moments(phi, k, q)[k]


@pytest.mark.parametrize("dim", (1, 2, 3))
@pytest.mark.parametrize("q", Q_GRID)
def test_moments_equal_the_field_applied_to_the_vacuum(dim, q):
    # the drop rule against create + annihilate on a space truncated at
    # top // 2, the highest degree a closed walk of top steps reaches
    phis = np.random.default_rng([17, dim]).standard_normal((4, dim))
    for top in range(11):
        walked = moments(phis, top, q)
        w = GradedVector.vacuum(QContext(q, dim, top // 2))
        for k in range(1, top + 1):
            w = create(phis, w) + annihilate(phis, w)
            assert (walked[k] == w.component(0)[..., 0]).all(), (top, k)
        assert (walked[0] == 1.0).all()


def _jacobi_moment(norm: float, k: int, q: float) -> float:
    """Vacuum moment of a single-mode field: the (0, 0) entry of the k-th power
    of the Jacobi matrix with off-diagonal sqrt([j]_q) * norm."""
    size = k // 2 + 1
    jacobi = np.zeros((size, size))
    for j in range(1, size):
        jacobi[j - 1, j] = jacobi[j, j - 1] = math.sqrt(q_integer(j, q)) * norm
    vec = np.zeros(size)
    vec[0] = 1.0
    for _ in range(k):
        vec = jacobi @ vec
    return float(vec[0])


@pytest.mark.parametrize("q", (-0.99, -0.9, -0.5, 0.0, 0.5, 0.9))
def test_moment_oracle_matches_jacobi_matrix_to_order_40(q):
    # the float sum of the crossing polynomial's terms is off by 3.7 relative
    # at q = -0.9, order 40; the oracle rounds once
    phi = np.array([-1.3])
    walked, paired = moments(phi, MAX_MOMENT_ORDER, q), pairing_moments(phi, MAX_MOMENT_ORDER, q)
    for k in range(0, MAX_MOMENT_ORDER + 1, 2):
        want = _jacobi_moment(1.3, k, q)
        assert abs(paired[k] - want) <= 1e-13 * want
        assert abs(walked[k] - want) <= 1e-13 * want


def test_l2_inner_examples():
    ctx = QContext(0.3, 1, 4)
    assert l2_inner(IDENTITY, IDENTITY, ctx) == 1.0
    x2 = x_poly(2, 0.3)
    assert l2_inner(x2, x2, ctx) == pytest.approx(
        vacuum_expectation(x_poly(4, 0.3), ctx), abs=1e-13
    )


@pytest.mark.parametrize("q", Q_GRID)
def test_l2_orthogonality_of_distinct_degrees(q):
    ctx = QContext(q, 2, 4)
    rng = np.random.default_rng(14)
    monos = [
        wick_monomial([rng.standard_normal(2) for _ in range(n)], q) for n in range(4)
    ]
    for i in range(4):
        for j in range(4):
            if i != j:
                assert abs(l2_inner(monos[i], monos[j], ctx)) <= 1e-10


@pytest.mark.parametrize("q", Q_GRID)
def test_l2_routes_agree(q):
    ctx = QContext(q, 2, 5)
    rng = np.random.default_rng(15)
    for _ in range(10):
        w1, w2 = random_words(rng, 2, 1), random_words(rng, 2, 1)
        fock_value = l2_inner(kernels(w1, 2), kernels(w2, 2), ctx)
        # a normal word annihilates before it creates, so content dropped at the
        # truncation edge during the creator phase never reaches the vacuum
        # component; the degree-0 readout is exact
        v1 = vacuum_vector(kernels(w1, 2), ctx)
        algebra_value = float(apply_to_fock(kernels(w_adjoint(w2), 2), v1).component(0)[0])
        assert abs(fock_value - algebra_value) <= 1e-12 * max(1.0, abs(fock_value))


def test_l2_gram_matches_kernel_gram():
    # degree-n monomials inherit the twisted Gram matrix of their kernels
    from qwick.fock import apply_pq

    q = -0.6
    ctx = QContext(q, 2, 3)
    rng = np.random.default_rng(16)
    tuples = [[rng.standard_normal(2) for _ in range(2)] for _ in range(3)]
    for fs in tuples:
        for gs in tuples:
            lhs = l2_inner(wick_monomial(fs, q), wick_monomial(gs, q), ctx)
            kernel_f = elementary_tensor(fs)
            kernel_g = elementary_tensor(gs)
            rhs = float(apply_pq(2, kernel_f, ctx) @ kernel_g)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
