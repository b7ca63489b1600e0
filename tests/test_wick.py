import math

import numpy as np
import pytest

import qwick.wick as wick
from qwick.fock import GradedVector, QContext, basis_vector, elementary_tensor, q_inner
from qwick.qcombinatorics import q_integer
from qwick.wick import (
    IDENTITY_WORD,
    MAX_MOMENT_ORDER,
    MomentReport,
    NormalWord,
    WickPolynomial,
    adjoint,
    apply_to_fock,
    field_mul,
    moment,
    moments,
    vacuum_vector,
    wick_monomial,
    wick_mul,
    wick_mul_poly,
)

Q_GRID = (-0.9, -0.5, 0.0, 0.3, 0.5, 0.9)
DYADIC_Q = (-0.5, 0.0, 0.25, 0.5)


def single_mode():
    return basis_vector(1, 0)


def vacuum_expectation(p: WickPolynomial, ctx: QContext) -> float:
    """Vacuum state applied to p: the degree-0 component of p acting on it."""
    return float(vacuum_vector(p, ctx).component(0)[0])


def l2_inner(p1: WickPolynomial, p2: WickPolynomial, ctx: QContext) -> float:
    """The polynomial scalar product: the twisted pairing of the vacuum vectors."""
    return q_inner(vacuum_vector(p1, ctx), vacuum_vector(p2, ctx))


def x_poly(k: int, q: float) -> WickPolynomial:
    """Ordinary k-th power of the single-mode field, by repeated left products."""
    poly = WickPolynomial.identity()
    for _ in range(k):
        poly = field_mul(single_mode(), poly, q)
    return poly


def test_wick_mul_exchange_rule():
    e = single_mode()
    u = NormalWord.build(annihilators=[e])
    v = NormalWord.build(creators=[e])
    coeff, word = wick_mul(u, v, 0.5)
    assert coeff == 0.5
    assert word == NormalWord.build(creators=[e], annihilators=[e])


def test_wick_mul_neutral_element():
    rng = np.random.default_rng(0)
    w = NormalWord.build(
        creators=[rng.standard_normal(2)], annihilators=[rng.standard_normal(2)]
    )
    for q in Q_GRID:
        assert wick_mul(IDENTITY_WORD, w, q) == (1.0, w)
        assert wick_mul(w, IDENTITY_WORD, q) == (1.0, w)


@pytest.mark.parametrize("q", Q_GRID)
def test_field_product_expansion(q):
    # (a+ + a-)(phi) wick (a+ + a-)(psi) has exactly four words, with the
    # weight q on the exchanged one
    rng = np.random.default_rng(1)
    phi, psi = rng.standard_normal(2), rng.standard_normal(2)
    product = wick_mul_poly(WickPolynomial.field(phi), WickPolynomial.field(psi), q)
    assert product.coefficient(NormalWord.build(creators=[phi, psi])) == 1.0
    assert product.coefficient(NormalWord.build(creators=[phi], annihilators=[psi])) == 1.0
    assert product.coefficient(NormalWord.build(creators=[psi], annihilators=[phi])) == q
    assert product.coefficient(NormalWord.build(annihilators=[phi, psi])) == 1.0
    assert len(product.terms) == (4 if q != 0.0 else 3)


def test_wick_mul_poly_neutral_and_scalars():
    rng = np.random.default_rng(2)
    p = WickPolynomial.field(rng.standard_normal(2))
    one = WickPolynomial.identity()
    assert wick_mul_poly(p, one, 0.7).equals(p)
    assert wick_mul_poly(one, p, 0.7).equals(p)
    two = one.scale(2.0)
    three = one.scale(3.0)
    assert wick_mul_poly(two, three, -0.5).coefficient(IDENTITY_WORD) == 6.0


def _dyadic_polynomial(rng, dim, terms=3):
    out: dict[NormalWord, float] = {}
    for _ in range(terms):
        word = NormalWord.build(
            creators=[rng.integers(-4, 5, dim).astype(float) for _ in range(rng.integers(0, 3))],
            annihilators=[rng.integers(-4, 5, dim).astype(float) for _ in range(rng.integers(0, 3))],
        )
        out[word] = out.get(word, 0.0) + float(rng.integers(-4, 5))
    return WickPolynomial(out)


@pytest.mark.parametrize("q", DYADIC_Q)
def test_wick_product_associative_exactly_on_dyadic_inputs(q):
    rng = np.random.default_rng(5)
    for _ in range(20):
        p1 = _dyadic_polynomial(rng, 2)
        p2 = _dyadic_polynomial(rng, 2)
        p3 = _dyadic_polynomial(rng, 2)
        left = wick_mul_poly(wick_mul_poly(p1, p2, q), p3, q)
        right = wick_mul_poly(p1, wick_mul_poly(p2, p3, q), q)
        assert left.equals(right)  # zero tolerance


@pytest.mark.parametrize("q", Q_GRID)
def test_wick_product_associative_to_roundoff(q):
    rng = np.random.default_rng(6)
    for _ in range(10):
        ps = []
        for _ in range(3):
            word = NormalWord.build(
                creators=[rng.standard_normal(2) for _ in range(rng.integers(0, 3))],
                annihilators=[rng.standard_normal(2) for _ in range(rng.integers(0, 3))],
            )
            ps.append(WickPolynomial({word: float(rng.standard_normal())}))
        left = wick_mul_poly(wick_mul_poly(ps[0], ps[1], q), ps[2], q)
        right = wick_mul_poly(ps[0], wick_mul_poly(ps[1], ps[2], q), q)
        assert left.max_coeff_diff(right) <= 1e-12


def test_adjoint_examples():
    e = single_mode()
    assert adjoint(WickPolynomial.creator(e)).equals(WickPolynomial.annihilator(e))
    assert adjoint(WickPolynomial.identity()).equals(WickPolynomial.identity())


def test_adjoint_is_involution_and_reverses():
    rng = np.random.default_rng(7)
    f1, f2, g1 = (rng.standard_normal(2) for _ in range(3))
    word = NormalWord.build(creators=[f1, f2], annihilators=[g1])
    flipped = adjoint(WickPolynomial.from_word(word, 2.5))
    assert flipped.coefficient(NormalWord.build(creators=[g1], annihilators=[f2, f1])) == 2.5
    assert adjoint(flipped).equals(WickPolynomial.from_word(word, 2.5))


def test_apply_to_fock_examples():
    ctx = QContext(0.5, 2, 3)
    e1, e2 = basis_vector(2, 0), basis_vector(2, 1)
    f = GradedVector(ctx, {1: e2})
    assert apply_to_fock(WickPolynomial.identity(), f).allclose(f)
    hop = WickPolynomial.from_word(NormalWord.build(creators=[e1], annihilators=[e2]))
    out = apply_to_fock(hop, f)
    assert np.array_equal(out.component(1), e1)


@pytest.mark.parametrize("q", Q_GRID)
def test_vacuum_map_intertwines_products(q):
    # applying a Wick product to the vacuum tensors the factor images
    from qwick.scales import graded_tensor

    ctx = QContext(q, 2, 6)
    rng = np.random.default_rng(8)
    for _ in range(20):
        terms1 = {
            NormalWord.build(
                creators=[rng.standard_normal(2) for _ in range(rng.integers(0, 3))],
                annihilators=[rng.standard_normal(2) for _ in range(rng.integers(0, 3))],
            ): float(rng.standard_normal())
            for _ in range(2)
        }
        terms2 = {
            NormalWord.build(
                creators=[rng.standard_normal(2) for _ in range(rng.integers(0, 3))],
                annihilators=[rng.standard_normal(2) for _ in range(rng.integers(0, 3))],
            ): float(rng.standard_normal())
            for _ in range(2)
        }
        p1, p2 = WickPolynomial(terms1), WickPolynomial(terms2)
        left = vacuum_vector(wick_mul_poly(p1, p2, q), ctx)
        right = graded_tensor(vacuum_vector(p1, ctx), vacuum_vector(p2, ctx))
        scale = max(1.0, right.euclidean_norm())
        assert (left - right).euclidean_norm() <= 1e-10 * scale


def test_wick_monomial_single_field():
    e = single_mode()
    for q in Q_GRID:
        assert wick_monomial([e], q).equals(WickPolynomial.field(e))


@pytest.mark.parametrize("q", Q_GRID)
def test_wick_monomial_degree_two_frozen(q):
    # hand expansion: a+a+ + (1+q) a+a- + a-a-, constant cancels exactly
    e = single_mode()
    h2 = wick_monomial([e, e], q)
    ee = (1.0,)
    assert h2.coefficient(NormalWord((ee, ee), ())) == pytest.approx(1.0, abs=1e-15)
    assert h2.coefficient(NormalWord((ee,), (ee,))) == pytest.approx(1 + q, abs=1e-15)
    assert h2.coefficient(NormalWord((), (ee, ee))) == pytest.approx(1.0, abs=1e-15)
    assert h2.coefficient(IDENTITY_WORD) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("q", Q_GRID)
def test_wick_monomial_matches_x_polynomial_identities(q):
    # degree 2..4 against the explicit ordinary-power combinations
    e = single_mode()
    h2 = x_poly(2, q) - WickPolynomial.identity()
    assert wick_monomial([e] * 2, q).max_coeff_diff(h2) <= 1e-13
    h3 = x_poly(3, q) - x_poly(1, q).scale(2 + q)
    assert wick_monomial([e] * 3, q).max_coeff_diff(h3) <= 1e-13
    h4 = (
        x_poly(4, q)
        - x_poly(2, q).scale(3 + 2 * q + q**2)
        + WickPolynomial.identity().scale(1 + q + q**2)
    )
    assert wick_monomial([e] * 4, q).max_coeff_diff(h4) <= 1e-12


@pytest.mark.parametrize("q", DYADIC_Q)
def test_wick_monomial_three_term_recurrence_exact(q):
    e = single_mode()
    polys = [WickPolynomial.identity(), WickPolynomial.field(e)]
    for n in range(1, 7):
        polys.append(field_mul(e, polys[n], q) - polys[n - 1].scale(q_integer(n, q)))
    for n in range(7):
        assert wick_monomial([e] * n, q).equals(polys[n])  # exact merge


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
        scale = max(1.0, max(abs(c) for c in joint.terms.values()))
        assert product.max_coeff_diff(joint) <= 1e-12 * scale


# -- oracles: the monomial recursion and the vacuum map as they were before
# sub-lists were memoized and annihilator words skipped --------------------


def _field_mul_oracle(phi, p: WickPolynomial, q: float) -> WickPolynomial:
    """field_mul with one pairing per creator slot, nothing cached."""
    phi_t = tuple(float(x) for x in np.asarray(phi, dtype=float).reshape(-1))
    phi_arr = np.asarray(phi_t)
    terms: dict[NormalWord, float] = {}

    def put(word: NormalWord, coeff: float) -> None:
        terms[word] = terms.get(word, 0.0) + coeff

    for w, c in p.terms.items():
        put(NormalWord((phi_t,) + w.creators, w.annihilators), c)
        weight = 1.0
        for i, h in enumerate(w.creators):
            pairing = float(phi_arr @ np.asarray(h))
            dropped = w.creators[:i] + w.creators[i + 1 :]
            put(NormalWord(dropped, w.annihilators), c * weight * pairing)
            weight *= q
        put(NormalWord(w.creators, (phi_t,) + w.annihilators), c * weight)
    return WickPolynomial(terms)


def _wick_monomial_oracle(vecs: list, q: float, calls: list) -> WickPolynomial:
    """The contraction recursion without memo: every sub-list is rebuilt each
    time it is reached (one entry in calls per evaluation)."""
    calls.append(len(vecs))
    n = len(vecs)
    if n == 0:
        return WickPolynomial.identity()
    if n == 1:
        return WickPolynomial.field(vecs[0])
    head, tail = vecs[0], vecs[1:]
    result = _field_mul_oracle(head, _wick_monomial_oracle(tail, q, calls), q)
    weight = 1.0
    for j, t in enumerate(tail):
        pairing = float(head @ t)
        if pairing != 0.0:
            rest = tail[:j] + tail[j + 1 :]
            # p - r was p + r.scale(-1.0)
            scaled = _wick_monomial_oracle(rest, q, calls).scale(weight * pairing)
            result = result + scaled.scale(-1.0)
        weight *= q
    return result


def _vacuum_vector_oracle(p: WickPolynomial, ctx: QContext) -> GradedVector:
    """Every word applied to the vacuum, annihilator words included."""
    assert p.max_creators() <= ctx.max_degree
    return apply_to_fock(p, GradedVector.vacuum(ctx))


def _items_text(p: WickPolynomial) -> str:
    """The terms in order; repr gives each double its own text, -0.0 included."""
    return repr([(w.creators, w.annihilators, c) for w, c in p.terms.items()])


def _argument_lists(dim: int, rng) -> dict[str, list]:
    """Six arguments each: generic, orthogonal (basis vectors and zeros, so
    many pairings are exactly 0) and dyadic (exact cancellations)."""
    return {
        "generic": [rng.standard_normal(dim) for _ in range(6)],
        "orthogonal": [basis_vector(dim, i % dim) * (i % 3 != 1) for i in range(6)],
        "dyadic": [rng.integers(-2, 3, dim) / 2.0 for _ in range(6)],
    }


MONOMIAL_Q = (-0.9, -0.5, 0.0, 0.5, 0.9, 1 - 1e-6)


@pytest.mark.parametrize("q", MONOMIAL_Q)
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_wick_monomial_matches_recursion_oracle_bit_for_bit(dim, q):
    rng = np.random.default_rng(40 + dim)
    for kind, vectors in _argument_lists(dim, rng).items():
        for n in range(7):
            got = wick_monomial(vectors[:n], q)
            want = _wick_monomial_oracle([np.asarray(v) for v in vectors[:n]], q, [])
            assert _items_text(got) == _items_text(want), (kind, n)


@pytest.mark.parametrize("q", MONOMIAL_Q)
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_vacuum_vector_matches_every_word_oracle_bit_for_bit(dim, q):
    ctx = QContext(q, dim, 6)
    rng = np.random.default_rng(50 + dim)
    vectors = _argument_lists(dim, rng)
    polys = [wick_monomial(vectors[kind][:n], q) for kind in vectors for n in range(7)]
    polys += [_dyadic_polynomial(rng, dim, terms=4) for _ in range(6)]
    for p in polys:
        got, want = vacuum_vector(p, ctx), _vacuum_vector_oracle(p, ctx)
        assert list(got.components) == list(want.components)
        for n in want.components:
            assert got.components[n].tobytes() == want.components[n].tobytes(), n


def test_wick_monomial_builds_each_sub_list_once(monkeypatch):
    # one field product per distinct sub-list reached; the unmemoized
    # recursion evaluates 122 sub-monomials for six equal arguments
    e = single_mode()
    calls, oracle_calls = [], []
    original = wick._field_mul
    monkeypatch.setattr(wick, "_field_mul", lambda *args: calls.append(1) or original(*args))
    got = wick_monomial([e] * 6, 0.5)
    want = _wick_monomial_oracle([e] * 6, 0.5, oracle_calls)
    assert len(oracle_calls) == 122
    assert len(calls) <= 2**6
    assert _items_text(got) == _items_text(want)


def test_vacuum_vector_skips_annihilator_words(monkeypatch):
    ctx = QContext(0.5, 2, 4)
    calls = []
    original = wick.annihilate
    monkeypatch.setattr(wick, "annihilate", lambda *args: calls.append(1) or original(*args))
    rng = np.random.default_rng(60)
    p = WickPolynomial(
        {
            NormalWord.build(
                creators=[rng.standard_normal(2) for _ in range(k % 3)],
                annihilators=[rng.standard_normal(2) for _ in range(1 + k % 2)],
            ): float(k + 1)
            for k in range(5)
        }
    )
    out = vacuum_vector(p, ctx)
    assert calls == []
    assert out.components == {}


def test_vacuum_vector_checks_every_word():
    # a word it does not apply still has to fit the context
    ctx = QContext(0.5, 2, 2)
    e = basis_vector(2, 0)
    wrong_length = NormalWord.build(creators=[e], annihilators=[[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="length 2"):
        vacuum_vector(WickPolynomial.from_word(wrong_length), ctx)
    too_many = NormalWord.build(creators=[e] * 3, annihilators=[e])
    with pytest.raises(ValueError, match="truncation overflow"):
        vacuum_vector(WickPolynomial.from_word(too_many), ctx)


def test_normal_word_is_a_plain_tuple():
    # words hash and compare as the tuple (creators, annihilators)
    word = NormalWord.build(creators=[[1.0, -0.5]], annihilators=[[0.25, 2.0]])
    plain = (((1.0, -0.5),), ((0.25, 2.0),))
    assert word == plain
    assert hash(word) == hash(plain)
    assert {plain: 1.0}[word] == 1.0
    assert IDENTITY_WORD == ((), ())


def test_minus_scaled_is_subtracting_the_scaled_polynomial():
    rng = np.random.default_rng(61)
    for _ in range(20):
        p1, p2 = _dyadic_polynomial(rng, 2, terms=5), _dyadic_polynomial(rng, 2, terms=5)
        c = float(rng.standard_normal())
        want = p1 + p2.scale(c).scale(-1.0)
        assert _items_text(p1.minus_scaled(p2, c)) == _items_text(want)
        assert _items_text(p1 - p2) == _items_text(p1 + p2.scale(-1.0))


def test_vacuum_expectation_examples():
    ctx = QContext(0.5, 1, 4)
    assert vacuum_expectation(WickPolynomial.identity(), ctx) == 1.0
    assert vacuum_expectation(WickPolynomial.creator(single_mode()), ctx) == 0.0
    assert vacuum_expectation(x_poly(4, 0.5), ctx) == pytest.approx(2.5, abs=1e-14)


def test_vacuum_expectation_overflow():
    ctx = QContext(0.5, 1, 2)
    word = NormalWord.build(creators=[single_mode()] * 3)
    with pytest.raises(ValueError):
        vacuum_expectation(WickPolynomial.from_word(word), ctx)


@pytest.mark.parametrize("q", Q_GRID)
def test_fourth_moment_value(q):
    ctx = QContext(q, 1, 4)
    assert vacuum_expectation(x_poly(4, q), ctx) == pytest.approx(2 + q, abs=1e-13)


def test_moment_odd_orders_vanish():
    ctx = QContext(0.5, 2, 4)
    rng = np.random.default_rng(12)
    phi = rng.standard_normal(2)
    for k in (1, 3, 5, 7):
        report = moment(phi, k, ctx)
        assert report.value == 0.0
        assert report.oracle_value == 0.0


@pytest.mark.parametrize("q", Q_GRID)
def test_moment_against_crossing_oracle(q):
    ctx = QContext(q, 2, 5)
    rng = np.random.default_rng(13)
    phi = rng.standard_normal(2)
    for k in (0, 2, 4, 6, 8, 10):
        report = moment(phi, k, ctx)
        assert report.residual <= 1e-9 * abs(report.oracle_value)


def test_moment_frozen_values():
    e = basis_vector(2, 0)
    report = moment(e, 6, QContext(0.5, 2, 3))
    assert report.oracle_value == pytest.approx(8.875, abs=1e-15)  # 5 + 6q + 3q^2 + q^3
    assert report.value == pytest.approx(8.875, abs=1e-12)
    catalan = [1.0, 1.0, 2.0, 5.0, 14.0]
    ctx0 = QContext(0.0, 2, 4)
    for n, expected in enumerate(catalan):
        assert moment(e, 2 * n, ctx0).value == pytest.approx(expected, abs=1e-12)


def test_moment_preconditions():
    ctx = QContext(0.5, 2, 2)
    with pytest.raises(ValueError):
        moment(basis_vector(2, 0), 6, ctx)  # needs max_degree >= 3
    with pytest.raises(ValueError):
        moment(basis_vector(2, 0), -1, ctx)
    # past the 12 points the pair-partition enumeration stops at
    report = moment(basis_vector(2, 0), 14, QContext(0.5, 2, 7))
    assert report.residual <= 1e-13 * report.oracle_value


@pytest.mark.parametrize("dim", (1, 2, 3))
@pytest.mark.parametrize("q", (-0.7, 0.0, 0.5, 0.9))
def test_moments_rows_equal_single_order_walks(dim, q):
    ctx = QContext(q, dim, 4)
    phi = np.random.default_rng(14 + dim).standard_normal(dim)
    reports = moments(phi, 8, ctx)
    assert [r.order for r in reports] == list(range(9))
    for k, report in enumerate(reports):
        single = moment(phi, k, ctx)
        assert np.float64(report.value).tobytes() == np.float64(single.value).tobytes()
        assert report.oracle_value == single.oracle_value


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
    for report in moments(phi, MAX_MOMENT_ORDER, QContext(q, 1, MAX_MOMENT_ORDER // 2)):
        if report.order % 2:
            continue
        want = _jacobi_moment(1.3, report.order, q)
        assert abs(report.oracle_value - want) <= 1e-13 * want
        assert abs(report.value - want) <= 1e-13 * want


def test_l2_inner_examples():
    ctx = QContext(0.3, 1, 4)
    one = WickPolynomial.identity()
    assert l2_inner(one, one, ctx) == 1.0
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
        p1 = WickPolynomial(
            {
                NormalWord.build(
                    creators=[rng.standard_normal(2) for _ in range(rng.integers(0, 3))],
                    annihilators=[rng.standard_normal(2) for _ in range(rng.integers(0, 2))],
                ): float(rng.standard_normal())
            }
        )
        p2 = WickPolynomial(
            {
                NormalWord.build(
                    creators=[rng.standard_normal(2) for _ in range(rng.integers(0, 3))],
                    annihilators=[rng.standard_normal(2) for _ in range(rng.integers(0, 2))],
                ): float(rng.standard_normal())
            }
        )
        fock_value = l2_inner(p1, p2, ctx)
        # a normal word annihilates before it creates, so content dropped at the
        # truncation edge during the creator phase never reaches the vacuum
        # component; the degree-0 readout is exact
        v1 = vacuum_vector(p1, ctx)
        algebra_value = float(apply_to_fock(adjoint(p2), v1).component(0)[0])
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


def test_wick_polynomial_json_roundtrip():
    rng = np.random.default_rng(17)
    poly = WickPolynomial(
        {
            NormalWord.build(
                creators=[rng.standard_normal(2)], annihilators=[rng.standard_normal(2)]
            ): 1.25,
            IDENTITY_WORD: -2.0,
        }
    )
    again = WickPolynomial.from_json(poly.to_json())
    assert again.equals(poly)
    assert WickPolynomial.from_json(again.to_json()).to_json() == again.to_json()


@pytest.mark.parametrize("coeff", ("NaN", "Infinity", "-Infinity"))
def test_wick_polynomial_rejects_non_finite_coefficient(coeff):
    text = '{"terms": [{"coeff": %s, "creators": [[1.0]], "annihilators": []}]}' % coeff
    with pytest.raises(ValueError, match="finite"):
        WickPolynomial.from_json(text)
    with pytest.raises(ValueError, match="finite"):
        WickPolynomial({IDENTITY_WORD: float(coeff)})


def test_moment_report_residual():
    report = MomentReport(4, 2.5, 2.0)
    assert report.residual == 0.5
