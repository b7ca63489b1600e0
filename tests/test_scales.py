import math
import time

import numpy as np
import pytest

from qwick.fock import (
    GradedVector,
    QContext,
    basis_vector,
    elementary_tensor,
    fock_norm,
    q_inner,
    symmetrizer_matrix,
)
from qwick.qcombinatorics import q_binomial, q_factorial
from qwick.scales import (
    default_hplus_weights,
    embedding_residual,
    estimate_c1,
    f_dual_norm,
    g_norm,
    graded_tensor,
    lemma53_residual,
    saturating_dual_partner,
    vage_ratio,
)

from oracles import random_vector, stack_vectors

Q_GRID = (-0.9, -0.5, 0.0, 0.3, 0.5, 0.9)


def test_norm_scale_validation():
    f = GradedVector.vacuum(QContext(0.5, 2, 3))
    ones = np.ones(2)
    for norm in (g_norm, f_dual_norm, saturating_dual_partner):
        with pytest.raises(ValueError, match="r must be >= 1"):
            norm(f, 0.5, 2.0, ones)
        with pytest.raises(ValueError, match="r must be >= 1"):
            norm(f, math.nan, 2.0, ones)
        # inf^-n once weighted every dual degree >= 1 to zero
        with pytest.raises(ValueError, match="r must be >= 1 and finite, got inf"):
            norm(f, math.inf, 2.0, ones)
        with pytest.raises(ValueError, match="length 2"):
            norm(f, 1.0, 1.0, np.array([1.0]))
        with pytest.raises(ValueError, match="weights must be >= 1"):
            norm(f, 1.0, 1.0, np.array([0.5, 2.0]))
    with pytest.raises(ValueError, match="weight_base"):
        g_norm(f, 2.0, 2.0, None, "bad")


def _graded(ctx):
    return random_vector(ctx, np.random.default_rng(4))


@pytest.mark.parametrize(
    "call, message",
    (
        # inf >= 1 holds, so an infinite weight once measured its slot as 0
        pytest.param(
            lambda ctx: f_dual_norm(_graded(ctx), 2.0, 2.0, [math.inf, 1.0]),
            "weights must be >= 1 and finite",
            id="dual-norm-inf-weight",
        ),
        pytest.param(
            lambda ctx: g_norm(_graded(ctx), 2.0, 2.0, [1.0, math.inf]),
            "weights must be >= 1 and finite",
            id="test-norm-inf-weight",
        ),
        pytest.param(
            lambda ctx: saturating_dual_partner(_graded(ctx), 2.0, 2.0, [math.inf, 1.0]),
            "weights must be >= 1 and finite",
            id="dual-partner-inf-weight",
        ),
        # max(0.0, nan) is 0.0: a non-finite tensor once read as a bound that holds
        pytest.param(
            lambda ctx: lemma53_residual([math.nan, 1.0], [1.0, 1.0], ctx, 1, 1),
            "entries must be finite",
            id="lemma53-nan-f",
        ),
        pytest.param(
            lambda ctx: lemma53_residual([1.0, 1.0], [1.0, -math.inf], ctx, 1, 1),
            "entries must be finite",
            id="lemma53-inf-g",
        ),
        # z = (r1/s)^(1/inf) = 1 once divided by zero
        pytest.param(
            lambda ctx: estimate_c1(1.0, 2.0, math.inf, ctx), "finite alpha", id="c1-inf-alpha"
        ),
        pytest.param(lambda ctx: estimate_c1(1.0, math.inf, 2.0, ctx), "s < inf", id="c1-inf-s"),
    ),
)
def test_non_finite_scale_arguments_are_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call(QContext(0.5, 2, 3))


def test_scale_overflow_is_a_value_error():
    # a weight past a double once raised OverflowError, and a weighted sum
    # past one warned and returned inf
    f = random_vector(QContext(0.5, 2, 3), np.random.default_rng(0))
    with pytest.raises(ValueError, match="degree-2 scale weight at r = 1e"):
        g_norm(f, 1e200, 2.0)
    with pytest.raises(ValueError, match="degree-2 scale weight at r = 1.0, alpha = -1e"):
        f_dual_norm(f, 1.0, -1e308)
    with pytest.raises(ValueError, match="degree-2 scale weight"):
        saturating_dual_partner(f, 1e200, 2.0, np.ones(2))
    ctx = QContext(0.5, 2, 1)
    with pytest.raises(ValueError, match="scale norm at r = 1e"):
        g_norm(GradedVector(ctx, {1: [1.0, 1.0]}), 1e308, 2.0)
    with pytest.raises(ValueError, match="scale norm at r = 1.0"):
        f_dual_norm(GradedVector(ctx, {1: [1e154, 1e154]}), 1.0, 2.0)


def test_g_norm_frozen_example():
    ctx = QContext(0.5, 2, 4)
    e = basis_vector(2, 0)
    f = GradedVector(ctx, {2: elementary_tensor([e, e])})
    assert g_norm(f, 2.0, 1.0, None, "q") == pytest.approx(math.sqrt(6.0), abs=1e-15)
    assert g_norm(GradedVector.vacuum(ctx), 2.0, 1.0, None, "q") == 1.0


def test_g_norm_trivial_scale_is_plain_norm():
    ctx = QContext(0.7, 2, 3)
    rng = np.random.default_rng(0)
    f = random_vector(ctx, rng)
    assert g_norm(f, 1.0, 0.0, None, "q") == pytest.approx(f.euclidean_norm(), rel=1e-14)


@pytest.mark.parametrize("q", Q_GRID)
def test_f_dual_norm_frozen_example(q):
    ctx = QContext(q, 2, 3)
    e1, e2 = basis_vector(2, 0), basis_vector(2, 1)
    f = GradedVector(ctx, {2: elementary_tensor([e1, e2])})
    assert f_dual_norm(f, 1.0, 0.0) == pytest.approx(math.sqrt(1 + q * q), abs=1e-14)
    assert f_dual_norm(GradedVector.vacuum(ctx), 1.0, 0.0) == 1.0


def test_f_dual_norm_free_case():
    ctx = QContext(0.0, 2, 3)
    rng = np.random.default_rng(1)
    f = random_vector(ctx, rng)
    assert f_dual_norm(f, 1.0, 0.0) == pytest.approx(f.euclidean_norm(), rel=1e-14)


def test_graded_tensor_unital_exact():
    ctx = QContext(-0.4, 2, 5)
    rng = np.random.default_rng(2)
    f = random_vector(ctx, rng)
    vac = GradedVector.vacuum(ctx)
    assert (graded_tensor(vac, f) - f).max_abs() == 0.0
    assert (graded_tensor(f, vac) - f).max_abs() == 0.0


def test_graded_tensor_degree_example():
    ctx = QContext(0.5, 2, 4)
    e1, e2 = basis_vector(2, 0), basis_vector(2, 1)
    f = GradedVector(ctx, {1: e1})
    g = GradedVector(ctx, {1: e2})
    out = graded_tensor(f, g)
    assert list(out.components) == [2]
    assert np.array_equal(out.component(2), elementary_tensor([e1, e2]))


def test_graded_tensor_associative_exact_on_integer_tensors():
    ctx = QContext(0.5, 2, 5)
    rng = np.random.default_rng(3)

    def integer_vector():
        return GradedVector(
            ctx,
            {
                n: rng.integers(-3, 4, size=2**n).astype(float)
                for n in range(ctx.max_degree + 1)
            },
        )

    for _ in range(10):
        a, b, c = integer_vector(), integer_vector(), integer_vector()
        left = graded_tensor(graded_tensor(a, b), c)
        right = graded_tensor(a, graded_tensor(b, c))
        assert (left - right).max_abs() == 0.0


def _graded_tensor_out_of_place(f, g):
    """graded_tensor with a fresh array per sum, as it once added."""
    comps = {}
    for i, fi in f.components.items():
        for j, gj in g.components.items():
            n = i + j
            if n <= f.ctx.max_degree:
                block = np.asarray(fi)[..., :, None] * np.asarray(gj)[..., None, :]
                block = block.reshape(block.shape[:-2] + (-1,))
                comps[n] = comps[n] + block if n in comps else block
    return comps


@pytest.mark.parametrize("dim,top", ((1, 5), (2, 0), (2, 1), (2, 6), (3, 4)))
def test_graded_tensor_matches_out_of_place_sum_bit_for_bit(dim, top):
    ctx = QContext(0.5, dim, top)
    rng = np.random.default_rng([dim, top])
    draws = [random_vector(ctx, rng) for _ in range(4)]
    f, g = draws[0], draws[1]
    batch = stack_vectors(draws[:3])
    # an unbatched top degree ahead of a batched vacuum part: the first block
    # of degree top has no batch, a later one has
    vacua = stack_vectors([GradedVector(ctx, {0: [c]}) for c in (0.5, -2.0, 3.0)])
    mixed = GradedVector(ctx, {top: rng.standard_normal(dim**top)}) + vacua
    for left, right in ((f, g), (batch, g), (f, batch), (batch, batch), (mixed, g), (mixed, batch)):
        got = graded_tensor(left, right).components
        want = _graded_tensor_out_of_place(left, right)
        assert got.keys() == want.keys()
        for n, arr in want.items():
            assert np.array_equal(got[n], arr)


def test_graded_tensor_truncates():
    ctx = QContext(0.5, 2, 2)
    f = GradedVector(ctx, {2: np.ones(4)})
    out = graded_tensor(f, f)
    assert out.components == {}  # degree 4 falls off a degree-2 truncation


@pytest.mark.parametrize("q", Q_GRID)
def test_embedding_holds_with_absolute_weights(q):
    ctx = QContext(q, 2, 5)
    weights = default_hplus_weights(2)
    rng = np.random.default_rng(4)
    for _ in range(50):
        f = random_vector(ctx, rng)
        assert embedding_residual(f, 1.0, 2.0, weights) <= 1e-12 * max(1.0, fock_norm(f))


def test_embedding_free_case_zero():
    ctx = QContext(0.0, 2, 4)
    rng = np.random.default_rng(5)
    f = random_vector(ctx, rng)
    assert embedding_residual(f, 1.0, 1.0) == 0.0


def test_embedding_fails_with_plain_weights_on_antisymmetric_input():
    # with the plain-q base and q < 0 the bound genuinely fails at degree 2,
    # consistent with the symmetrizer norm being the |q| factorial
    q = -0.5
    ctx = QContext(q, 2, 3)
    e1, e2 = basis_vector(2, 0), basis_vector(2, 1)
    anti = elementary_tensor([e1, e2]) - elementary_tensor([e2, e1])
    f = GradedVector(ctx, {2: anti})
    residual = embedding_residual(f, max(1.0, (1 + q) ** (1 - 2.0)), 2.0, weight_base="q")
    assert residual > 0.1
    # oracle: twisted norm sqrt(2(1-q)), scale norm sqrt(2) r ([2]_q!)
    assert residual == pytest.approx(
        math.sqrt(2 * (1 - q)) - math.sqrt(2.0), abs=1e-12
    )


def test_embedding_precondition_enforced():
    ctx = QContext(-0.5, 2, 3)
    f = GradedVector.vacuum(ctx)
    with pytest.raises(ValueError):
        embedding_residual(f, 1.0, 2.0, weight_base="q")  # needs r >= 2
    with pytest.raises(ValueError):
        embedding_residual(f, 1.0, 0.5)  # alpha < 1


def test_estimate_c1_closed_form_free_case():
    # q = 0, alpha = 1, r = 1, s = 2: midpoint 1.5, z = 0.75,
    # C2 = max (n+1)(2/3)^n = 4/3, B = (1 - z)^(-2) = 16
    ctx = QContext(0.0, 2, 3)
    assert estimate_c1(1.0, 2.0, 1.0, ctx) == pytest.approx(
        math.sqrt(4.0 / 3.0 * 16.0), rel=1e-12
    )


def _estimate_c1_loop(r, s, alpha, q):
    """estimate_c1 as a walk: C2 by stepping n up to past the peak, B by the
    product over i until z |q|^i < 1e-16."""
    r1 = (r + s) / 2.0
    z = (r1 / s) ** (1.0 / alpha)
    rho = r / r1
    c2, n, term = 1.0, 0, 1.0
    while True:
        n += 1
        term *= rho
        value = (n + 1) * term
        c2 = max(c2, value)
        if value < c2 and rho * (n + 2) / (n + 1) < 1.0:
            break
    aq = abs(q)
    b, factor = 1.0 / (1.0 - z), z
    while factor >= 1e-16:
        b /= 1.0 - factor
        factor *= aq
    if aq > 0.0:
        b *= math.exp(2.0 * factor / (1.0 - aq))
    return math.sqrt(c2 * b**alpha)


@pytest.mark.parametrize("q", Q_GRID)
def test_estimate_c1_matches_the_loop(q):
    ctx = QContext(q, 2, 3)
    for r, s in ((1.0, 2.0), (1.0, 4.0), (1.2, 1.5), (1.0, 1.01), (3.0, 3.1), (2.0, 50.0)):
        for alpha in (1.0, 2.0, 3.5):
            want = _estimate_c1_loop(r, s, alpha, q)
            assert estimate_c1(r, s, alpha, ctx) == pytest.approx(want, rel=1e-12)


def test_estimate_c1_is_quick_near_its_limits():
    """A scale pair within 1e-9 of equal and |q| within 1e-10 of 1 each
    take time independent of how close they come."""
    start = time.perf_counter()
    assert 1e24 < estimate_c1(1.0, 1.000000001, 2.0, QContext(0.5, 2, 6)) < math.inf
    assert estimate_c1(1.0, 2.0, 2.0, QContext(0.9999999999, 2, 6)) == math.inf
    assert time.perf_counter() - start < 1.0
    # the midpoint rounds to r, so (n+1) (r/r1)^n has no finite bound
    assert estimate_c1(1.0, math.nextafter(1.0, 2.0), 2.0, QContext(0.5, 2, 6)) == math.inf
    # B fits a float, B^alpha does not
    assert estimate_c1(1.0, 2.0, 7.0, QContext(0.99, 2, 6)) == math.inf


def test_estimate_c1_limits_and_monotonicity():
    ctx = QContext(0.5, 2, 3)
    values = [estimate_c1(1.0, s, 2.0, ctx) for s in (1.5, 2.0, 3.0, 4.0, 8.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        estimate_c1(2.0, 2.0, 1.0, ctx)
    with pytest.raises(ValueError):
        estimate_c1(3.0, 2.0, 1.0, ctx)


@pytest.mark.parametrize("q", Q_GRID)
def test_product_bound_with_estimated_constant(q):
    ctx = QContext(q, 2, 4)
    weights = default_hplus_weights(2)
    c1 = estimate_c1(1.0, 2.0, 2.0, ctx)
    rng = np.random.default_rng(6)
    for _ in range(50):
        f = random_vector(ctx, rng)
        g = random_vector(ctx, rng)
        denom = g_norm(f, 2.0, 2.0, weights) * g_norm(g, 2.0, 2.0, weights)
        ratio = g_norm(graded_tensor(f, g), 1.0, 2.0, weights) / denom
        assert ratio <= c1 + 1e-9


@pytest.mark.parametrize("q", Q_GRID)
def test_lemma53_elementary_case(q):
    ctx = QContext(q, 2, 4)
    e = basis_vector(2, 0)
    assert lemma53_residual(e, e, ctx, 1, 1) <= 1e-12


def test_lemma53_free_case_equality():
    ctx = QContext(0.0, 2, 4)
    rng = np.random.default_rng(7)
    f, g = rng.standard_normal(2), rng.standard_normal(4)
    assert lemma53_residual(f, g, ctx, 1, 2) == 0.0
    # elementary tensors even attain equality
    lhs = np.linalg.norm(np.kron(f, f))
    assert lhs == pytest.approx(np.linalg.norm(f) ** 2, rel=1e-14)


@pytest.mark.parametrize("q", Q_GRID)
def test_lemma53_random_trials(q):
    ctx = QContext(q, 2, 6)
    rng = np.random.default_rng(8)
    for _ in range(100):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        f = rng.standard_normal(2**m)
        g = rng.standard_normal(2**n)
        scale = (
            q_binomial(m + n, m, abs(q))
            * np.linalg.norm(f)
            * np.linalg.norm(g)
        )
        assert lemma53_residual(f, g, ctx, m, n) <= 1e-9 * max(1.0, scale)


def test_lemma53_declared_degrees():
    ctx = QContext(0.5, 2, 4)
    assert lemma53_residual(np.ones(2), np.ones(4), ctx, 1, 2) >= 0.0
    with pytest.raises(ValueError):
        lemma53_residual(np.ones(3), np.ones(2), ctx, 1, 1)
    with pytest.raises(ValueError):
        lemma53_residual(np.ones(2), np.ones(4), ctx, 2, 1)
    # past the old degree-8 cap the residual is computed and respects the bound
    rng = np.random.default_rng(14)
    f, g = rng.standard_normal(2**5), rng.standard_normal(2**4)
    scale = q_binomial(9, 5, 0.5) * np.linalg.norm(f) * np.linalg.norm(g)
    assert 0.0 <= lemma53_residual(f, g, ctx, 5, 4) <= 1e-9 * scale


def test_vage_bound_values():
    assert math.sqrt(2.0 / (2.0 - 1.0)) == pytest.approx(1.41421356, abs=1e-8)
    ctx = QContext(0.5, 2, 4)
    rng = np.random.default_rng(9)
    f = random_vector(ctx, rng)
    ratio = vage_ratio(GradedVector.vacuum(ctx), f, 2.0, 1.0)
    assert ratio == pytest.approx(1.0, rel=1e-12)  # vacuum factor is neutral


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("rs", ((2.0, 1.0), (4.0, 1.0), (1.5, 1.2)))
def test_vage_inequality_random_trials(q, rs):
    r, s = rs
    bound = math.sqrt(r / (r - s))
    ctx = QContext(q, 2, 5)
    rng = np.random.default_rng(10)
    for _ in range(100):
        f = random_vector(ctx, rng)
        g = random_vector(ctx, rng)
        assert vage_ratio(f, g, r, s) <= bound + 1e-9


def test_vage_preconditions():
    ctx = QContext(0.5, 2, 3)
    f = GradedVector.vacuum(ctx)
    with pytest.raises(ValueError):
        vage_ratio(f, f, 1.0, 1.0)
    with pytest.raises(ValueError):
        vage_ratio(f, f, 1.0, 2.0)
    with pytest.raises(ValueError):
        vage_ratio(GradedVector.zero(ctx), f, 2.0, 1.0)


@pytest.mark.parametrize("q", Q_GRID)
def test_duality_residual_random_trials(q):
    ctx = QContext(q, 3, 4)
    rng = np.random.default_rng(11)
    weights = default_hplus_weights(3)
    for _ in range(50):
        f = random_vector(ctx, rng)
        g = random_vector(ctx, rng)
        product = g_norm(f, 2.0, 2.0, weights) * f_dual_norm(g, 2.0, 2.0, weights)
        residual = np.maximum(0.0, np.abs(q_inner(f, g)) - product)
        assert residual <= 1e-10 * max(1.0, product)


def test_duality_trivial_and_saturating():
    ctx = QContext(-0.7, 2, 4)
    weights = default_hplus_weights(2)
    vac = GradedVector.vacuum(ctx)
    product = g_norm(vac, 2.0, 2.0, weights) * f_dual_norm(vac, 2.0, 2.0, weights)
    assert np.maximum(0.0, np.abs(q_inner(vac, vac)) - product) == 0.0
    # the bound is attained at q = 0.9999 too, where the symmetrizer is
    # nearly singular
    for dim in (1, 2, 3):
        for q in (-0.7, 0.9999):
            ctx = QContext(q, dim, 4)
            g = random_vector(ctx, np.random.default_rng([dim, 12]))
            for weights in (np.ones(dim), default_hplus_weights(dim)):
                f = saturating_dual_partner(g, 2.0, 2.0, weights)
                pairing = abs(q_inner(f, g))
                product = g_norm(f, 2.0, 2.0, weights) * f_dual_norm(g, 2.0, 2.0, weights)
                assert pairing == pytest.approx(product, rel=1e-12), (dim, q, weights)
    # oracle: pulling f back through the dense symmetrizer recovers g
    ctx = QContext(0.5, 2, 4)
    weights = default_hplus_weights(2)
    g = random_vector(ctx, np.random.default_rng(13))
    f = saturating_dual_partner(g, 2.0, 3.0, weights)
    for n, f_n in f.components.items():
        scale = 2.0**n * q_factorial(n, 0.5) ** 3.0 * elementary_tensor([weights] * n)
        recovered = np.linalg.solve(symmetrizer_matrix(n, 2, 0.5), scale * f_n)
        np.testing.assert_allclose(recovered, g.components[n], rtol=0, atol=1e-12)
