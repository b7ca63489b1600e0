import math

import numpy as np
import pytest

from qwick.fock import (
    GradedVector,
    QContext,
    basis_vector,
    elementary_tensor,
    fock_norm,
    q_inner,
)
from qwick.qcombinatorics import q_binomial
from qwick.scales import (
    default_hplus_weights,
    duality_residual,
    embedding_residual,
    estimate_c1,
    f_dual_norm,
    g_norm,
    graded_tensor,
    lemma53_residual,
    saturating_dual_partner,
    vage_ratio,
)

Q_GRID = (-0.9, -0.5, 0.0, 0.3, 0.5, 0.9)


def test_norm_scale_validation():
    f = GradedVector.vacuum(QContext(0.5, 2, 3))
    for norm in (g_norm, f_dual_norm):
        with pytest.raises(ValueError, match="r must be >= 1"):
            norm(f, 0.5, 2.0)
        with pytest.raises(ValueError, match="r must be >= 1"):
            norm(f, math.nan, 2.0)
        with pytest.raises(ValueError, match="length 2"):
            norm(f, 1.0, 1.0, np.array([1.0]))
        with pytest.raises(ValueError, match="weights must be >= 1"):
            norm(f, 1.0, 1.0, np.array([0.5, 2.0]))
    with pytest.raises(ValueError, match="weight_base"):
        g_norm(f, 2.0, 2.0, None, "bad")


def test_g_norm_frozen_example():
    ctx = QContext(0.5, 2, 4)
    e = basis_vector(2, 0)
    f = GradedVector(ctx, {2: elementary_tensor([e, e])})
    assert g_norm(f, 2.0, 1.0, None, "q") == pytest.approx(math.sqrt(6.0), abs=1e-15)
    assert g_norm(GradedVector.vacuum(ctx), 2.0, 1.0, None, "q") == 1.0


def test_g_norm_trivial_scale_is_plain_norm():
    ctx = QContext(0.7, 2, 3)
    rng = np.random.default_rng(0)
    f = GradedVector.random(ctx, rng)
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
    f = GradedVector.random(ctx, rng)
    assert f_dual_norm(f, 1.0, 0.0) == pytest.approx(f.euclidean_norm(), rel=1e-14)


def test_graded_tensor_unital_exact():
    ctx = QContext(-0.4, 2, 5)
    rng = np.random.default_rng(2)
    f = GradedVector.random(ctx, rng)
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
        f = GradedVector.random(ctx, rng)
        assert embedding_residual(f, 1.0, 2.0, weights) <= 1e-12 * max(1.0, fock_norm(f))


def test_embedding_free_case_zero():
    ctx = QContext(0.0, 2, 4)
    rng = np.random.default_rng(5)
    f = GradedVector.random(ctx, rng)
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
        f = GradedVector.random(ctx, rng)
        g = GradedVector.random(ctx, rng)
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


def test_lemma53_degree_inference():
    ctx = QContext(0.5, 2, 4)
    assert lemma53_residual(np.ones(2), np.ones(4), ctx) >= 0.0
    with pytest.raises(ValueError):
        lemma53_residual(np.ones(3), np.ones(2), ctx)
    with pytest.raises(ValueError):
        lemma53_residual(np.ones(1), np.ones(1), QContext(0.5, 1, 4))  # needs degrees
    # past the old degree-8 cap the residual is computed and respects the bound
    rng = np.random.default_rng(14)
    f, g = rng.standard_normal(2**5), rng.standard_normal(2**4)
    scale = q_binomial(9, 5, 0.5) * np.linalg.norm(f) * np.linalg.norm(g)
    assert 0.0 <= lemma53_residual(f, g, ctx, 5, 4) <= 1e-9 * scale


def test_vage_bound_values():
    assert math.sqrt(2.0 / (2.0 - 1.0)) == pytest.approx(1.41421356, abs=1e-8)
    ctx = QContext(0.5, 2, 4)
    rng = np.random.default_rng(9)
    f = GradedVector.random(ctx, rng)
    ratio, bound = vage_ratio(GradedVector.vacuum(ctx), f, 2.0, 1.0)
    assert bound == math.sqrt(2.0)
    assert ratio == pytest.approx(1.0, rel=1e-12)  # vacuum factor is neutral


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("rs", ((2.0, 1.0), (4.0, 1.0), (1.5, 1.2)))
def test_vage_inequality_random_trials(q, rs):
    r, s = rs
    ctx = QContext(q, 2, 5)
    rng = np.random.default_rng(10)
    for _ in range(100):
        f = GradedVector.random(ctx, rng)
        g = GradedVector.random(ctx, rng)
        ratio, bound = vage_ratio(f, g, r, s)
        assert bound == math.sqrt(r / (r - s))
        assert ratio <= bound + 1e-9


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
        f = GradedVector.random(ctx, rng)
        g = GradedVector.random(ctx, rng)
        product = g_norm(f, 2.0, 2.0, weights) * f_dual_norm(g, 2.0, 2.0, weights)
        assert duality_residual(f, g, 2.0, 2.0) <= 1e-10 * max(1.0, product)


def test_duality_trivial_and_saturating():
    ctx = QContext(-0.7, 2, 4)
    vac = GradedVector.vacuum(ctx)
    assert duality_residual(vac, vac, 2.0, 2.0) == 0.0
    rng = np.random.default_rng(12)
    f = GradedVector.random(ctx, rng)
    partner = saturating_dual_partner(f, 2.0, 2.0)
    assert duality_residual(f, partner, 2.0, 2.0) <= 1e-10
    weights = default_hplus_weights(2)
    pairing = abs(q_inner(f, partner))
    product = g_norm(f, 2.0, 2.0, weights) * f_dual_norm(partner, 2.0, 2.0, weights)
    assert pairing == pytest.approx(product, rel=1e-12)  # the bound is attained
