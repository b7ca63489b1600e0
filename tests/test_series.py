import math

import numpy as np
import pytest

from qwick.fock import GradedVector, QContext, basis_vector
from qwick.scales import f_dual_norm, graded_tensor
from qwick.series import (
    TAIL_TOL,
    ConvergenceCertificate,
    SeriesSpec,
    _tail_bound,
    certify_radius,
    wick_exp,
    wick_inverse,
    wick_series,
)

from oracles import random_vector

Q_GRID = (-0.9, -0.5, 0.0, 0.3, 0.5, 0.9)


def wick_power(f: GradedVector, n: int) -> GradedVector:
    """n-fold graded tensor power; the zeroth power is the vacuum."""
    out = GradedVector.vacuum(f.ctx)
    for _ in range(n):
        out = graded_tensor(out, f)
    return out


def test_series_spec_validation():
    SeriesSpec((1.0, 0.5), 2.0)
    with pytest.raises(ValueError):
        SeriesSpec((1.0,), 0.0)
    with pytest.raises(ValueError):
        SeriesSpec((math.inf,), 1.0)
    spec = SeriesSpec((1.0, 1.0, 1.0), 1.0)
    assert spec.fitted_constant(0.5) == 1.0


def test_certificate_invariants():
    with pytest.raises(ValueError):
        ConvergenceCertificate(s=1.0, norm_s=0.5, r=1.0, contraction=0.5)
    with pytest.raises(ValueError):
        ConvergenceCertificate(s=1.0, norm_s=0.5, r=2.0, contraction=1.2)
    cert = ConvergenceCertificate(s=1.0, norm_s=0.5, r=2.0, contraction=0.7)
    assert (cert.s, cert.norm_s, cert.r, cert.contraction) == (1.0, 0.5, 2.0, 0.7)


def test_wick_power_basics():
    ctx = QContext(0.5, 2, 4)
    rng = np.random.default_rng(0)
    f = random_vector(ctx, rng)
    assert (wick_power(f, 0) - GradedVector.vacuum(ctx)).max_abs() == 0.0
    assert (wick_power(f, 1) - f).max_abs() == 0.0
    assert (wick_power(f, 2) - graded_tensor(f, f)).max_abs() == 0.0


def test_wick_power_binomial_expansion():
    # powers of vacuum + t e: binomial coefficients in the degree ladder
    ctx = QContext(0.3, 1, 6)
    t = 0.5
    f = GradedVector(ctx, {0: [1.0], 1: [t]})
    for n in range(5):
        power = wick_power(f, n)
        for k in range(ctx.max_degree + 1):
            expected = math.comb(n, k) * t**k if k <= n else 0.0
            assert power.component(k)[0] == expected  # exact: dyadic t


@pytest.mark.parametrize("q", Q_GRID)
def test_power_norms_obey_iterated_bound(q):
    ctx = QContext(q, 2, 5)
    rng = np.random.default_rng(1)
    r, s = 2.0, 1.0
    kappa = math.sqrt(r / (r - s))
    for _ in range(10):
        f = random_vector(ctx, rng)
        norm_s = f_dual_norm(f, s, 2.0)
        for n in range(1, 6):
            lhs = f_dual_norm(wick_power(f, n), r, 2.0)
            assert lhs <= kappa ** (n - 1) * norm_s**n * (1 + 1e-12)


def test_certify_radius_frozen_example():
    # radius 1, s-norm 0.5: the grid picks r = 1.5, contraction sqrt(3)/2
    ctx = QContext(0.5, 2, 5)
    rng = np.random.default_rng(2)
    f = random_vector(ctx, rng)
    f = f.scale(0.5 / f_dual_norm(f, 1.0, 2.0))
    cert = certify_radius(f, SeriesSpec((1.0,) * 30, 1.0))
    assert cert.s == 1.0
    assert cert.norm_s == pytest.approx(0.5, rel=1e-12)
    assert cert.r == pytest.approx(1.5)
    assert cert.contraction == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)
    assert cert.r > cert.s / (1.0 - (cert.norm_s / 1.0) ** 2)  # validity condition


def test_certify_radius_scalar_argument():
    ctx = QContext(0.5, 2, 4)
    f = GradedVector(ctx, {0: [0.25]})
    cert = certify_radius(f, SeriesSpec((1.0,) * 10, 1.0))
    assert cert.contraction < 1.0


def test_certify_radius_rejects_large_vacuum_part():
    ctx = QContext(0.5, 2, 4)
    f = GradedVector(ctx, {0: [2.0]})
    with pytest.raises(ValueError):
        certify_radius(f, SeriesSpec((1.0,) * 10, 1.0))


def test_certify_radius_grows_s():
    # a vector whose s = 1 norm exceeds the radius but whose vacuum part is
    # inside: growing s must eventually certify
    ctx = QContext(0.5, 2, 4)
    rng = np.random.default_rng(3)
    f = random_vector(ctx, rng)
    f = f.scale(5.0 / f_dual_norm(f, 1.0, 2.0))
    comps = dict(f.components)
    comps[0] = np.array([0.1])
    f = GradedVector(ctx, comps)
    cert = certify_radius(f, SeriesSpec((1.0,) * 10, 1.0))
    assert cert.s > 1.0
    assert cert.contraction < 1.0


def test_wick_series_identity_function():
    ctx = QContext(-0.3, 2, 5)
    rng = np.random.default_rng(4)
    f = random_vector(ctx, rng)
    f = f.scale(0.5 / f_dual_norm(f, 1.0, 2.0))
    cert = certify_radius(f, SeriesSpec((0.0, 1.0), 1.0))
    out = wick_series(f, SeriesSpec((0.0, 1.0), 1.0), cert)
    assert (out - f).max_abs() == 0.0


def test_wick_series_geometric_single_mode():
    # the geometric series over a pure degree-one argument fills the ladder
    ctx = QContext(0.5, 1, 6)
    f = GradedVector(ctx, {1: [0.5]})
    spec = SeriesSpec((1.0,) * 20, 1.0)
    cert = certify_radius(f, spec)
    out = wick_series(f, spec, cert)
    for k in range(ctx.max_degree + 1):
        assert out.component(k)[0] == 0.5**k  # exact: dyadic data
    diffs = []
    partial = GradedVector.zero(ctx)
    power = GradedVector.vacuum(ctx)
    previous = None
    for n in range(8):
        if n > 0:
            power = graded_tensor(power, f)
        partial = partial + power
        gap = f_dual_norm(out - partial, cert.r, 2.0)
        if previous is not None and previous > 0:
            diffs.append(gap / previous)
        previous = gap
    assert all(ratio <= cert.contraction + 1e-9 for ratio in diffs if ratio > 0)


def test_wick_exp_zero_and_single_mode():
    ctx = QContext(0.3, 1, 6)
    assert (wick_exp(GradedVector.zero(ctx)) - GradedVector.vacuum(ctx)).max_abs() == 0.0
    t = 0.5
    out = wick_exp(GradedVector(ctx, {1: [t]}))
    for k in range(ctx.max_degree + 1):
        assert out.component(k)[0] == pytest.approx(t**k / math.factorial(k), abs=1e-15)


@pytest.mark.parametrize("q", Q_GRID)
def test_wick_exp_inverse_pairing(q):
    # exp(F) (x) exp(-F) returns to the vacuum when F has no vacuum part
    ctx = QContext(q, 2, 4)
    rng = np.random.default_rng(5)
    comps = {n: 0.3 * rng.standard_normal(2**n) for n in range(1, ctx.max_degree + 1)}
    f = GradedVector(ctx, comps)
    product = graded_tensor(wick_exp(f), wick_exp(f.scale(-1.0)))
    assert (product - GradedVector.vacuum(ctx)).max_abs() <= 1e-10


def test_wick_exp_homomorphism_single_mode():
    ctx = QContext(0.5, 1, 6)
    e = basis_vector(1, 0)
    a, b = 0.4, 0.25
    left = wick_exp(GradedVector(ctx, {1: (a + b) * e}))
    right = graded_tensor(
        wick_exp(GradedVector(ctx, {1: a * e})), wick_exp(GradedVector(ctx, {1: b * e}))
    )
    assert (left - right).max_abs() <= 1e-10


EXP_TERMS = 120


def _certified_exp(f: GradedVector) -> GradedVector:
    """Oracle for wick_exp: the exponential series summed until its certified
    tail drops below TAIL_TOL.  Any finite radius certifies it; one well past
    the norm keeps the contraction small, so the tail gets there within
    EXP_TERMS terms."""
    coeffs = [1.0]
    for n in range(1, EXP_TERMS):
        coeffs.append(coeffs[-1] / n)
    spec = SeriesSpec(tuple(coeffs), 8.0 * f_dual_norm(f, 1.0, 2.0) + 1.0)
    cert = certify_radius(f, spec)
    # the sum stopped on its certificate, not because the coefficients ran out
    assert _tail_bound(spec, cert.contraction, EXP_TERMS - 1) < TAIL_TOL
    return wick_series(f, spec, cert)


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("dim,top", ((1, 6), (2, 4), (3, 3)))
def test_wick_exp_matches_certified_series(dim, top, q):
    ctx = QContext(q, dim, top)
    rng = np.random.default_rng([dim, top])
    for vacuum_part in (0.0, 0.5, -0.5, 3.0):
        comps = {n: 0.3 * rng.standard_normal(dim**n) for n in range(1, top + 1)}
        comps[0] = np.array([vacuum_part])
        f = GradedVector(ctx, comps)
        got = wick_exp(f)
        assert sorted(got.components) == list(range(top + 1))
        assert (got - _certified_exp(f)).max_abs() <= TAIL_TOL * got.max_abs()


def _wick_inverse_power_sum(f: GradedVector) -> GradedVector:
    """Oracle for wick_inverse: f = f_0 (Omega - D) with D degree-nilpotent,
    so f^-1 = (1/f_0) sum_{k=0..N} D^k."""
    vacuum_part = float(f.component(0)[0])
    defect = GradedVector(
        f.ctx, {n: -arr / vacuum_part for n, arr in f.components.items() if n >= 1}
    )
    result = power = GradedVector.vacuum(f.ctx)
    for _ in range(f.ctx.max_degree):
        power = graded_tensor(power, defect)
        result = result + power
    return result.scale(1.0 / vacuum_part)


def _dyadic_vector(ctx, rng):
    """Entries k/8 and a power-of-two vacuum part: tensor arithmetic on them
    is exact."""
    comps = {n: rng.integers(-16, 17, size=ctx.dim**n) / 8.0 for n in range(ctx.max_degree + 1)}
    sign = float((-1.0) ** rng.integers(0, 2))
    comps[0] = np.array([sign * 2.0 ** float(rng.integers(-2, 3))])
    return GradedVector(ctx, comps)


def _generic_vector(ctx, rng):
    comps = {n: rng.standard_normal(ctx.dim**n) for n in range(1, ctx.max_degree + 1)}
    # |vacuum part| >= 1 keeps the inverse well conditioned
    z = float(rng.standard_normal())
    comps[0] = np.array([math.copysign(1.0 + abs(z), z)])
    return GradedVector(ctx, comps)


@pytest.mark.parametrize("q", (-0.7, 0.0, 0.5))
@pytest.mark.parametrize("dim,top", ((1, 8), (2, 5), (3, 4)))
def test_wick_inverse_recursion_matches_power_sum(dim, top, q):
    ctx = QContext(q, dim, top)
    rng = np.random.default_rng([dim, top])
    for _ in range(10):
        f = _dyadic_vector(ctx, rng)
        got, want = wick_inverse(f), _wick_inverse_power_sum(f)
        assert sorted(got.components) == sorted(want.components)
        # dyadic data keeps both routes exact, so the entries are equal; only
        # the sign of a zero may differ, as the routes add in another order
        for n in got.components:
            assert np.array_equal(got.component(n), want.component(n))
        g = _generic_vector(ctx, rng)
        gap = (wick_inverse(g) - _wick_inverse_power_sum(g)).max_abs()
        assert gap <= 1e-13 * max(1.0, g.max_abs()) ** top


def test_wick_inverse_skips_unreached_degrees():
    ctx = QContext(0.5, 2, 5)
    f = GradedVector(ctx, {0: [2.0], 2: [1.0, 0.0, 0.0, 1.0]})
    assert sorted(wick_inverse(f).components) == [0, 2, 4]


def test_wick_inverse_vacuum():
    ctx = QContext(0.5, 2, 4)
    vac = GradedVector.vacuum(ctx)
    assert (wick_inverse(vac) - vac).max_abs() == 0.0


def test_wick_inverse_single_mode_geometric():
    ctx = QContext(0.3, 1, 5)
    t = 0.5
    f = GradedVector(ctx, {0: [1.0], 1: [t]})
    inv = wick_inverse(f)
    for k in range(ctx.max_degree + 1):
        assert inv.component(k)[0] == (-t) ** k  # exact: dyadic data
    assert (graded_tensor(f, inv) - GradedVector.vacuum(ctx)).max_abs() == 0.0


def test_wick_inverse_requires_vacuum_part():
    ctx = QContext(0.5, 2, 3)
    with pytest.raises(ValueError):
        wick_inverse(GradedVector(ctx, {1: np.ones(2)}))


@pytest.mark.parametrize("q", Q_GRID)
def test_wick_inverse_exact_on_dyadic_family(q):
    ctx = QContext(q, 2, 4)
    vac = GradedVector.vacuum(ctx)
    rng = np.random.default_rng(6)
    for _ in range(30):
        f = _dyadic_vector(ctx, rng)
        assert (graded_tensor(f, wick_inverse(f)) - vac).max_abs() == 0.0


def test_wick_inverse_float_family_to_roundoff():
    ctx = QContext(-0.6, 2, 4)
    vac = GradedVector.vacuum(ctx)
    rng = np.random.default_rng(7)
    for _ in range(30):
        f = _generic_vector(ctx, rng)
        defect = (graded_tensor(f, wick_inverse(f)) - vac).max_abs()
        assert defect <= 1e-12 * max(1.0, f.max_abs()) ** ctx.max_degree
