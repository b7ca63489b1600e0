"""Weighted Hilbert scales around the truncated deformed Fock space.

The scale of a norm is passed as plain arguments.  The test-side norm
`g_norm(f, r, alpha, weights, weight_base)` weights degree n by
r^n ([n]_w!)^alpha, with w = |q| (the default) or w = q, and measures each
tensor with the diagonal one-particle weights (each >= 1; None is the plain
Euclidean norm).  The dual-side norm `f_dual_norm(f, r, alpha, weights)`
measures the symmetrized tensor with the reciprocal degree weights
r^(-n) ([n]_|q|!)^(-alpha) and the reciprocal one-particle weights; its base
is always |q|, since its factorial weights enter with a negative power and
only the |q| family bounds the symmetrizer norm.  Both require r >= 1.  The
graded tensor product, the embedding/duality residuals, the tensor-bound
constant, the shuffle-binomial bound, and the asymmetric submultiplicativity
ratio live here.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fock import (
    GradedVector,
    QContext,
    apply_pq,
    fock_norm,
    q_inner,
    require_same_context,
    symmetrize,
    tensor_product,
)
from .qcombinatorics import q_binomial, q_factorial

WEIGHT_BASES = ("q", "abs_q")


def default_hplus_weights(dim: int) -> np.ndarray:
    """The stock one-particle weight vector (1, 2, ..., d)."""
    return np.arange(1, dim + 1, dtype=float)


@functools.lru_cache(maxsize=None)
def _weight_power(weights: tuple[float, ...], n: int) -> np.ndarray:
    out = np.ones(1)
    for _ in range(n):
        out = tensor_product(weights, out)
    out.flags.writeable = False
    return out


def _scale_args(f: GradedVector, r: float, alpha: float, weights, weight_base: str):
    """Check the scale arguments both norms take; return the one-particle
    weights as a tuple (None for the plain norm) and the factorial base."""
    if not r >= 1.0:
        raise ValueError(f"scale parameter r must be >= 1, got {r}")
    if not math.isfinite(alpha):
        raise ValueError(f"scale exponent alpha must be finite, got {alpha}")
    if weight_base not in WEIGHT_BASES:
        raise ValueError(f"weight_base must be one of {WEIGHT_BASES}")
    base = f.ctx.q if weight_base == "q" else abs(f.ctx.q)
    if weights is None:
        return None, base
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape != (f.ctx.dim,):
        raise ValueError(f"weights must have length {f.ctx.dim}")
    if not np.all(w >= 1.0):
        raise ValueError("one-particle weights must be >= 1")
    return tuple(w), base


def _weighted_norm_sq(t: np.ndarray, weights: tuple | None, n: int, invert: bool) -> float:
    if weights is None:
        return float(t @ t)
    w = _weight_power(weights, n)
    if invert:
        return float((t * t) @ (1.0 / w))
    return float((t * t) @ w)


def g_norm(
    f: GradedVector, r: float, alpha: float, weights=None, weight_base: str = "abs_q"
) -> float:
    """Test-side norm: sqrt of sum over degrees of the weighted squared tensor
    norm times r^n ([n]_w!)^alpha."""
    weights, base = _scale_args(f, r, alpha, weights, weight_base)
    total = 0.0
    for n, comp in f.components.items():
        weight = r**n * q_factorial(n, base) ** alpha
        total += _weighted_norm_sq(comp, weights, n, invert=False) * weight
    return float(math.sqrt(total))


def f_dual_norm(f: GradedVector, r: float, alpha: float, weights=None) -> float:
    """Dual-side norm: the symmetrized tensor measured with reciprocal
    one-particle weights, degree-weighted by r^(-n) ([n]_|q|!)^(-alpha)."""
    weights, aq = _scale_args(f, r, alpha, weights, "abs_q")
    total = 0.0
    for n, comp in f.components.items():
        sym = apply_pq(n, comp, f.ctx)
        weight = r ** (-n) * q_factorial(n, aq) ** (-alpha)
        total += _weighted_norm_sq(sym, weights, n, invert=True) * weight
    return float(math.sqrt(total))


# ---------------------------------------------------------------------------
# Graded tensor product
# ---------------------------------------------------------------------------


def graded_tensor(f: GradedVector, g: GradedVector) -> GradedVector:
    """Degree-n component sum of f_i (x) g_(n-i); degrees beyond the
    truncation are dropped, so norms of a product never see them."""
    require_same_context(f, g)
    comps: dict[int, np.ndarray] = {}
    for i, fi in f.components.items():
        for j, gj in g.components.items():
            n = i + j
            if n > f.ctx.max_degree:
                continue
            block = tensor_product(fi, gj)
            comps[n] = comps[n] + block if n in comps else block
    return GradedVector._of(f.ctx, comps)


# ---------------------------------------------------------------------------
# Embedding, product bound, binomial bound, submultiplicativity, duality
# ---------------------------------------------------------------------------


def embedding_residual(
    f: GradedVector, r: float, alpha: float, weights=None, weight_base: str = "abs_q"
) -> float:
    """max(0, plain twisted norm - test-side norm); zero whenever the scale
    dominates the center space.

    Requires alpha >= 1 and r >= max(1, (1 + w)^(1 - alpha)) for the weight
    base w.  With the q base and q < 0 the embedding can genuinely fail on
    antisymmetric tensors even under this precondition; callers probe that as
    a finding, not a bug.
    """
    _, base = _scale_args(f, r, alpha, weights, weight_base)
    if not alpha >= 1.0:
        raise ValueError("embedding check requires alpha >= 1")
    r_min = max(1.0, (1.0 + base) ** (1.0 - alpha))
    if r < r_min - 1e-15:
        raise ValueError(
            f"embedding check requires r >= max(1, (1+w)^(1-alpha)) = {r_min:.6g}, "
            f"got r = {r}"
        )
    return max(0.0, fock_norm(f) - g_norm(f, r, alpha, weights, weight_base))


def estimate_c1(r: float, s: float, alpha: float, ctx: QContext) -> float:
    """A finite constant valid for the test-side product bound

        ||F (x) G||_(r, alpha)  <=  C1 ||F||_(s, alpha) ||G||_(s, alpha),
        1 <= r < s.

    Built from the midpoint geometric majorization: with r1 = (r+s)/2 and
    z = (r1/s)^(1/alpha), C1 = sqrt(C2 * B^alpha) where C2 bounds
    (n+1) (r/r1)^n and B = (1-z)^(-1) prod_i (1 - z |q|^i)^(-1).  The infinite
    product is truncated once z |q|^i < 1e-16 and the dropped tail is covered
    by exp(2 * remaining geometric mass), so the returned constant stays valid.
    """
    if not 1.0 <= r < s:
        raise ValueError("requires 1 <= r < s")
    if not alpha >= 1.0:
        raise ValueError("requires alpha >= 1")
    r1 = (r + s) / 2.0
    z = (r1 / s) ** (1.0 / alpha)
    rho = r / r1
    c2 = 1.0
    n = 0
    term = 1.0
    while True:
        n += 1
        term *= rho
        value = (n + 1) * term
        c2 = max(c2, value)
        if value < c2 and rho * (n + 2) / (n + 1) < 1.0:
            break
    aq = abs(ctx.q)
    b = 1.0 / (1.0 - z)  # geometric series in z
    factor = z  # z * |q|^i, starting at i = 0
    while factor >= 1e-16:
        b /= 1.0 - factor
        if aq == 0.0:
            factor = 0.0
        else:
            factor *= aq
    if aq > 0.0:
        b *= math.exp(2.0 * factor / (1.0 - aq))  # dropped tail: -log(1-x) <= 2x
    return float(math.sqrt(c2 * b**alpha))


def lemma53_residual(f, g, ctx: QContext, m: int, n: int) -> float:
    """max(0, LHS - RHS) for the shuffle-binomial product bound

        ||sym (f (x) g)|| <= (m+n choose m)_|q| ||sym f|| ||sym g||,

    all norms plain Euclidean on the tensor level."""
    f = np.asarray(f, dtype=float).reshape(-1)
    g = np.asarray(g, dtype=float).reshape(-1)
    if f.size != ctx.dim**m or g.size != ctx.dim**n:
        raise ValueError("tensor lengths do not match the declared degrees")
    lhs = float(np.linalg.norm(apply_pq(m + n, tensor_product(f, g), ctx)))
    rhs = (
        q_binomial(m + n, m, abs(ctx.q))
        * float(np.linalg.norm(apply_pq(m, f, ctx)))
        * float(np.linalg.norm(apply_pq(n, g, ctx)))
    )
    return max(0.0, lhs - rhs)


def vage_ratio(f: GradedVector, g: GradedVector, r: float, s: float) -> tuple[float, float]:
    """Asymmetric submultiplicativity on the dual scale at exponent -2:

        ||F (x) G||_r  <=  sqrt(r / (r - s)) ||F||_s ||G||_r,   r > s >= 1,

    where the subscript is the reciprocal degree-weight parameter.  Returns
    (ratio, bound); the caller compares them.
    """
    if not s >= 1.0 or not r > s:
        raise ValueError("requires r > s >= 1")
    denom = f_dual_norm(f, s, 2.0) * f_dual_norm(g, r, 2.0)
    if denom == 0.0:
        raise ValueError("zero denominator: both factors must be nonzero")
    ratio = f_dual_norm(graded_tensor(f, g), r, 2.0) / denom
    return float(ratio), float(math.sqrt(r / (r - s)))


def duality_residual(f_test: GradedVector, g_dual: GradedVector, r: float, alpha: float) -> float:
    """max(0, |twisted pairing| - test norm * dual norm) for the matched pair
    of scales (r, alpha) on the |q| base with the default one-particle weights
    and their reciprocals; expected zero because the dual norm is exactly the
    operator dual."""
    if not alpha >= 1.0:
        raise ValueError("requires alpha >= 1")
    weights = default_hplus_weights(f_test.ctx.dim)
    product = g_norm(f_test, r, alpha, weights) * f_dual_norm(g_dual, r, alpha, weights)
    return max(0.0, abs(q_inner(f_test, g_dual)) - product)


def saturating_dual_partner(f_test: GradedVector, r: float, alpha: float) -> GradedVector:
    """The dual vector that turns the duality bound into an equality for the
    given test vector under the default one-particle weights: degree by
    degree, scale-weight the one-particle-weighted tensor and pull it back
    through the symmetrizer (a dense solve against the kernel applied to
    identity columns)."""
    ctx = f_test.ctx
    weights = tuple(default_hplus_weights(ctx.dim))
    aq = abs(ctx.q)
    comps: dict[int, np.ndarray] = {}
    for n, comp in f_test.components.items():
        weighted = comp * _weight_power(weights, n)
        scale = r**n * q_factorial(n, aq) ** alpha
        pq = symmetrize(np.eye(ctx.dim**n), n, ctx.dim, ctx.q).T
        comps[n] = scale * np.linalg.solve(pq, weighted)
    return GradedVector(ctx, comps)
