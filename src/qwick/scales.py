"""Weighted Hilbert scales around the truncated deformed Fock space.

The scale of a norm is passed as plain arguments; the vector may be batched
(see fock), and the norm then has its batch shape.  The test-side norm
`g_norm(f, r, alpha, weights, weight_base)` weights degree n by
r^n ([n]_w!)^alpha, with w = |q| (the default) or w = q, and measures each
tensor with the diagonal one-particle weights (each >= 1; None is the plain
Euclidean norm).  The dual-side norm `f_dual_norm(f, r, alpha, weights)`
measures the symmetrized tensor with the reciprocal degree weights
r^(-n) ([n]_|q|!)^(-alpha) and the reciprocal one-particle weights; its base
is always |q|, since its factorial weights enter with a negative power and
only the |q| family bounds the symmetrizer norm.  Both require r >= 1.  The
graded tensor product, the embedding residual, the tensor-bound constant, the
shuffle-binomial bound, the asymmetric submultiplicativity ratio and the test
vector that saturates the duality bound against a dual vector live here.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fock import (
    GradedVector,
    QContext,
    apply_pq,
    batch_value,
    elementary_tensor,
    fock_norm,
    require_same_context,
    tensor_product,
)
from .qcombinatorics import q_binomial, q_factorial

WEIGHT_BASES = ("q", "abs_q")


def default_hplus_weights(dim: int) -> np.ndarray:
    """The stock one-particle weight vector (1, 2, ..., d)."""
    return np.arange(1, dim + 1, dtype=float)


@functools.lru_cache(maxsize=None)
def _weight_power(weights: tuple[float, ...], n: int) -> np.ndarray:
    out = elementary_tensor([weights] * n)
    out.flags.writeable = False
    return out


def _scale_args(f: GradedVector, r: float, alpha: float, weights, weight_base: str):
    """Check the scale arguments both norms take; return the one-particle
    weights as a tuple (None for the plain norm) and the factorial base."""
    if not math.inf > r >= 1.0:
        raise ValueError(f"scale parameter r must be >= 1 and finite, got {r}")
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
    if not np.all((w >= 1.0) & (w < math.inf)):
        raise ValueError("one-particle weights must be >= 1 and finite")
    return tuple(w), base


def degree_weight(n: int, r: float, alpha: float, base: float, sign: int = 1) -> float:
    """r^n ([n]_base!)^alpha, or its reciprocal when sign = -1; a ValueError
    naming the degree when that is not a finite double."""
    try:
        weight = r ** (sign * n) * q_factorial(n, base) ** (sign * alpha)
    except OverflowError:
        weight = math.inf
    if not math.isfinite(weight):
        raise ValueError(f"degree-{n} scale weight at r = {r}, alpha = {alpha} overflows a double")
    return weight


def _scale_norm(tensors, r: float, alpha: float, weights, base: float, sign: int):
    """sqrt of the sum over (n, t) of t's squared norm under the one-particle
    weights times the degree weight, both reciprocal when sign = -1, per row
    of the batch; a ValueError when the sum is not a finite double."""
    total = 0.0
    with np.errstate(over="ignore"):  # an overflowed sum is reported below
        for n, t in tensors:
            weight = degree_weight(n, r, alpha, base, sign)
            if weights is None:
                norm_sq = np.vecdot(t, t)
            else:
                w = _weight_power(weights, n)
                norm_sq = np.vecdot(t * t, w if sign > 0 else 1.0 / w)
            total = total + norm_sq * weight
    if not np.all(np.isfinite(total)):
        raise ValueError(f"scale norm at r = {r}, alpha = {alpha} overflows a double")
    return batch_value(np.sqrt(total))


def g_norm(
    f: GradedVector, r: float, alpha: float, weights=None, weight_base: str = "abs_q"
) -> float:
    """Test-side norm: sqrt of sum over degrees of the weighted squared tensor
    norm times r^n ([n]_w!)^alpha."""
    weights, base = _scale_args(f, r, alpha, weights, weight_base)
    return _scale_norm(f.components.items(), r, alpha, weights, base, 1)


def f_dual_norm(f: GradedVector, r: float, alpha: float, weights=None) -> float:
    """Dual-side norm: the symmetrized tensor measured with reciprocal
    one-particle weights, degree-weighted by r^(-n) ([n]_|q|!)^(-alpha)."""
    weights, aq = _scale_args(f, r, alpha, weights, "abs_q")
    sym = ((n, apply_pq(n, comp, f.ctx)) for n, comp in f.components.items())
    return _scale_norm(sym, r, alpha, weights, aq, -1)


# ---------------------------------------------------------------------------
# Graded tensor product
# ---------------------------------------------------------------------------


def graded_tensor(f: GradedVector, g: GradedVector) -> GradedVector:
    """Degree-n component sum of f_i (x) g_(n-i); degrees beyond the
    truncation are dropped, so norms of a product never see them.  f and g
    may carry a batch."""
    require_same_context(f, g)
    comps: dict[int, np.ndarray] = {}
    for i, fi in f.components.items():
        for j, gj in g.components.items():
            n = i + j
            if n > f.ctx.max_degree:
                continue
            block = tensor_product(fi, gj)
            total = comps.get(n)
            if total is None:
                comps[n] = block
            elif total.shape == block.shape:
                total += block  # every sum is a fresh tensor_product result
            else:
                comps[n] = total + block  # an unbatched sum meets a batched block
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
    return batch_value(np.maximum(0.0, fock_norm(f) - g_norm(f, r, alpha, weights, weight_base)))


def estimate_c1(r: float, s: float, alpha: float, ctx: QContext) -> float:
    """A constant valid for the test-side product bound

        ||F (x) G||_(r, alpha)  <=  C1 ||F||_(s, alpha) ||G||_(s, alpha),
        1 <= r < s.

    Built from the midpoint geometric majorization: with r1 = (r+s)/2 and
    z = (r1/s)^(1/alpha), C1 = sqrt(C2 * B^alpha) where C2 bounds
    (n+1) (r/r1)^n and B = (1-z)^(-1) prod_i (1 - z |q|^i)^(-1).  C2 is the
    larger value at the integer neighbours of the peak x = -1/ln(r/r1) - 1 of
    the log-concave (x+1) (r/r1)^x.  The infinite product is truncated once
    z |q|^i < 1e-16 and the dropped tail is covered by exp(2 * remaining
    geometric mass), so the returned constant stays valid.  It is inf once
    it overflows, and when r/r1 rounds to 1.
    """
    if not 1.0 <= r < s < math.inf:
        raise ValueError("requires 1 <= r < s < inf")
    if not 1.0 <= alpha < math.inf:
        raise ValueError("requires finite alpha >= 1")
    r1 = (r + s) / 2.0
    z = (r1 / s) ** (1.0 / alpha)
    rho = r / r1
    if rho >= 1.0:
        return math.inf
    peak = max(0, math.floor(-1.0 / math.log(rho) - 1.0))
    c2 = max((n + 1) * rho**n for n in (peak, peak + 1))
    aq = abs(ctx.q)
    b = 1.0 / (1.0 - z)  # geometric series in z
    factor = z  # z * |q|^i, starting at i = 0
    while factor >= 1e-16:
        b /= 1.0 - factor
        if b == math.inf:
            return math.inf
        factor *= aq
    if aq > 0.0:
        b *= math.exp(2.0 * factor / (1.0 - aq))  # dropped tail: -log(1-x) <= 2x
    try:
        return math.sqrt(c2 * b**alpha)
    except OverflowError:
        return math.inf


def lemma53_residual(f, g, ctx: QContext, m: int, n: int) -> float:
    """max(0, LHS - RHS) for the shuffle-binomial product bound

        ||sym (f (x) g)|| <= (m+n choose m)_|q| ||sym f|| ||sym g||,

    all norms plain Euclidean on the tensor level."""
    f = np.asarray(f, dtype=float).reshape(-1)
    g = np.asarray(g, dtype=float).reshape(-1)
    if f.size != ctx.dim**m or g.size != ctx.dim**n:
        raise ValueError("tensor lengths do not match the declared degrees")
    if not (np.isfinite(f).all() and np.isfinite(g).all()):
        raise ValueError("tensor entries must be finite")
    lhs = float(np.linalg.norm(apply_pq(m + n, tensor_product(f, g), ctx)))
    rhs = (
        q_binomial(m + n, m, abs(ctx.q))
        * float(np.linalg.norm(apply_pq(m, f, ctx)))
        * float(np.linalg.norm(apply_pq(n, g, ctx)))
    )
    return max(0.0, lhs - rhs)


VAGE_ALPHA = 2.0  # the exponent at which the vage bound holds


def vage_ratio(f: GradedVector, g: GradedVector, r: float, s: float):
    """Asymmetric submultiplicativity on the dual scale at exponent -VAGE_ALPHA:

        ||F (x) G||_r  <=  sqrt(r / (r - s)) ||F||_s ||G||_r,   r > s >= 1,

    where the subscript is the reciprocal degree-weight parameter.  Returns
    the ratio of the two sides; the caller compares it with the bound.
    """
    if not s >= 1.0 or not r > s:
        raise ValueError("requires r > s >= 1")
    denom = f_dual_norm(f, s, VAGE_ALPHA) * f_dual_norm(g, r, VAGE_ALPHA)
    if np.any(denom == 0.0):
        raise ValueError("zero denominator: both factors must be nonzero")
    ratio = f_dual_norm(graded_tensor(f, g), r, VAGE_ALPHA) / denom
    return batch_value(ratio)


def saturating_dual_partner(g: GradedVector, r: float, alpha: float, weights) -> GradedVector:
    """The test vector that turns the duality bound into an equality against
    the dual vector g: degree by degree f_n = P g_n / (r^n ([n]_|q|!)^alpha
    W_n), with W_n the one-particle weights on degree n.  Then <f, g>_q =
    (f, P g) = ||f||_test^2 = ||g||_dual^2, and the symmetrizer, nearly
    singular as |q| -> 1, is applied, never inverted."""
    weights, aq = _scale_args(g, r, alpha, weights, "abs_q")
    comps = {
        n: apply_pq(n, comp, g.ctx) / (degree_weight(n, r, alpha, aq) * _weight_power(weights, n))
        for n, comp in g.components.items()
    }
    return GradedVector._of(g.ctx, comps)
