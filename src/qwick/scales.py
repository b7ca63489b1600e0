"""Weighted Hilbert scales around the truncated deformed Fock space.

Test-side norms weight degree n by r^n ([n]_w!)^alpha on a weighted
one-particle space (diagonal weights >= 1); dual-side norms measure the
symmetrized tensor with reciprocal degree weights r^(-n) ([n]_|q|!)^(-alpha)
and reciprocal one-particle weights.  The graded tensor product, the
embedding/duality residuals, the tensor-bound constant, the shuffle-binomial
bound, and the asymmetric submultiplicativity ratio live here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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

TEST_SIDE = "test"
DUAL_SIDE = "dual"
WEIGHT_BASES = ("q", "abs_q")


@dataclass(frozen=True)
class NormScale:
    """One member of the norm families: degree weights r^(+-n) ([n]_w!)^(+-alpha).

    r is always stored >= 1; the dual side applies it reciprocally.  The dual
    side always uses the |q| weight base (its factorial weights enter with a
    negative power, and only the |q| family bounds the symmetrizer norm).
    """

    r: float
    alpha: float
    weight_base: str = "abs_q"
    side: str = TEST_SIDE

    def __post_init__(self):
        if self.r < 1.0:
            raise ValueError("scale parameter r must be >= 1")
        if self.weight_base not in WEIGHT_BASES:
            raise ValueError(f"weight_base must be one of {WEIGHT_BASES}")
        if self.side not in (TEST_SIDE, DUAL_SIDE):
            raise ValueError(f"side must be '{TEST_SIDE}' or '{DUAL_SIDE}'")
        if self.side == DUAL_SIDE and self.weight_base != "abs_q":
            raise ValueError("dual-side scales use the abs_q weight base")

    def base_value(self, q: float) -> float:
        return q if self.weight_base == "q" else abs(q)


def default_hplus_weights(dim: int) -> np.ndarray:
    """The stock one-particle weight vector (1, 2, ..., d)."""
    return np.arange(1, dim + 1, dtype=float)


@dataclass(frozen=True)
class WeightedSpace:
    """A norm scale together with optional diagonal one-particle weights.

    Weights model the stronger one-particle norm on the test side; the dual
    side uses their reciprocals.  None means the plain Euclidean norm.
    """

    ctx: QContext
    scale: NormScale
    hplus_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.hplus_weights is not None:
            w = np.asarray(self.hplus_weights, dtype=float).reshape(-1)
            if w.shape != (self.ctx.dim,):
                raise ValueError(f"weights must have length {self.ctx.dim}")
            if not np.all(w >= 1.0):
                raise ValueError("one-particle weights must be >= 1")
            w.flags.writeable = False
            object.__setattr__(self, "hplus_weights", w)


@functools.lru_cache(maxsize=None)
def _weight_power(weights: tuple[float, ...], n: int) -> np.ndarray:
    out = np.ones(1)
    for _ in range(n):
        out = tensor_product(weights, out)
    out.flags.writeable = False
    return out


def _weighted_norm_sq(t: np.ndarray, weights: np.ndarray | None, n: int, invert: bool) -> float:
    if weights is None:
        return float(t @ t)
    w = _weight_power(tuple(weights), n)
    if invert:
        return float((t * t) @ (1.0 / w))
    return float((t * t) @ w)


def g_norm(f: GradedVector, space: WeightedSpace) -> float:
    """Test-side norm: sqrt of sum over degrees of the weighted squared tensor
    norm times r^n ([n]_w!)^alpha."""
    if space.scale.side != TEST_SIDE:
        raise ValueError("g_norm needs a test-side scale")
    if space.ctx != f.ctx:
        raise ValueError("space and vector contexts differ")
    ctx = f.ctx
    base = space.scale.base_value(ctx.q)
    total = 0.0
    for n, comp in f.components.items():
        weight = space.scale.r**n * q_factorial(n, base) ** space.scale.alpha
        total += _weighted_norm_sq(comp, space.hplus_weights, n, invert=False) * weight
    return float(math.sqrt(total))


def f_dual_norm(f: GradedVector, space: WeightedSpace) -> float:
    """Dual-side norm: the symmetrized tensor measured with reciprocal
    one-particle weights, degree-weighted by r^(-n) ([n]_|q|!)^(-alpha)."""
    if space.scale.side != DUAL_SIDE:
        raise ValueError("f_dual_norm needs a dual-side scale")
    if space.ctx != f.ctx:
        raise ValueError("space and vector contexts differ")
    ctx = f.ctx
    aq = abs(ctx.q)
    total = 0.0
    for n, comp in f.components.items():
        sym = apply_pq(n, comp, ctx)
        weight = space.scale.r ** (-n) * q_factorial(n, aq) ** (-space.scale.alpha)
        total += _weighted_norm_sq(sym, space.hplus_weights, n, invert=True) * weight
    return float(math.sqrt(total))


def make_dual_space(ctx: QContext, r: float, alpha: float, hplus_weights=None) -> WeightedSpace:
    return WeightedSpace(ctx, NormScale(r, alpha, "abs_q", DUAL_SIDE), hplus_weights)


def make_test_space(
    ctx: QContext, r: float, alpha: float, weight_base: str = "abs_q", hplus_weights=None
) -> WeightedSpace:
    return WeightedSpace(ctx, NormScale(r, alpha, weight_base, TEST_SIDE), hplus_weights)


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
    return GradedVector(f.ctx, comps)


# ---------------------------------------------------------------------------
# Embedding, product bound, binomial bound, submultiplicativity, duality
# ---------------------------------------------------------------------------


def embedding_residual(f: GradedVector, space: WeightedSpace) -> float:
    """max(0, plain twisted norm - test-side norm); zero whenever the scale
    dominates the center space.

    Requires alpha >= 1 and r >= max(1, (1 + w)^(1 - alpha)) for the scale's
    weight base w.  With the q base and q < 0 the embedding can genuinely
    fail on antisymmetric tensors even under this precondition; callers probe
    that as a finding, not a bug.
    """
    if space.scale.side != TEST_SIDE:
        raise ValueError("embedding check needs a test-side scale")
    if space.scale.alpha < 1.0:
        raise ValueError("embedding check requires alpha >= 1")
    base = space.scale.base_value(f.ctx.q)
    r_min = max(1.0, (1.0 + base) ** (1.0 - space.scale.alpha))
    if space.scale.r < r_min - 1e-15:
        raise ValueError(
            f"embedding check requires r >= max(1, (1+w)^(1-alpha)) = {r_min:.6g}, "
            f"got r = {space.scale.r}"
        )
    return max(0.0, fock_norm(f) - g_norm(f, space))


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
    if alpha < 1.0:
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


def _infer_degree(t: np.ndarray, dim: int, name: str) -> int:
    size = t.size
    if dim == 1:
        raise ValueError(f"cannot infer the degree of {name} when dim == 1; pass it explicitly")
    n = round(math.log(size, dim))
    if dim**n != size:
        raise ValueError(f"{name} has length {size}, not a power of dim {dim}")
    return n


def lemma53_residual(f, g, ctx: QContext, m: int | None = None, n: int | None = None) -> float:
    """max(0, LHS - RHS) for the shuffle-binomial product bound

        ||sym (f (x) g)|| <= (m+n choose m)_|q| ||sym f|| ||sym g||,

    all norms plain Euclidean on the tensor level."""
    f = np.asarray(f, dtype=float).reshape(-1)
    g = np.asarray(g, dtype=float).reshape(-1)
    if m is None:
        m = _infer_degree(f, ctx.dim, "f")
    if n is None:
        n = _infer_degree(g, ctx.dim, "g")
    if f.size != ctx.dim**m or g.size != ctx.dim**n:
        raise ValueError("tensor lengths do not match the declared degrees")
    lhs = float(np.linalg.norm(apply_pq(m + n, tensor_product(f, g), ctx)))
    rhs = (
        q_binomial(m + n, m, abs(ctx.q))
        * float(np.linalg.norm(apply_pq(m, f, ctx)))
        * float(np.linalg.norm(apply_pq(n, g, ctx)))
    )
    return max(0.0, lhs - rhs)


def vage_ratio(
    f: GradedVector,
    g: GradedVector,
    r: float,
    s: float,
    ctx: QContext,
    hplus_weights=None,
    check: bool = True,
) -> tuple[float, float]:
    """Asymmetric submultiplicativity on the dual scale at exponent -2:

        ||F (x) G||_r  <=  sqrt(r / (r - s)) ||F||_s ||G||_r,   r > s >= 1,

    where the subscript is the reciprocal degree-weight parameter.  Returns
    (ratio, bound); with check=True a violated bound raises.
    """
    if not s >= 1.0 or not r > s:
        raise ValueError("requires r > s >= 1")
    space_r = make_dual_space(ctx, r, 2.0, hplus_weights)
    space_s = make_dual_space(ctx, s, 2.0, hplus_weights)
    denom = f_dual_norm(f, space_s) * f_dual_norm(g, space_r)
    if denom == 0.0:
        raise ValueError("zero denominator: both factors must be nonzero")
    ratio = f_dual_norm(graded_tensor(f, g), space_r) / denom
    bound = math.sqrt(r / (r - s))
    if check and ratio > bound + 1e-9:
        raise ValueError(
            f"submultiplicativity bound violated: ratio {ratio} > bound {bound}"
        )
    return float(ratio), float(bound)


def duality_residual(
    f_test: GradedVector,
    g_dual: GradedVector,
    r: float,
    alpha: float,
    ctx: QContext,
    hplus_weights=None,
) -> float:
    """max(0, |twisted pairing| - test norm * dual norm) for the matched pair
    of scales (r, alpha) on the |q| base with reciprocal one-particle weights;
    expected zero because the dual norm is exactly the operator dual."""
    if alpha < 1.0 or r < 1.0:
        raise ValueError("requires alpha >= 1 and r >= 1")
    if hplus_weights is None:
        hplus_weights = default_hplus_weights(ctx.dim)
    test = make_test_space(ctx, r, alpha, "abs_q", hplus_weights)
    dual = make_dual_space(ctx, r, alpha, hplus_weights)
    pairing = abs(q_inner(f_test, g_dual))
    return max(0.0, pairing - g_norm(f_test, test) * f_dual_norm(g_dual, dual))


def saturating_dual_partner(
    f_test: GradedVector, r: float, alpha: float, ctx: QContext, hplus_weights=None
) -> GradedVector:
    """The dual vector that turns the duality bound into an equality for the
    given test vector: degree by degree, scale-weight the one-particle-weighted
    tensor and pull it back through the symmetrizer (a dense solve against the
    kernel applied to identity columns)."""
    if hplus_weights is None:
        hplus_weights = default_hplus_weights(ctx.dim)
    aq = abs(ctx.q)
    comps: dict[int, np.ndarray] = {}
    for n, comp in f_test.components.items():
        weighted = comp * _weight_power(tuple(hplus_weights), n)
        scale = r**n * q_factorial(n, aq) ** alpha
        pq = symmetrize(np.eye(ctx.dim**n), n, ctx.dim, ctx.q).T
        comps[n] = scale * np.linalg.solve(pq, weighted)
    return GradedVector(ctx, comps)
