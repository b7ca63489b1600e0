"""Wick (tensor) power series on the dual scale.

The submultiplicativity bound sqrt(r/(r-s)) makes powers of a graded vector
grow at most geometrically once the s-scale norm sits strictly inside the
series' convergence radius; the certificate records one working (s, r) pair,
the s-scale norm and the resulting contraction factor (its gap to the radius
is spec.radius - norm_s).  That is the untruncated argument, which the series
suite checks.  On a truncation the tensor exponential and the tensor inverse
need no certificate: a vector without vacuum component is nilpotent there, so
both are finite sums and exact.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .fock import GradedVector, batch_value, tensor_product
from .scales import VAGE_ALPHA, f_dual_norm, graded_tensor

TAIL_TOL = 1e-12  # a series stops once its certified tail bound drops below this
R_GRID_FACTORS = (1.1, 1.25, 1.5, 2.0, 4.0, 8.0)
CONTRACTION_MARGIN = 0.99
SCALE_CAP = 2.0**20


class SeriesSpec(namedtuple("SeriesSpec", "coefficients radius")):
    """A truncated power series sum a_n z^n with a declared absolute-
    convergence radius: `coefficients` a_0, a_1, ... as a tuple of floats."""

    __slots__ = ()

    def __new__(cls, coefficients, radius: float):
        coeffs = tuple(float(a) for a in coefficients)
        if not (radius > 0.0 and math.isfinite(radius)):
            raise ValueError("radius must be positive and finite")
        if any(not math.isfinite(a) for a in coeffs):
            raise ValueError("coefficients must be finite")
        return super().__new__(cls, coeffs, radius)

    def fitted_constant(self, rho: float) -> float:
        """Smallest C with |a_n| <= C / rho^n over the supplied prefix."""
        c = 0.0
        power = 1.0
        for a in self.coefficients:
            c = max(c, abs(a) * power)
            power *= rho
        return c


class ConvergenceCertificate(namedtuple("ConvergenceCertificate", "s norm_s r contraction")):
    """One working scale pair for a series argument, or one per row of a
    batched argument (every field then has the batch shape).

    contraction = sqrt(r/(r-s)) * norm_s / radius must be < 1 for the power
    norms to shrink geometrically.
    """

    __slots__ = ()

    def __new__(cls, s: float, norm_s: float, r: float, contraction: float):
        if not np.all((r > s) & (s >= 1.0)):
            raise ValueError("certificate requires r > s >= 1")
        if not np.all(contraction < 1.0):
            raise ValueError("certificate requires contraction < 1")
        return super().__new__(cls, s, norm_s, r, contraction)


def certify_radius(f: GradedVector, spec: SeriesSpec) -> ConvergenceCertificate:
    """Find a scale pair under which the power series of f converges, for
    each row of a batched f.

    Grows s geometrically from 1, the bottom of the scale, until the s-scale
    norm drops inside the radius and some r on the grid s * {1.1, ..., 8}
    yields a contraction below the 1% margin; the vacuum component must
    already be inside the radius or no amount of smoothing helps.
    """
    vacuum_part = batch_value(np.abs(f.component(0)[..., 0]))
    if not np.all(vacuum_part < spec.radius):
        raise ValueError(
            "series argument requires the vacuum component strictly inside "
            f"the convergence radius: |{batch_value(np.max(vacuum_part))}| >= {spec.radius}"
        )
    s = 1.0
    pending = np.ones(np.shape(vacuum_part), dtype=bool)
    fields = {name: np.zeros(pending.shape) for name in ("s", "norm_s", "r", "contraction")}
    while s <= SCALE_CAP and pending.any():
        norm_s = f_dual_norm(f, s, VAGE_ALPHA)
        inside = pending & (norm_s < spec.radius)
        for factor in R_GRID_FACTORS:
            r = s * factor
            contraction = math.sqrt(r / (r - s)) * norm_s / spec.radius
            hit = inside & (contraction <= CONTRACTION_MARGIN)
            found = {"s": s, "norm_s": norm_s, "r": r, "contraction": contraction}
            for name, value in found.items():
                fields[name] = np.where(hit, value, fields[name])
            inside &= ~hit
            pending &= ~hit
        s *= 2.0
    if pending.any():
        raise ValueError("not certifiable at desk scale: no valid scale below the cap")
    fields = {name: batch_value(value) for name, value in fields.items()}
    return ConvergenceCertificate(**fields)


def _tail_bound(spec: SeriesSpec, contraction: float, after: int) -> float:
    """Certified bound on the r-scale norm of everything past term `after`,
    for a certificate with this contraction."""
    b = contraction * spec.radius
    rho = (b + spec.radius) / 2.0
    c = spec.fitted_constant(rho)
    ratio = b / rho
    return c * ratio ** (after + 1) / (1.0 - ratio)


def wick_series(f: GradedVector, spec: SeriesSpec, cert: ConvergenceCertificate) -> GradedVector:
    """Sum a_n f^(x n), stopping once the certified geometric tail bound
    drops below TAIL_TOL (or the supplied coefficients are exhausted, which
    makes the sum exact).  For a batched f and certificate every row stops at
    its own term; a row that has stopped adds zeros."""
    contractions = np.ravel(cert.contraction).tolist()
    live = np.ones(np.shape(cert.contraction), dtype=bool)
    result = GradedVector.zero(f.ctx)
    power = GradedVector.vacuum(f.ctx)
    for n, a in enumerate(spec.coefficients):
        if n > 0:
            power = graded_tensor(power, f)
        if a != 0.0:
            result = result + power.scale(a * live)
        tails = [_tail_bound(spec, c, n) for c in contractions]
        live &= ~(np.reshape(tails, live.shape) < TAIL_TOL)
        if not live.any():
            break
    return result


def wick_exp(f: GradedVector) -> GradedVector:
    """Tensor exponential, per row of a batched f:

        exp(f) = e^(f_0) sum_{k=0..N} D^k / k!,   D = f - f_0 Omega.

    D has no vacuum component, so D^k starts at degree k and vanishes past
    the cutoff N: the sum is finite and exact on the truncation.  N graded
    products."""
    ctx = f.ctx
    defect = GradedVector._of(ctx, {n: arr for n, arr in f.components.items() if n >= 1})
    result = term = GradedVector.vacuum(ctx)
    for k in range(1, ctx.max_degree + 1):
        term = graded_tensor(term, defect).scale(1.0 / k)
        result = result + term
    return result.scale(np.exp(f.component(0)[..., 0]))


def wick_inverse(f: GradedVector) -> GradedVector:
    """Tensor-multiplicative inverse, per row of a batched f: exists iff the
    vacuum component f_0 is nonzero.  On the truncation it is exact, degree
    by degree:

        g_0 = 1/f_0,   g_n = -(1/f_0) sum_{i=1..n} f_i (x) g_(n-i),

    O(N^2) tensor products.  A degree no f_i (x) g_(n-i) reaches stays absent.
    graded_tensor(f, g) == vacuum is the independent check."""
    vacuum_part = f.component(0)[..., :1]
    if np.any(vacuum_part == 0.0):
        raise ValueError("not invertible: the vacuum component is zero")
    inv = 1.0 / vacuum_part
    g = {0: inv}
    for n in range(1, f.ctx.max_degree + 1):
        terms = [
            tensor_product(f.components[i], g[n - i])
            for i in range(1, n + 1)
            if i in f.components and n - i in g
        ]
        if terms:
            g[n] = -inv * sum(terms[1:], terms[0])
    return GradedVector._of(f.ctx, g)
