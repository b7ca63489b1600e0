"""Wick (tensor) power series on the dual scale.

The submultiplicativity bound sqrt(r/(r-s)) makes powers of a graded vector
grow at most geometrically once the s-scale norm sits strictly inside the
series' convergence radius; the certificate records one working (s, r) pair
and the resulting contraction factor.  On a truncation, a vector with zero
vacuum component is degree-nilpotent, which makes the tensor inverse a finite
sum and exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fock import GradedVector
from .scales import f_dual_norm, graded_tensor

TAIL_TOL = 1e-12  # a series stops once its certified tail bound drops below this
R_GRID_FACTORS = (1.1, 1.25, 1.5, 2.0, 4.0, 8.0)
CONTRACTION_MARGIN = 0.99
SCALE_CAP = 2.0**20


@dataclass(frozen=True)
class SeriesSpec:
    """A truncated power series sum a_n z^n with a declared absolute-
    convergence radius."""

    coefficients: tuple[float, ...]
    radius: float

    def __post_init__(self):
        coeffs = tuple(float(a) for a in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")
        if any(not math.isfinite(a) for a in coeffs):
            raise ValueError("coefficients must be finite")

    def fitted_constant(self, rho: float) -> float:
        """Smallest C with |a_n| <= C / rho^n over the supplied prefix."""
        c = 0.0
        power = 1.0
        for a in self.coefficients:
            c = max(c, abs(a) * power)
            power *= rho
        return c

    def to_json_dict(self) -> dict:
        return {"coefficients": list(self.coefficients), "radius": self.radius}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SeriesSpec":
        return cls(tuple(data["coefficients"]), float(data["radius"]))


@dataclass(frozen=True)
class ConvergenceCertificate:
    """One working scale pair for a series argument.

    epsilon is the gap radius - norm_s; contraction = sqrt(r/(r-s)) * norm_s
    / radius must be < 1 for the power norms to shrink geometrically.
    """

    s: float
    norm_s: float
    epsilon: float
    r: float
    contraction: float

    @property
    def radius(self) -> float:
        return self.norm_s + self.epsilon

    def __post_init__(self):
        if not self.r > self.s >= 1.0:
            raise ValueError("certificate requires r > s >= 1")
        if not self.contraction < 1.0:
            raise ValueError("certificate requires contraction < 1")


def certify_radius(f: GradedVector, spec: SeriesSpec, s: float = 1.0) -> ConvergenceCertificate:
    """Find a scale pair under which the power series of f converges.

    Grows s geometrically until the s-scale norm drops inside the radius and
    some r on the grid s * {1.1, ..., 8} yields a contraction below the 1%
    margin; the vacuum component must already be inside the radius or no
    amount of smoothing helps.
    """
    if not s >= 1.0:
        raise ValueError(f"requires s >= 1, got {s}")
    vacuum_part = abs(float(f.component(0)[0]))
    if not vacuum_part < spec.radius:
        raise ValueError(
            "series argument requires the vacuum component strictly inside "
            f"the convergence radius: |{vacuum_part}| >= {spec.radius}"
        )
    while s <= SCALE_CAP:
        norm_s = f_dual_norm(f, s, 2.0)
        if norm_s < spec.radius:
            for factor in R_GRID_FACTORS:
                r = s * factor
                contraction = math.sqrt(r / (r - s)) * norm_s / spec.radius
                if contraction <= CONTRACTION_MARGIN:
                    return ConvergenceCertificate(
                        s=s,
                        norm_s=norm_s,
                        epsilon=spec.radius - norm_s,
                        r=r,
                        contraction=contraction,
                    )
        s *= 2.0
    raise ValueError("not certifiable at desk scale: no valid scale below the cap")


def _tail_bound(spec: SeriesSpec, cert: ConvergenceCertificate, after: int) -> float:
    """Certified bound on the r-scale norm of everything past term `after`."""
    b = cert.contraction * spec.radius
    rho = (b + spec.radius) / 2.0
    c = spec.fitted_constant(rho)
    ratio = b / rho
    return c * ratio ** (after + 1) / (1.0 - ratio)


def wick_series(f: GradedVector, spec: SeriesSpec, cert: ConvergenceCertificate) -> GradedVector:
    """Sum a_n f^(x n), stopping once the certified geometric tail bound
    drops below TAIL_TOL (or the supplied coefficients are exhausted, which
    makes the sum exact)."""
    result = GradedVector.zero(f.ctx)
    power = GradedVector.vacuum(f.ctx)
    for n, a in enumerate(spec.coefficients):
        if n > 0:
            power = graded_tensor(power, f)
        if a != 0.0:
            result = result + power.scale(a)
        if _tail_bound(spec, cert, n) < TAIL_TOL:
            break
    return result


def wick_exp(f: GradedVector, s: float = 1.0) -> GradedVector:
    """sum f^(x n) / n! to the tail tolerance; any finite radius certifies the
    exponential, so take norm_s + 1."""
    if not s >= 1.0:
        raise ValueError(f"requires s >= 1, got {s}")
    norm_s = f_dual_norm(f, s, 2.0)
    radius = norm_s + 1.0
    # enough factorial coefficients that the certified tail is already tiny:
    # sum_{n > M} b^n / n! <= b^(M+1)/(M+1)! * e^b for the contraction bound b
    b = radius  # the per-term bound never exceeds the radius itself
    terms = 1
    tail = b * math.exp(b)
    while tail >= TAIL_TOL * 1e-3 and terms < 400:
        terms += 1
        tail *= b / terms
    if tail >= TAIL_TOL * 1e-3:
        raise ValueError(f"tail bound did not reach {TAIL_TOL} within 400 terms")
    coeffs = []
    fact = 1.0
    for n in range(terms + 1):
        if n > 0:
            fact *= n
        coeffs.append(1.0 / fact)
    spec = SeriesSpec(tuple(coeffs), radius)
    return wick_series(f, spec, certify_radius(f, spec, s))


def wick_inverse(f: GradedVector) -> GradedVector:
    """Tensor-multiplicative inverse: exists iff the vacuum component is
    nonzero, and on the truncation the defect series terminates at the cutoff
    degree, so the result is exact."""
    vacuum_part = float(f.component(0)[0])
    if vacuum_part == 0.0:
        raise ValueError("not invertible: the vacuum component is zero")
    ctx = f.ctx
    # the defect has no vacuum component by construction, hence is
    # degree-nilpotent and the sum below terminates exactly at the cutoff
    defect = GradedVector(
        ctx, {n: -arr / vacuum_part for n, arr in f.components.items() if n >= 1}
    )
    omega = GradedVector.vacuum(ctx)
    result = omega
    power = omega
    for _ in range(ctx.max_degree):
        power = graded_tensor(power, defect)
        result = result + power
    return result.scale(1.0 / vacuum_part)
