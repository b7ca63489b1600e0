"""Seeded randomized verification suites with machine-readable reports.

Every suite draws its randomness from a per-trial generator derived from
(seed, suite name, trial index), so results are independent of execution
order; aggregation is a max/append over the trial-indexed result list.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .fock import (
    EIGENSOLVER_CAP,
    GradedVector,
    QContext,
    annihilate,
    basis_vector,
    commutation_residual,
    create,
    elementary_tensor,
    fock_norm,
    pq_matrix,
    pq_spectrum,
    q_inner,
    symmetrize,
)
from .qcombinatorics import (
    PERMUTATION_CAP,
    macmahon_residual,
    q_binomial,
    q_factorial,
    q_integer,
)
from .scales import (
    default_hplus_weights,
    make_dual_space,
    duality_residual,
    embedding_residual,
    estimate_c1,
    f_dual_norm,
    g_norm,
    graded_tensor,
    lemma53_residual,
    saturating_dual_partner,
    make_test_space,
    vage_ratio,
)
from .series import SeriesSpec, certify_radius, wick_inverse, wick_series
from .wick import (
    NormalWord,
    WickPolynomial,
    field_mul,
    moment,
    vacuum_vector,
    wick_monomial,
    wick_mul_poly,
)

SUITE_NAMES = (
    "commutation",
    "positivity",
    "adjointness",
    "macmahon",
    "moments",
    "wick-correspondence",
    "hermite",
    "embedding",
    "lemma53",
    "theorem43",
    "vage",
    "duality",
    "inverse",
    "series",
)

DEFAULT_SCALES = ((2.0, 1.0, 2.0), (4.0, 1.0, 2.0), (1.5, 1.2, 2.0))
# largest degree at which positivity checks the kernel against the n!-term sum
ORACLE_DEGREE = 6


@dataclass(frozen=True)
class RunConfig:
    q: float = 0.5
    dim: int = 2
    max_degree: int = 6
    trials: int = 500
    seed: int = 1
    scales: tuple[tuple[float, float, float], ...] = DEFAULT_SCALES
    suites: tuple[str, ...] = SUITE_NAMES
    output: str | None = None

    def __post_init__(self):
        if not -1.0 < self.q < 1.0:
            raise ValueError("config requires |q| < 1")
        if self.dim < 1:
            raise ValueError("config requires dim >= 1")
        if self.max_degree < 0:
            raise ValueError("config requires max_degree >= 0")
        if self.trials < 1:
            raise ValueError("config requires trials >= 1")
        for r, s, alpha in self.scales:
            if not (r > s >= 1.0):
                raise ValueError(f"scale pair must satisfy r > s >= 1, got ({r}, {s})")
            if alpha < 1.0:
                raise ValueError("scale exponent alpha must be >= 1")

    def context(self, max_degree: int | None = None) -> QContext:
        return QContext(
            self.q, self.dim, self.max_degree if max_degree is None else max_degree
        )


@dataclass
class Report:
    suite: str
    params: dict
    trials: int
    max_residual: float | None
    max_ratio: float | None
    bound: float | None
    violations: list[dict]
    passed: bool
    trial_values: list[float] = field(default_factory=list, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "trials": self.trials,
            "max_residual": self.max_residual,
            "max_ratio": self.max_ratio,
            "bound": self.bound,
            "violations": self.violations,
            "pass": self.passed,
        }

    def write_csv(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write("trial,value\n")
            for i, value in enumerate(self.trial_values):
                handle.write(f"{i},{value!r}\n")


def _trial_rng(seed: int, suite: str, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(suite.encode()), trial])


def _unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    if norm == 0.0:
        v = v.copy()
        v[0] = 1.0
        return v
    return v / norm


def _split_trials(total: int, parts: int) -> list[int]:
    base = total // parts
    counts = [base] * parts
    for i in range(total - base * parts):
        counts[i] += 1
    return counts


def _params(cfg: RunConfig, tolerance: float, **extra) -> dict:
    """The report params every sampling suite shares, plus its own."""
    return {
        "q": cfg.q,
        "dim": cfg.dim,
        "max_degree": cfg.max_degree,
        "tolerance": tolerance,
        **extra,
    }


def _collect(
    suite: str,
    params: dict,
    values: list[float],
    tolerance: float,
    max_ratio: float | None = None,
    bound: float | None = None,
    side_checks: tuple[tuple[float, float], ...] = (),
) -> Report:
    """Aggregate per-trial values; each failing (value, limit) side check
    outside the trials is recorded as trial -1."""
    violations = [
        {"trial": i, "value": v} for i, v in enumerate(values) if not v <= tolerance
    ]
    violations += [{"trial": -1, "value": v} for v, limit in side_checks if not v <= limit]
    return Report(
        suite=suite,
        params=params,
        trials=len(values),
        max_residual=max(values, default=0.0),
        max_ratio=max_ratio,
        bound=bound,
        violations=violations,
        passed=not violations,
        trial_values=values,
    )


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_commutation(cfg: RunConfig) -> Report:
    """a^- a^+ = q a^+ a^- + pairing, on degrees below the truncation edge."""
    ctx = cfg.context()
    tolerance = 1e-12

    def trial(i: int):
        rng = _trial_rng(cfg.seed, "commutation", i)
        phi = _unit(rng.standard_normal(cfg.dim))
        psi = _unit(rng.standard_normal(cfg.dim))
        exchange = commutation_residual(phi, psi, ctx, swap_arguments=True)
        literal = commutation_residual(phi, psi, ctx, swap_arguments=False)
        return exchange, literal

    results = [trial(i) for i in range(cfg.trials)]
    values = [a for a, _ in results]
    params = _params(
        cfg,
        tolerance,
        normalization="unit test vectors",
        rule="exchange form: the weighted term swaps operators, keeps arguments",
        argument_swapped_variant_max_residual=max(b for _, b in results),
    )
    return _collect("commutation", params, values, tolerance)


def suite_positivity(cfg: RunConfig) -> Report:
    """The symmetrizer is strictly positive; its norm is the |q|-factorial.
    Up to ORACLE_DEGREE the factorized kernel must also match the sum over
    all permutations, entry by entry relative to that norm."""
    ctx = cfg.context()
    tolerance = 1e-10
    degrees = [n for n in range(ctx.max_degree + 1) if ctx.dim**n <= EIGENSOLVER_CAP]
    values = []
    plain_weight_exceeded = []
    oracle_gap = 0.0
    for n in degrees:
        lo, hi = pq_spectrum(n, ctx)
        value = 0.0 if lo > 0.0 else math.inf  # strict positivity
        value = max(value, hi - q_factorial(n, abs(ctx.q)))
        values.append(max(0.0, value))
        if hi > q_factorial(n, ctx.q) + tolerance:
            plain_weight_exceeded.append(n)
        if n <= ORACLE_DEGREE:
            kernel = symmetrize(np.eye(ctx.dim**n), n, ctx.dim, ctx.q)
            gap = np.max(np.abs(kernel.T - pq_matrix(n, ctx.dim, ctx.q)))
            oracle_gap = max(oracle_gap, float(gap) / q_factorial(n, abs(ctx.q)))
    params = {
        "q": cfg.q,
        "dim": cfg.dim,
        "degrees": degrees,
        "tolerance": tolerance,
        "max_eig_exceeds_plain_q_factorial_at": plain_weight_exceeded,
        "permutation_sum_max_deviation": oracle_gap,
    }
    return _collect("positivity", params, values, tolerance, side_checks=((oracle_gap, tolerance),))


def suite_adjointness(cfg: RunConfig) -> Report:
    """Creation and annihilation are mutually adjoint in the twisted pairing."""
    ctx = cfg.context()
    tolerance = 1e-12

    def trial(i: int) -> float:
        rng = _trial_rng(cfg.seed, "adjointness", i)
        phi = _unit(rng.standard_normal(cfg.dim))
        f = GradedVector.random(ctx, rng)
        g = GradedVector.random(ctx, rng)
        lhs = q_inner(create(phi, f), g)
        rhs = q_inner(f, annihilate(phi, g))
        return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))

    values = [trial(i) for i in range(cfg.trials)]
    params = _params(cfg, tolerance)
    return _collect("adjointness", params, values, tolerance)


def suite_macmahon(cfg: RunConfig) -> Report:
    """Shuffle inversion statistic sums to the Gaussian binomial."""
    tolerance = 1e-12
    values = []
    for m in range(0, PERMUTATION_CAP + 1):
        for n in range(0, PERMUTATION_CAP + 1 - m):
            values.append(macmahon_residual(m, n, cfg.q))
    params = {"q": cfg.q, "cap": PERMUTATION_CAP, "tolerance": tolerance}
    return _collect("macmahon", params, values, tolerance)


def suite_moments(cfg: RunConfig) -> Report:
    """Field-operator vacuum moments against the pair-partition oracle."""
    k_max = min(10, 2 * max(cfg.max_degree, 1))
    ctx = cfg.context(max_degree=max(cfg.max_degree, (k_max + 1) // 2))
    tolerance = 1e-9

    def trial(i: int) -> float:
        rng = _trial_rng(cfg.seed, "moments", i)
        phi = rng.standard_normal(cfg.dim)
        scale = max(1.0, float(np.linalg.norm(phi)))
        worst = 0.0
        for k in range(k_max + 1):
            report = moment(phi, k, ctx)
            if k % 2 == 0:
                worst = max(worst, report.residual / abs(report.oracle_value))
            else:
                worst = max(worst, abs(report.value) / scale**k)
        return worst

    values = [trial(i) for i in range(cfg.trials)]
    params = _params(cfg, tolerance, max_degree=ctx.max_degree, orders=k_max)
    return _collect("moments", params, values, tolerance)


def _random_polynomial(rng: np.random.Generator, dim: int, max_terms: int = 3) -> WickPolynomial:
    terms: dict[NormalWord, float] = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        word = NormalWord.build(
            creators=[rng.standard_normal(dim) for _ in range(int(rng.integers(0, 3)))],
            annihilators=[rng.standard_normal(dim) for _ in range(int(rng.integers(0, 3)))],
        )
        terms[word] = terms.get(word, 0.0) + float(rng.standard_normal())
    return WickPolynomial(terms)


def suite_wick_correspondence(cfg: RunConfig) -> Report:
    """The vacuum map turns the Wick product into the graded tensor product,
    and orthogonal monomials land on their kernels."""
    ctx = cfg.context(max_degree=max(cfg.max_degree, 4))
    tolerance = 1e-10

    def trial(i: int) -> float:
        rng = _trial_rng(cfg.seed, "wick-correspondence", i)
        p1 = _random_polynomial(rng, cfg.dim)
        p2 = _random_polynomial(rng, cfg.dim)
        left = vacuum_vector(wick_mul_poly(p1, p2, ctx.q), ctx)
        right = graded_tensor(vacuum_vector(p1, ctx), vacuum_vector(p2, ctx))
        worst = (left - right).euclidean_norm() / max(1.0, right.euclidean_norm())

        n = int(rng.integers(1, min(4, ctx.max_degree) + 1))
        vectors = [rng.standard_normal(cfg.dim) for _ in range(n)]
        target = GradedVector(ctx, {n: elementary_tensor(vectors)})
        mono_gap = vacuum_vector(wick_monomial(vectors, ctx.q), ctx) - target
        worst = max(worst, mono_gap.euclidean_norm() / max(1.0, target.euclidean_norm()))

        fs = [rng.standard_normal(cfg.dim) for _ in range(int(rng.integers(1, 3)))]
        gs = [rng.standard_normal(cfg.dim) for _ in range(int(rng.integers(1, 3)))]
        product = wick_mul_poly(wick_monomial(fs, ctx.q), wick_monomial(gs, ctx.q), ctx.q)
        joint = wick_monomial(fs + gs, ctx.q)
        coeff_scale = max(1.0, max(abs(c) for c in joint.terms.values()))
        worst = max(worst, product.max_coeff_diff(joint) / coeff_scale)
        return worst

    values = [trial(i) for i in range(cfg.trials)]
    params = _params(cfg, tolerance, max_degree=ctx.max_degree)
    return _collect("wick-correspondence", params, values, tolerance)


def _x_power_polynomial(k: int, q: float) -> WickPolynomial:
    """The k-th ordinary power of the single-mode field, normal-ordered."""
    e = basis_vector(1, 0)
    poly = WickPolynomial.identity()
    for _ in range(k):
        poly = field_mul(e, poly, q)
    return poly


def x_coefficients(poly: WickPolynomial, degree: int, q: float) -> list[float]:
    """Write a single-mode polynomial as sum c_k x^k by peeling the unique
    pure-creator word of each degree from the top down."""
    coeffs = [0.0] * (degree + 1)
    residue = poly
    e = (1.0,)
    for k in range(degree, -1, -1):
        c = residue.coefficient(NormalWord(creators=(e,) * k))
        coeffs[k] = c
        if c != 0.0:
            residue = residue - _x_power_polynomial(k, q).scale(c)
    return coeffs


def hermite_coefficients(n: int) -> list[int]:
    """Probabilists' Hermite coefficients from the integer three-term recurrence."""
    polys = [[1], [0, 1]]
    for k in range(1, n):
        prev, cur = polys[k - 1], polys[k]
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= k * c
        polys.append(nxt)
    return polys[n]


def suite_hermite(cfg: RunConfig) -> Report:
    """Single-mode reduction: the monomial recursion is the deformed Hermite
    three-term recurrence, and its q -> 1 limit is the classical one."""
    tolerance = 1e-12
    e = basis_vector(1, 0)
    recurrence = [WickPolynomial.identity(), WickPolynomial.field(e)]
    for n in range(1, 7):
        recurrence.append(
            field_mul(e, recurrence[n], cfg.q)
            - recurrence[n - 1].scale(q_integer(n, cfg.q))
        )
    values = [
        wick_monomial([e] * n, cfg.q).max_coeff_diff(recurrence[n]) for n in range(7)
    ]

    q_near_one = 1.0 - 1e-6
    classical_worst = 0.0
    for n in range(7):
        coeffs = x_coefficients(wick_monomial([e] * n, q_near_one), n, q_near_one)
        hermite = hermite_coefficients(n)
        for k in range(n + 1):
            target = float(hermite[k]) if k < len(hermite) else 0.0
            classical_worst = max(
                classical_worst, abs(coeffs[k] - target) / max(1.0, abs(target))
            )
    params = {
        "q": cfg.q,
        "tolerance": tolerance,
        "classical_limit_q": q_near_one,
        "classical_limit_max_relative_error": classical_worst,
        "classical_limit_tolerance": 1e-4,
    }
    return _collect("hermite", params, values, tolerance, side_checks=((classical_worst, 1e-4),))


def suite_embedding(cfg: RunConfig) -> Report:
    """The |q|-weighted test scale dominates the center norm."""
    ctx = cfg.context()
    tolerance = 1e-12
    space = make_test_space(ctx, 1.0, 2.0, "abs_q", default_hplus_weights(cfg.dim))

    def trial(i: int) -> float:
        rng = _trial_rng(cfg.seed, "embedding", i)
        f = GradedVector.random(ctx, rng)
        return embedding_residual(f, space) / max(1.0, fock_norm(f))

    values = [trial(i) for i in range(cfg.trials)]
    params = _params(cfg, tolerance, alpha=2.0, r=1.0, weight_base="abs_q")
    if ctx.q < 0.0 and cfg.dim >= 2 and ctx.max_degree >= 2:
        # documented finding: with plain-q weights the same bound fails on
        # antisymmetric tensors even under the scale precondition
        anti = np.zeros(cfg.dim**2)
        anti[1] = 1.0
        anti[cfg.dim] = -1.0
        plain = make_test_space(ctx, max(1.0, 1.0 / (1.0 + ctx.q)), 2.0, "q", None)
        params["plain_q_weight_failure_residual"] = embedding_residual(
            GradedVector(ctx, {2: anti}), plain
        )
    return _collect("embedding", params, values, tolerance)


def suite_lemma53(cfg: RunConfig) -> Report:
    """Symmetrized tensor products obey the |q|-binomial bound."""
    ctx = cfg.context()
    tolerance = 1e-9

    def trial(i: int) -> float:
        rng = _trial_rng(cfg.seed, "lemma53", i)
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        f = rng.standard_normal(cfg.dim**m)
        g = rng.standard_normal(cfg.dim**n)
        rhs_scale = max(
            1.0,
            q_binomial(m + n, m, abs(ctx.q))
            * float(np.linalg.norm(f))
            * float(np.linalg.norm(g)),
        )
        return lemma53_residual(f, g, ctx, m, n) / rhs_scale

    values = [trial(i) for i in range(cfg.trials)]
    params = {"q": cfg.q, "dim": cfg.dim, "degrees": "1..3", "tolerance": tolerance}
    return _collect("lemma53", params, values, tolerance)


def suite_theorem43(cfg: RunConfig) -> Report:
    """Test-side product bound with the explicitly computed constant."""
    ctx = cfg.context()
    tolerance = 1e-9
    weights = default_hplus_weights(cfg.dim)
    # this bound runs from a larger scale down to a smaller one, so each
    # configured (r, s) pair is used swapped
    scale_sets = [
        (small, big, alpha, estimate_c1(small, big, alpha, ctx))
        for big, small, alpha in cfg.scales
    ]
    counts = _split_trials(cfg.trials, len(scale_sets))
    values: list[float] = []
    per_scale = []
    worst_ratio, worst_bound, worst_margin = None, None, -math.inf
    trial_base = 0
    for (r, s, alpha, c1), count in zip(scale_sets, counts):
        space_r = make_test_space(ctx, r, alpha, "abs_q", weights)
        space_s = make_test_space(ctx, s, alpha, "abs_q", weights)

        def trial(i: int, _r=r, _space_r=space_r, _space_s=space_s, _base=trial_base) -> float:
            rng = _trial_rng(cfg.seed, f"theorem43:{_r}", _base + i)
            f = GradedVector.random(ctx, rng)
            g = GradedVector.random(ctx, rng)
            denom = g_norm(f, _space_s) * g_norm(g, _space_s)
            return g_norm(graded_tensor(f, g), _space_r) / denom

        ratios = [trial(i) for i in range(count)]
        trial_base += count
        values.extend(max(0.0, ratio - c1) for ratio in ratios)
        top = max(ratios, default=0.0)
        per_scale.append({"r": r, "s": s, "alpha": alpha, "c1": c1, "max_ratio": top})
        if top - c1 > worst_margin:
            worst_margin, worst_ratio, worst_bound = top - c1, top, c1
    params = _params(cfg, tolerance, per_scale=per_scale)
    return _collect("theorem43", params, values, tolerance, worst_ratio, worst_bound)


def suite_vage(cfg: RunConfig) -> Report:
    """Asymmetric submultiplicativity on the dual scale at exponent -2."""
    ctx = cfg.context()
    tolerance = 1e-9
    counts = _split_trials(cfg.trials, len(cfg.scales))
    values: list[float] = []
    per_scale = []
    worst_ratio, worst_bound, worst_margin = None, None, -math.inf
    trial_base = 0
    for (r, s, _alpha), count in zip(cfg.scales, counts):
        bound = math.sqrt(r / (r - s))

        def trial(i: int, _r=r, _s=s, _base=trial_base) -> float:
            rng = _trial_rng(cfg.seed, f"vage:{_r}:{_s}", _base + i)
            f = GradedVector.random(ctx, rng)
            g = GradedVector.random(ctx, rng)
            ratio, _ = vage_ratio(f, g, _r, _s, ctx, check=False)
            return ratio

        ratios = [trial(i) for i in range(count)]
        trial_base += count
        values.extend(max(0.0, ratio - bound) for ratio in ratios)
        top = max(ratios, default=0.0)
        per_scale.append({"r": r, "s": s, "bound": bound, "max_ratio": top})
        if top - bound > worst_margin:
            worst_margin, worst_ratio, worst_bound = top - bound, top, bound
    params = _params(cfg, tolerance, per_scale=per_scale)
    return _collect("vage", params, values, tolerance, worst_ratio, worst_bound)


def suite_duality(cfg: RunConfig) -> Report:
    """The dual-scale norm is the exact operator dual of the test norm."""
    ctx = cfg.context()
    tolerance = 1e-10
    r, alpha = 2.0, 2.0
    weights = default_hplus_weights(cfg.dim)
    test = make_test_space(ctx, r, alpha, "abs_q", weights)
    dual = make_dual_space(ctx, r, alpha, weights)

    def trial(i: int) -> float:
        rng = _trial_rng(cfg.seed, "duality", i)
        f = GradedVector.random(ctx, rng)
        g = GradedVector.random(ctx, rng)
        product = g_norm(f, test) * f_dual_norm(g, dual)
        return duality_residual(f, g, r, alpha, ctx) / max(1.0, product)

    values = [trial(i) for i in range(cfg.trials)]
    # one saturating pair: the bound is attained, not merely respected
    f = GradedVector.random(ctx, _trial_rng(cfg.seed, "duality:saturate", 0))
    partner = saturating_dual_partner(f, r, alpha, ctx)
    pairing = abs(q_inner(f, partner))
    product = g_norm(f, test) * f_dual_norm(partner, dual)
    saturation_gap = abs(pairing - product) / product
    params = _params(cfg, tolerance, r=r, alpha=alpha, saturation_gap=saturation_gap)
    return _collect("duality", params, values, tolerance, side_checks=((saturation_gap, 1e-9),))


def _random_dyadic_vector(ctx: QContext, rng: np.random.Generator) -> GradedVector:
    """Entries are small dyadic rationals and the vacuum part a power of two,
    so every tensor operation on them is exact in floating point."""
    comps = {
        n: rng.integers(-16, 17, size=ctx.dim**n).astype(float) / 8.0
        for n in range(ctx.max_degree + 1)
    }
    sign = 1.0 if rng.integers(0, 2) == 0 else -1.0
    comps[0] = np.array([sign * 2.0 ** float(rng.integers(-2, 3))])
    return GradedVector(ctx, comps)


def suite_inverse(cfg: RunConfig) -> Report:
    """The tensor inverse is exact on the truncation."""
    ctx = cfg.context()
    tolerance = 1e-12
    omega = GradedVector.vacuum(ctx)

    def trial(i: int) -> float:
        rng = _trial_rng(cfg.seed, "inverse", i)
        f = _random_dyadic_vector(ctx, rng)
        defect = (graded_tensor(f, wick_inverse(f)) - omega).max_abs()
        value = 0.0 if defect == 0.0 else math.inf  # exact family must cancel exactly
        g_comps = {n: rng.standard_normal(ctx.dim**n) for n in range(1, ctx.max_degree + 1)}
        z = float(rng.standard_normal())
        g_comps[0] = np.array([math.copysign(1.0 + abs(z), z)])  # well away from zero
        g = GradedVector(ctx, g_comps)
        float_defect = (graded_tensor(g, wick_inverse(g)) - omega).max_abs()
        return max(value, float_defect / max(1.0, g.max_abs()) ** ctx.max_degree)

    values = [trial(i) for i in range(cfg.trials)]
    params = _params(cfg, tolerance, exact_family="dyadic entries, power-of-two vacuum part")
    return _collect("inverse", params, values, tolerance)


def suite_series(cfg: RunConfig) -> Report:
    """Radius certification and geometric decay of certified power series."""
    ctx = cfg.context()
    tolerance = 1e-9
    geometric = SeriesSpec((1.0,) * 40, 1.0)

    def trial(i: int) -> float:
        rng = _trial_rng(cfg.seed, "series", i)
        f = GradedVector.random(ctx, rng)
        norm = f_dual_norm(f, make_dual_space(ctx, 1.0, 2.0))
        f = f.scale(0.5 / norm)  # s-scale norm 0.5 against radius 1
        cert = certify_radius(f, geometric, 1.0)
        if not (cert.contraction < 1.0 and cert.r > cert.s / (1.0 - (cert.norm_s / 1.0) ** 2)):
            return math.inf
        space_r = make_dual_space(ctx, cert.r, 2.0)
        worst = 0.0
        power = GradedVector.vacuum(ctx)
        for n in range(1, 9):
            power = graded_tensor(power, f)
            worst = max(worst, f_dual_norm(power, space_r) / cert.contraction**n - 1.0)
        # the identity series must reproduce its argument exactly
        identity = wick_series(f, SeriesSpec((0.0, 1.0), 1.0), cert)
        if (identity - f).max_abs() != 0.0:
            return math.inf
        return max(0.0, worst)

    values = [trial(i) for i in range(cfg.trials)]
    params = _params(cfg, tolerance, radius=1.0, target_norm=0.5)
    return _collect("series", params, values, tolerance)


SUITES = {
    "commutation": suite_commutation,
    "positivity": suite_positivity,
    "adjointness": suite_adjointness,
    "macmahon": suite_macmahon,
    "moments": suite_moments,
    "wick-correspondence": suite_wick_correspondence,
    "hermite": suite_hermite,
    "embedding": suite_embedding,
    "lemma53": suite_lemma53,
    "theorem43": suite_theorem43,
    "vage": suite_vage,
    "duality": suite_duality,
    "inverse": suite_inverse,
    "series": suite_series,
}


def run_suite(name: str, cfg: RunConfig) -> Report:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return SUITES[name](cfg)
