"""Seeded randomized verification suites with machine-readable reports.

The suites form one table, `SUITES`, run by one runner, `run_suite`.  A table
entry holds only the suite's own maths: what one trial draws, how a stream of
draws is checked, its tolerance, its truncation degree, and its extra params
and findings.  The runner does the rest for every suite: it draws trial i's
inputs from a generator seeded by (seed, stream key, i), so results do not
depend on execution order, splits the trials evenly over the configured scale
pairs, checks each stream's draws in one call, builds the shared params and
records the violations.  A check stacks its draws into one batch and makes
one kernel call where a trial made one, each row computed bit for bit as
alone; commutation's dense blocks go to the SVD at most fock.STACK_BYTES at a
time.  Adding a suite means adding one entry to the table.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass, field
from typing import Callable

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
from .series import SeriesSpec, certify_radius, wick_inverse, wick_series
from .wick import (
    NormalWord,
    WickPolynomial,
    field_mul,
    moments,
    vacuum_vector,
    wick_monomial,
    wick_mul_poly,
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
            if not math.inf > r > s >= 1.0:
                raise ValueError(f"scale pair must satisfy inf > r > s >= 1, got ({r}, {s})")
            if not math.inf > alpha >= 1.0:
                raise ValueError(f"scale exponent alpha must be finite and >= 1, got {alpha}")

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


def _trial_rng(seed: int, key: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(key.encode()), index])


def _unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    if norm == 0.0:
        v = v.copy()
        v[0] = 1.0
        return v
    return v / norm


def _stacked(check):
    """check(ctx, draws) from check(ctx, *columns): the draws' inputs are
    stacked position by position (graded vectors with GradedVector.stack,
    arrays with np.stack), and no draws give no values."""

    @functools.wraps(check)
    def on_draws(ctx: QContext, draws: list) -> list:
        if not draws:
            return []
        columns = [
            GradedVector.stack(col) if isinstance(col[0], GradedVector) else np.stack(col)
            for col in zip(*draws)
        ]
        return check(ctx, *columns)

    return on_draws


@dataclass(frozen=True)
class Suite:
    """One row of the suite table.

    A sampling suite gives `draw(ctx, rng)`, the inputs of one trial, and
    `check(ctx, draws)`, the values of a list of draws, one per draw and each
    the same as `check(ctx, [draw])` would give.  A scale suite gives `draw`
    and `pair(ctx, r, s, alpha)`, called once per configured scale pair,
    which returns the pair's stream key, its `per_scale` record, its bound
    and a check computing ratios; a trial's value is how far its ratio
    exceeds the bound.  A fixed suite gives `fixed(ctx, tolerance)`,
    which draws no randomness and returns its whole value list, its extra
    params and its side checks.  `findings(ctx, side)` returns a sampling
    suite's computed params and side checks; `side(key)` is the generator of
    side stream `{suite}:{key}`, index 0.  A side check is a (value, limit)
    pair, recorded as trial -1 when the value is not within its limit.

    `params` holds constant extra params, `shared` the shared params the
    report keeps, and `degree` maps the configured truncation degree to the
    suite's.  With `aside` set, a check gives (value, aside) per draw and the
    report's `aside` param is the largest aside.
    """

    tolerance: float
    draw: Callable[[QContext, np.random.Generator], tuple] | None = None
    check: Callable[[QContext, list], list] | None = None
    pair: Callable[[QContext, float, float, float], tuple[str, dict, float, Callable]] | None = None
    fixed: Callable[[QContext, float], tuple[list[float], dict, tuple]] | None = None
    findings: Callable[[QContext, Callable], tuple[dict, tuple]] = lambda ctx, side: ({}, ())
    params: dict = field(default_factory=dict)
    shared: tuple[str, ...] = ("q", "dim", "max_degree")
    degree: Callable[[int], int] = lambda n: n
    aside: str = ""


def run_suite(name: str, cfg: RunConfig) -> Report:
    """Run the suite `name` of the table at `cfg`.  Trial indices continue
    across the streams of a scale suite, and on a tie of margins the first
    scale pair supplies the report's max_ratio and bound."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    suite = SUITES[name]
    ctx = cfg.context(suite.degree(cfg.max_degree))
    shared = {"q": cfg.q, "dim": cfg.dim, "max_degree": ctx.max_degree}
    params = {key: shared[key] for key in suite.shared}
    params.update(tolerance=suite.tolerance, **suite.params)
    max_ratio = bound = None
    if suite.fixed:
        values, extra, side_checks = suite.fixed(ctx, suite.tolerance)
    else:
        extra, side_checks = suite.findings(
            ctx, lambda key: _trial_rng(cfg.seed, f"{name}:{key}", 0)
        )
        if suite.pair:
            streams = [suite.pair(ctx, *scale) for scale in cfg.scales]
        else:
            streams = [(name, {}, None, suite.check)]
        base, rest = divmod(cfg.trials, len(streams))
        values, per_scale, start = [], [], 0
        worst_margin = -math.inf
        for k, (key, record, limit, check) in enumerate(streams):
            stop = start + base + (k < rest)
            draws = [suite.draw(ctx, _trial_rng(cfg.seed, key, i)) for i in range(start, stop)]
            outputs = check(ctx, draws)
            start = stop
            if limit is None:
                values += outputs
                continue
            values += [max(0.0, ratio - limit) for ratio in outputs]
            top = max(outputs, default=0.0)
            per_scale.append({**record, "max_ratio": top})
            if top - limit > worst_margin:
                worst_margin, max_ratio, bound = top - limit, top, limit
        if suite.pair:
            extra["per_scale"] = per_scale
        if suite.aside:
            extra[suite.aside] = max(b for _, b in values)
            values = [a for a, _ in values]
    params.update(extra)
    violations = [
        {"trial": i, "value": v} for i, v in enumerate(values) if not v <= suite.tolerance
    ]
    violations += [{"trial": -1, "value": v} for v, limit in side_checks if not v <= limit]
    return Report(
        suite=name,
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


def _unit_pair(ctx: QContext, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    return _unit(rng.standard_normal(ctx.dim)), _unit(rng.standard_normal(ctx.dim))


@_stacked
def _commutation(ctx: QContext, phi: np.ndarray, psi: np.ndarray) -> list[tuple[float, float]]:
    """a^- a^+ = q a^+ a^- + pairing, on degrees below the truncation edge;
    the aside is the residual of the argument-swapped variant."""
    exchange, swapped = commutation_residual(phi, psi, ctx)
    return list(zip(exchange.tolist(), swapped.tolist()))


def _positivity(ctx: QContext, tolerance: float) -> tuple[list[float], dict, tuple]:
    """The symmetrizer is strictly positive; its norm is the |q|-factorial.
    Up to ORACLE_DEGREE the factorized kernel must also match the sum over
    all permutations, entry by entry relative to that norm."""
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
    extra = {
        "degrees": degrees,
        "max_eig_exceeds_plain_q_factorial_at": plain_weight_exceeded,
        "permutation_sum_max_deviation": oracle_gap,
    }
    return values, extra, ((oracle_gap, tolerance),)


def _adjointness_draw(ctx: QContext, rng: np.random.Generator) -> tuple:
    phi = _unit(rng.standard_normal(ctx.dim))
    return phi, GradedVector.random(ctx, rng), GradedVector.random(ctx, rng)


@_stacked
def _adjointness(ctx: QContext, phi: np.ndarray, f: GradedVector, g: GradedVector) -> list[float]:
    """Creation and annihilation are mutually adjoint in the twisted pairing."""
    lhs = q_inner(create(phi, f), g)
    rhs = q_inner(f, annihilate(phi, g))
    scale = np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))
    return (np.abs(lhs - rhs) / scale).tolist()


def _macmahon(ctx: QContext, tolerance: float) -> tuple[list[float], dict, tuple]:
    """Shuffle inversion statistic sums to the Gaussian binomial."""
    values = [
        macmahon_residual(m, n, ctx.q)
        for m in range(0, PERMUTATION_CAP + 1)
        for n in range(0, PERMUTATION_CAP + 1 - m)
    ]
    return values, {"cap": PERMUTATION_CAP}, ()


def _moment_orders(ctx: QContext) -> int:
    return min(10, 2 * ctx.max_degree)


@_stacked
def _moments(ctx: QContext, phi: np.ndarray) -> list[float]:
    """Field-operator vacuum moments of one walk against the crossing-polynomial
    oracle; one walk serves every draw."""
    columns = [
        (report.residual.tolist(), report.oracle_value.tolist(), report.value.tolist())
        for report in moments(phi, _moment_orders(ctx), ctx)
    ]
    values = []
    for i, row in enumerate(phi):
        scale = max(1.0, float(np.linalg.norm(row)))
        worst = 0.0
        for k, (residual, oracle, value) in enumerate(columns):
            if k % 2 == 0:
                worst = max(worst, residual[i] / abs(oracle[i]))
            else:
                worst = max(worst, abs(value[i]) / scale**k)
        values.append(worst)
    return values


def _random_polynomial(rng: np.random.Generator, dim: int, max_terms: int = 3) -> WickPolynomial:
    terms: dict[NormalWord, float] = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        word = NormalWord.build(
            creators=[rng.standard_normal(dim) for _ in range(int(rng.integers(0, 3)))],
            annihilators=[rng.standard_normal(dim) for _ in range(int(rng.integers(0, 3)))],
        )
        terms[word] = terms.get(word, 0.0) + float(rng.standard_normal())
    return WickPolynomial(terms)


def _wick_correspondence_draw(ctx: QContext, rng: np.random.Generator) -> tuple:
    p1 = _random_polynomial(rng, ctx.dim)
    p2 = _random_polynomial(rng, ctx.dim)
    n = int(rng.integers(1, min(4, ctx.max_degree) + 1))
    vectors = [rng.standard_normal(ctx.dim) for _ in range(n)]
    fs = [rng.standard_normal(ctx.dim) for _ in range(int(rng.integers(1, 3)))]
    gs = [rng.standard_normal(ctx.dim) for _ in range(int(rng.integers(1, 3)))]
    return p1, p2, vectors, fs, gs


def _wick_correspondence(ctx: QContext, draws: list) -> list[float]:
    """The vacuum map turns the Wick product into the graded tensor product,
    and orthogonal monomials land on their kernels.  Polynomials are dicts of
    words, so each draw is checked on its own."""
    values = []
    for p1, p2, vectors, fs, gs in draws:
        left = vacuum_vector(wick_mul_poly(p1, p2, ctx.q), ctx)
        right = graded_tensor(vacuum_vector(p1, ctx), vacuum_vector(p2, ctx))
        worst = (left - right).euclidean_norm() / max(1.0, right.euclidean_norm())

        target = GradedVector(ctx, {len(vectors): elementary_tensor(vectors)})
        mono_gap = vacuum_vector(wick_monomial(vectors, ctx.q), ctx) - target
        worst = max(worst, mono_gap.euclidean_norm() / max(1.0, target.euclidean_norm()))

        product = wick_mul_poly(wick_monomial(fs, ctx.q), wick_monomial(gs, ctx.q), ctx.q)
        joint = wick_monomial(fs + gs, ctx.q)
        coeff_scale = max(1.0, max(abs(c) for c in joint.terms.values()))
        values.append(max(worst, product.max_coeff_diff(joint) / coeff_scale))
    return values


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
            residue = residue.minus_scaled(_x_power_polynomial(k, q), c)
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


def _hermite(ctx: QContext, tolerance: float) -> tuple[list[float], dict, tuple]:
    """Single-mode reduction: the monomial recursion is the deformed Hermite
    three-term recurrence, and its q -> 1 limit is the classical one."""
    e = basis_vector(1, 0)
    recurrence = [WickPolynomial.identity(), WickPolynomial.field(e)]
    for n in range(1, 7):
        step = field_mul(e, recurrence[n], ctx.q)
        recurrence.append(step.minus_scaled(recurrence[n - 1], q_integer(n, ctx.q)))
    values = [
        wick_monomial([e] * n, ctx.q).max_coeff_diff(recurrence[n]) for n in range(7)
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
    extra = {
        "classical_limit_q": q_near_one,
        "classical_limit_max_relative_error": classical_worst,
        "classical_limit_tolerance": 1e-4,
    }
    return values, extra, ((classical_worst, 1e-4),)


def _one_vector(ctx: QContext, rng: np.random.Generator) -> tuple[GradedVector]:
    return (GradedVector.random(ctx, rng),)


def _two_vectors(ctx: QContext, rng: np.random.Generator) -> tuple[GradedVector, GradedVector]:
    return GradedVector.random(ctx, rng), GradedVector.random(ctx, rng)


@_stacked
def _embedding(ctx: QContext, f: GradedVector) -> list[float]:
    """The |q|-weighted test scale dominates the center norm."""
    residual = embedding_residual(f, 1.0, 2.0, default_hplus_weights(ctx.dim))
    return (residual / np.maximum(1.0, fock_norm(f))).tolist()


def _embedding_findings(ctx: QContext, side) -> tuple[dict, tuple]:
    """Documented finding: with plain-q weights the same bound fails on
    antisymmetric tensors even under the scale precondition."""
    if not (ctx.q < 0.0 and ctx.dim >= 2 and ctx.max_degree >= 2):
        return {}, ()
    anti = np.zeros(ctx.dim**2)
    anti[1] = 1.0
    anti[ctx.dim] = -1.0
    r = max(1.0, 1.0 / (1.0 + ctx.q))
    residual = embedding_residual(GradedVector(ctx, {2: anti}), r, 2.0, weight_base="q")
    return {"plain_q_weight_failure_residual": residual}, ()


def _lemma53_draw(ctx: QContext, rng: np.random.Generator) -> tuple:
    m = int(rng.integers(1, 4))
    n = int(rng.integers(1, 4))
    return m, n, rng.standard_normal(ctx.dim**m), rng.standard_normal(ctx.dim**n)


def _lemma53(ctx: QContext, draws: list) -> list[float]:
    """Symmetrized tensor products obey the |q|-binomial bound.  The degrees
    are drawn per trial, so each draw is checked on its own."""
    values = []
    for m, n, f, g in draws:
        rhs_scale = max(
            1.0,
            q_binomial(m + n, m, abs(ctx.q))
            * float(np.linalg.norm(f))
            * float(np.linalg.norm(g)),
        )
        values.append(lemma53_residual(f, g, ctx, m, n) / rhs_scale)
    return values


def _theorem43_pair(ctx: QContext, big: float, small: float, alpha: float):
    """Test-side product bound with the explicitly computed constant.  The
    bound runs from a larger scale down to a smaller one, so each configured
    (r, s) pair is used swapped."""
    r, s = small, big
    c1 = estimate_c1(r, s, alpha, ctx)
    weights = default_hplus_weights(ctx.dim)

    @_stacked
    def check(ctx: QContext, f: GradedVector, g: GradedVector) -> list[float]:
        denom = g_norm(f, s, alpha, weights) * g_norm(g, s, alpha, weights)
        return (g_norm(graded_tensor(f, g), r, alpha, weights) / denom).tolist()

    return f"theorem43:{r}", {"r": r, "s": s, "alpha": alpha, "c1": c1}, c1, check


def _vage_pair(ctx: QContext, r: float, s: float, alpha: float):
    """Asymmetric submultiplicativity on the dual scale at exponent -2."""
    bound = math.sqrt(r / (r - s))

    @_stacked
    def check(ctx: QContext, f: GradedVector, g: GradedVector) -> list[float]:
        ratio, _ = vage_ratio(f, g, r, s)
        return ratio.tolist()

    return f"vage:{r}:{s}", {"r": r, "s": s, "bound": bound}, bound, check


DUALITY_R, DUALITY_ALPHA = 2.0, 2.0


@_stacked
def _duality(ctx: QContext, f: GradedVector, g: GradedVector) -> list[float]:
    """The dual-scale norm is the exact operator dual of the test norm."""
    weights = default_hplus_weights(ctx.dim)
    test_norm = g_norm(f, DUALITY_R, DUALITY_ALPHA, weights)
    product = test_norm * f_dual_norm(g, DUALITY_R, DUALITY_ALPHA, weights)
    residual = duality_residual(f, g, DUALITY_R, DUALITY_ALPHA)
    return (residual / np.maximum(1.0, product)).tolist()


def _duality_findings(ctx: QContext, side) -> tuple[dict, tuple]:
    """One saturating pair: the bound is attained, not merely respected."""
    weights = default_hplus_weights(ctx.dim)
    f = GradedVector.random(ctx, side("saturate"))
    partner = saturating_dual_partner(f, DUALITY_R, DUALITY_ALPHA)
    pairing = abs(q_inner(f, partner))
    test_norm = g_norm(f, DUALITY_R, DUALITY_ALPHA, weights)
    product = test_norm * f_dual_norm(partner, DUALITY_R, DUALITY_ALPHA, weights)
    saturation_gap = abs(pairing - product) / product
    return {"saturation_gap": saturation_gap}, ((saturation_gap, 1e-9),)


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


def _inverse_draw(ctx: QContext, rng: np.random.Generator) -> tuple[GradedVector, GradedVector]:
    f = _random_dyadic_vector(ctx, rng)
    g_comps = {n: rng.standard_normal(ctx.dim**n) for n in range(1, ctx.max_degree + 1)}
    z = float(rng.standard_normal())
    g_comps[0] = np.array([math.copysign(1.0 + abs(z), z)])  # well away from zero
    return f, GradedVector(ctx, g_comps)


@_stacked
def _inverse(ctx: QContext, f: GradedVector, g: GradedVector) -> list[float]:
    """The tensor inverse is exact on the truncation."""
    omega = GradedVector.vacuum(ctx)
    defects = (graded_tensor(f, wick_inverse(f)) - omega).max_abs().tolist()
    float_defects = (graded_tensor(g, wick_inverse(g)) - omega).max_abs().tolist()
    values = []
    for defect, float_defect, size in zip(defects, float_defects, g.max_abs().tolist()):
        value = 0.0 if defect == 0.0 else math.inf  # exact family must cancel exactly
        values.append(max(value, float_defect / max(1.0, size) ** ctx.max_degree))
    return values


GEOMETRIC_SERIES = SeriesSpec((1.0,) * 40, 1.0)


@_stacked
def _series(ctx: QContext, f: GradedVector) -> list[float]:
    """Radius certification and geometric decay of certified power series."""
    f = f.scale(0.5 / f_dual_norm(f, 1.0, 2.0))  # s-scale norm 0.5 against radius 1
    cert = certify_radius(f, GEOMETRIC_SERIES, 1.0)
    # each draw's powers are measured at its own r; draws share r in practice
    rs = cert.r.tolist()
    norms: dict[float, list] = {r: [] for r in rs}
    power = GradedVector.vacuum(ctx)
    for n in range(1, 9):
        power = graded_tensor(power, f)
        for r, at_r in norms.items():
            at_r.append(f_dual_norm(power, r, 2.0).tolist())
    # the identity series must reproduce its argument exactly
    identity = wick_series(f, SeriesSpec((0.0, 1.0), 1.0), cert)
    exact = ((identity - f).max_abs() == 0.0).tolist()
    values = []
    for i, (r, s, norm_s, contraction) in enumerate(
        zip(rs, cert.s.tolist(), cert.norm_s.tolist(), cert.contraction.tolist())
    ):
        if not (contraction < 1.0 and r > s / (1.0 - (norm_s / 1.0) ** 2)) or not exact[i]:
            values.append(math.inf)
            continue
        worst = 0.0
        for n, power_norms in enumerate(norms[r], start=1):
            worst = max(worst, power_norms[i] / contraction**n - 1.0)
        values.append(max(0.0, worst))
    return values


SUITES = {
    "commutation": Suite(
        1e-12,
        _unit_pair,
        _commutation,
        params={
            "normalization": "unit test vectors",
            "rule": "exchange form: the weighted term swaps operators, keeps arguments",
        },
        aside="argument_swapped_variant_max_residual",
    ),
    "positivity": Suite(1e-10, fixed=_positivity, shared=("q", "dim")),
    "adjointness": Suite(1e-12, _adjointness_draw, _adjointness),
    "macmahon": Suite(1e-12, fixed=_macmahon, shared=("q",)),
    "moments": Suite(
        1e-9,
        lambda ctx, rng: (rng.standard_normal(ctx.dim),),
        _moments,
        findings=lambda ctx, side: ({"orders": _moment_orders(ctx)}, ()),
        degree=lambda n: max(n, 1),
    ),
    "wick-correspondence": Suite(
        1e-10, _wick_correspondence_draw, _wick_correspondence, degree=lambda n: max(n, 4)
    ),
    "hermite": Suite(1e-12, fixed=_hermite, shared=("q",)),
    "embedding": Suite(
        1e-12,
        _one_vector,
        _embedding,
        findings=_embedding_findings,
        params={"alpha": 2.0, "r": 1.0, "weight_base": "abs_q"},
    ),
    "lemma53": Suite(
        1e-9, _lemma53_draw, _lemma53, params={"degrees": "1..3"}, shared=("q", "dim")
    ),
    "theorem43": Suite(1e-9, _two_vectors, pair=_theorem43_pair),
    "vage": Suite(1e-9, _two_vectors, pair=_vage_pair),
    "duality": Suite(
        1e-10,
        _two_vectors,
        _duality,
        findings=_duality_findings,
        params={"r": DUALITY_R, "alpha": DUALITY_ALPHA},
    ),
    "inverse": Suite(
        1e-12,
        _inverse_draw,
        _inverse,
        params={"exact_family": "dyadic entries, power-of-two vacuum part"},
    ),
    "series": Suite(1e-9, _one_vector, _series, params={"radius": 1.0, "target_norm": 0.5}),
}
SUITE_NAMES = tuple(SUITES)
