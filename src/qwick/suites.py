"""Seeded randomized verification suites with machine-readable reports.

The suites form one table, `SUITES`, run by one runner, `run_suite`.  A table
entry holds only the suite's own maths: what one trial draws, how a stream of
draws is checked, its tolerance, its truncation degree, and its extra params
and findings.  The runner does the rest for every suite: it draws trial i's
inputs from a generator seeded by (seed, stream key, i), so results do not
depend on execution order, splits the trials evenly over the configured scale
pairs, checks each stream's draws in one call, builds the shared params and
records the violations.  A check gives one float per draw: it stacks its
draws into one batch and makes one kernel call where a trial made one, each
row computed bit for bit as alone.  Adding a suite means adding one entry to
the table.
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
    swap_constant,
    symmetrizer_matrix,
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
    add_scaled,
    apply_to_fock,
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
        if self.seed < 0:
            raise ValueError("config requires seed >= 0")
        if not self.scales:
            raise ValueError("config requires at least one scale pair")
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
    suite's; it raises ValueError for a degree at which the suite's check is
    not sound.
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


def suite_context(name: str, cfg: RunConfig) -> QContext:
    """The truncation suite `name` runs at under `cfg`.  Raises ValueError
    for an unknown suite or a degree past the suite's cap, so a caller can
    check every suite it will run before the first one starts."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return cfg.context(SUITES[name].degree(cfg.max_degree))


def run_suite(name: str, cfg: RunConfig) -> Report:
    """Run the suite `name` of the table at `cfg`.  Trial indices continue
    across the streams of a scale suite, and on a tie of margins (all -inf
    when every bound is infinite) the first scale pair that ran supplies the
    report's max_ratio and bound; a pair that ran no trial reports max_ratio
    null and supplies neither."""
    ctx = suite_context(name, cfg)
    suite = SUITES[name]
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
            top = max(outputs, default=None)  # a pair that ran no trial has none
            per_scale.append({**record, "max_ratio": top})
            if top is not None and (max_ratio is None or top - limit > worst_margin):
                worst_margin, max_ratio, bound = top - limit, top, limit
        if suite.pair:
            extra["per_scale"] = per_scale
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
def _commutation(ctx: QContext, phi: np.ndarray, psi: np.ndarray) -> list[float]:
    """a^- a^+ = q a^+ a^- + pairing, on degrees below the truncation edge."""
    return commutation_residual(phi, psi, ctx).tolist()


def _commutation_findings(ctx: QContext, side) -> tuple[dict, tuple]:
    """Documented finding: trading the arguments instead of the operators
    leaves a residual of 2-norm |q| |phi ^ psi| c_n on degree n, so over unit
    pairs its supremum is |q| max_n c_n, reached at every orthonormal pair."""
    top = max(swap_constant(n, ctx.dim, ctx.q) for n in range(ctx.max_degree))
    return {"argument_swapped_variant_max_residual": abs(ctx.q) * top}, ()


def _positivity(ctx: QContext, tolerance: float) -> tuple[list[float], dict, tuple]:
    """The symmetrizer is strictly positive; its norm is the |q|-factorial.
    The norm's excess over [n]_|q|! and over the plain [n]_q! is measured
    relative to [n]_|q|!, which grows geometrically with n.  Up to
    ORACLE_DEGREE the factorized kernel must also match the sum over all
    permutations, entry by entry relative to that norm."""
    degrees = [n for n in range(ctx.max_degree + 1) if ctx.dim**n <= EIGENSOLVER_CAP]
    values = []
    plain_weight_exceeded = []
    oracle_gap = 0.0
    for n in degrees:
        lo, hi = pq_spectrum(n, ctx)
        norm = q_factorial(n, abs(ctx.q))
        value = 0.0 if lo > 0.0 else math.inf  # strict positivity
        value = max(value, (hi - norm) / norm)
        values.append(max(0.0, value))
        if (hi - q_factorial(n, ctx.q)) / norm > tolerance:
            plain_weight_exceeded.append(n)
        if n <= ORACLE_DEGREE:
            kernel = symmetrizer_matrix(n, ctx.dim, ctx.q)
            gap = np.max(np.abs(kernel - pq_matrix(n, ctx.dim, ctx.q)))
            oracle_gap = max(oracle_gap, float(gap) / norm)
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
    # each row's |phi| by the dot product np.linalg.norm takes, so a row keeps
    # the bits it has as a lone draw
    scale = np.maximum(1.0, np.sqrt((phi[:, None, :] @ phi[:, :, None])[:, 0, 0]))
    worst = np.zeros(len(phi))
    for k, report in enumerate(moments(phi, _moment_orders(ctx), ctx)):
        if k % 2 == 0:
            ratio = report.residual / np.abs(report.oracle_value)
        else:
            ratio = np.abs(report.value) / scale**k
        worst = np.maximum(worst, ratio)
    return worst.tolist()


def _random_polynomial(rng: np.random.Generator, dim: int, max_terms: int = 3) -> dict:
    """Up to max_terms random words with at most two creators and two
    annihilators, as kernels at every bidegree m, k <= 2 (zero where no word
    is), so that draws stack."""
    poly = {(m, k): np.zeros((dim**m, dim**k)) for m in range(3) for k in range(3)}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        creators = [rng.standard_normal(dim) for _ in range(int(rng.integers(0, 3)))]
        annihilators = [rng.standard_normal(dim) for _ in range(int(rng.integers(0, 3)))]
        word = np.outer(elementary_tensor(creators), elementary_tensor(annihilators))
        key = (len(creators), len(annihilators))
        poly[key] = poly[key] + float(rng.standard_normal()) * word
    return poly


def _wick_correspondence_draw(ctx: QContext, rng: np.random.Generator) -> tuple:
    p1 = _random_polynomial(rng, ctx.dim)
    p2 = _random_polynomial(rng, ctx.dim)
    n = int(rng.integers(1, min(4, ctx.max_degree) + 1))
    vectors = [rng.standard_normal(ctx.dim) for _ in range(n)]
    fs = [rng.standard_normal(ctx.dim) for _ in range(int(rng.integers(1, 3)))]
    gs = [rng.standard_normal(ctx.dim) for _ in range(int(rng.integers(1, 3)))]
    # degrees <= N - n, so that the monomial of vectors never leaves the truncation
    f = {j: rng.standard_normal(ctx.dim**j) for j in range(ctx.max_degree - n + 1)}
    return p1, p2, vectors, fs, gs, GradedVector(ctx, f)


def _monomial_on(vectors: list, f: GradedVector, q: float) -> GradedVector:
    """The monomial recursion run as operators through create and annihilate:
    H(v_1..v_n) f = (a^+(v_1) + a^-(v_1)) H(tail) f minus, for the j-th tail
    argument, q^(j-1) (v_1, v_j) H(tail without v_j) f."""
    if not vectors:
        return f
    head, tail = vectors[0], vectors[1:]
    inner = _monomial_on(tail, f, q)
    out = create(head, inner) + annihilate(head, inner)
    weight = 1.0
    for j, t in enumerate(tail):
        pairing = (head[..., None, :] @ t[..., :, None])[..., 0, 0]
        out = out - _monomial_on(tail[:j] + tail[j + 1 :], f, q).scale(weight * pairing)
        weight *= q
    return out


def _max_entry(p: dict) -> np.ndarray:
    """Largest kernel entry magnitude, per row of the batch."""
    return functools.reduce(np.maximum, (np.max(np.abs(k), axis=(-2, -1)) for k in p.values()))


def _wick_correspondence(ctx: QContext, draws: list) -> list[float]:
    """The vacuum map turns the Wick product into the graded tensor product;
    orthogonal monomials land on their kernels, act on the Fock space as the
    recursion run through create and annihilate does, and multiply as their
    joint argument list.  The polynomials of all draws stack; the monomials
    stack by argument count."""
    if not draws:
        return []
    q = ctx.q
    p1, p2, vectors, fs, gs, f = zip(*draws)
    p1, p2 = ({key: np.stack([p[key] for p in ps]) for key in ps[0]} for ps in (p1, p2))
    left = vacuum_vector(wick_mul_poly(p1, p2, q), ctx)
    right = graded_tensor(vacuum_vector(p1, ctx), vacuum_vector(p2, ctx))
    worst = (left - right).euclidean_norm() / np.maximum(1.0, right.euclidean_norm())

    for rows, vs in _groups(vectors):
        mono = wick_monomial(vs, q)
        target = [GradedVector(ctx, {len(vs): elementary_tensor(vectors[i])}) for i in rows]
        target = GradedVector.stack(target)
        gap = (vacuum_vector(mono, ctx) - target).euclidean_norm()
        f_rows = GradedVector.stack([f[i] for i in rows])
        ops = _monomial_on(vs, f_rows, q)
        action = (apply_to_fock(mono, f_rows) - ops).euclidean_norm()
        worst[rows] = np.maximum.reduce([
            worst[rows],
            gap / np.maximum(1.0, target.euclidean_norm()),
            action / np.maximum(1.0, ops.euclidean_norm()),
        ])
    for rows, f_args, g_args in _groups(fs, gs):
        product = wick_mul_poly(wick_monomial(f_args, q), wick_monomial(g_args, q), q)
        joint = wick_monomial(f_args + g_args, q)
        coeff_gap = _max_entry(add_scaled(product, joint, -1.0))
        worst[rows] = np.maximum(worst[rows], coeff_gap / np.maximum(1.0, _max_entry(joint)))
    return worst.tolist()


def _groups(*columns):
    """Draw indices grouped by their argument counts in columns (lists of
    argument lists, one per draw), with each column's arguments stacked."""
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(zip(*(map(len, col) for col in columns))):
        groups.setdefault(key, []).append(i)
    for rows in groups.values():
        yield rows, *([np.stack(arg) for arg in zip(*(col[i] for i in rows))] for col in columns)


def x_coefficients(poly: dict, powers: list[dict]) -> list[float]:
    """Write a single-mode polynomial as sum c_k x^k, where powers[k] is x^k,
    the k-th ordinary power of the field normal-ordered, by peeling the pure
    creator kernel of each degree from the top down."""
    coeffs = [0.0] * len(powers)
    for k in reversed(range(len(powers))):
        c = float(poly[(k, 0)][0, 0]) if (k, 0) in poly else 0.0
        coeffs[k] = c
        if c != 0.0:
            poly = add_scaled(poly, powers[k], -c)
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
    recurrence = [wick_monomial([], ctx.q), wick_monomial([e], ctx.q)]
    for n in range(1, 7):
        step = field_mul(e, recurrence[n], ctx.q)
        recurrence.append(add_scaled(step, recurrence[n - 1], -q_integer(n, ctx.q)))
    values = [
        float(_max_entry(add_scaled(wick_monomial([e] * n, ctx.q), recurrence[n], -1.0)))
        for n in range(7)
    ]

    q_near_one = 1.0 - 1e-6
    classical_tolerance = 1e-4
    powers = [wick_monomial([], q_near_one)]
    for _ in range(6):
        powers.append(field_mul(e, powers[-1], q_near_one))
    classical_worst = 0.0
    for n in range(7):
        coeffs = x_coefficients(wick_monomial([e] * n, q_near_one), powers[: n + 1])
        hermite = hermite_coefficients(n)
        for k in range(n + 1):
            target = float(hermite[k]) if k < len(hermite) else 0.0
            classical_worst = max(
                classical_worst, abs(coeffs[k] - target) / max(1.0, abs(target))
            )
    extra = {
        "classical_limit_q": q_near_one,
        "classical_limit_max_relative_error": classical_worst,
        "classical_limit_tolerance": classical_tolerance,
    }
    return values, extra, ((classical_worst, classical_tolerance),)


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
        return vage_ratio(f, g, r, s).tolist()

    return f"vage:{r}:{s}", {"r": r, "s": s, "bound": bound}, bound, check


DUALITY_R, DUALITY_ALPHA = 2.0, 2.0


@_stacked
def _duality(ctx: QContext, f: GradedVector, g: GradedVector) -> list[float]:
    """The dual-scale norm is the exact operator dual of the test norm."""
    weights = default_hplus_weights(ctx.dim)
    test_norm = g_norm(f, DUALITY_R, DUALITY_ALPHA, weights)
    product = test_norm * f_dual_norm(g, DUALITY_R, DUALITY_ALPHA, weights)
    residual = np.maximum(0.0, np.abs(q_inner(f, g)) - product)
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


# the largest degree at which the inverse suite's exact family stays exact
EXACT_INVERSE_DEGREE = 53


def _inverse_degree(n: int) -> int:
    if n > EXACT_INVERSE_DEGREE:
        raise ValueError(f"suite inverse needs max_degree <= {EXACT_INVERSE_DEGREE}, got {n}")
    return n


def _random_exact_vector(ctx: QContext, rng: np.random.Generator) -> GradedVector:
    """f = 2^e (+-Omega + h), with e in -2..2 and h's entries in {-1, 0, 1}.

    Every g_n of its inverse is 2^-e times integers of size at most 2^(n-1),
    and every partial sum that wick_inverse and the check graded_tensor(f, g)
    form is an integer of size at most 2^n.  So both are exact in floating
    point for max_degree <= EXACT_INVERSE_DEGREE = 53."""
    power = 2.0 ** float(rng.integers(-2, 3))
    sign = 1.0 if rng.integers(0, 2) == 0 else -1.0
    comps = {
        n: power * rng.integers(-1, 2, size=ctx.dim**n).astype(float)
        for n in range(1, ctx.max_degree + 1)
    }
    comps[0] = np.array([sign * power])
    return GradedVector(ctx, comps)


def _inverse_draw(ctx: QContext, rng: np.random.Generator) -> tuple[GradedVector, GradedVector]:
    f = _random_exact_vector(ctx, rng)
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


# the series suite's declared radius, and the s-scale norm its draws are scaled to
SERIES_RADIUS = 1.0
SERIES_TARGET_NORM = 0.5
GEOMETRIC_SERIES = SeriesSpec((1.0,) * 40, SERIES_RADIUS)


@_stacked
def _series(ctx: QContext, f: GradedVector) -> list[float]:
    """Radius certification and geometric decay of certified power series."""
    f = f.scale(SERIES_TARGET_NORM / f_dual_norm(f, 1.0, 2.0))
    cert = certify_radius(f, GEOMETRIC_SERIES)
    # each draw's powers are measured at its own r; draws share r in practice
    rs = cert.r.tolist()
    norms: dict[float, list] = {r: [] for r in rs}
    power = GradedVector.vacuum(ctx)
    for n in range(1, 9):
        power = graded_tensor(power, f)
        for r, at_r in norms.items():
            at_r.append(f_dual_norm(power, r, 2.0).tolist())
    # the identity series must reproduce its argument exactly
    identity = wick_series(f, SeriesSpec((0.0, 1.0), SERIES_RADIUS), cert)
    exact = ((identity - f).max_abs() == 0.0).tolist()
    values = []
    for i, (r, s, norm_s, contraction) in enumerate(
        zip(rs, cert.s.tolist(), cert.norm_s.tolist(), cert.contraction.tolist())
    ):
        certified = contraction < 1.0 and r > s / (1.0 - (norm_s / SERIES_RADIUS) ** 2)
        if not (certified and exact[i]):
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
        findings=_commutation_findings,
        degree=lambda n: max(n, 1),
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
        params={"exact_family": "power of two times (+-vacuum + entries in {-1, 0, 1})"},
        degree=_inverse_degree,
    ),
    "series": Suite(
        1e-9,
        _one_vector,
        _series,
        params={"radius": SERIES_RADIUS, "target_norm": SERIES_TARGET_NORM},
    ),
}
SUITE_NAMES = tuple(SUITES)
