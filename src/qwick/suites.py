"""Seeded randomized verification suites with machine-readable reports.

The suites form one table, `SUITES`, run by one runner, `run_suite`.  A table
entry holds only the suite's own maths: its findings (the values, params and
side checks set by the config alone), what one trial draws, how a stream of
draws is checked, its tolerance and its truncation degree.  The runner does
the rest for every suite: `suite_streams` keys its sampled streams, one per
configured scale pair for a scale suite, and splits the trials over them;
trial i draws its inputs from a generator seeded by (seed, stream key, i), so
results do not depend on execution order.  A draw only draws: it returns
what the generator gives (1-D float arrays, (count, d) argument arrays,
Python numbers and lists of them; one call per array, fixed layouts in one
call cut in draw order, a polynomial as its kernels' entries) and builds no
tensor, not even a GradedVector.  The runner checks each nonempty
stream's draws in one call, builds the shared params and records the
violations.  A check gives one float per draw: it stacks each column of its
draws once into a (draws, width) block, row i being draw i, cuts a block
into degrees once with the layout it knows (`GradedVector._flat`), builds
every other array it needs once for the stream and makes one kernel call
where a trial made one, each row computed bit for bit as alone.  Adding a
suite means adding one entry to the table.
"""

from __future__ import annotations

import functools
import math
import zlib
from collections import namedtuple
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
    symmetrizer_matrix,
    tensor_product,
)
from .qcombinatorics import (
    PERMUTATION_CAP,
    macmahon_residual,
    q_binomial,
    q_factorial,
    q_integer,
)
from .scales import (
    VAGE_ALPHA,
    default_hplus_weights,
    degree_weight,
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
    pairing_moments,
    vacuum_vector,
    wick_monomial,
    wick_monomial_tails,
    wick_mul_poly,
)

DEFAULT_SCALES = ((2.0, 1.0, 2.0), (4.0, 1.0, 2.0), (1.5, 1.2, 2.0))
# largest degree at which positivity checks the kernel against the n!-term sum
ORACLE_DEGREE = 6


class RunConfig(
    namedtuple(
        "RunConfig",
        "q dim max_degree trials seed scales",
        defaults=(0.5, 2, 6, 500, 1, DEFAULT_SCALES),
    )
):
    """One verify run's settings: q, dim and max_degree for the context,
    trials and seed for the draws, and scales, the (r, s, alpha) pairs the
    scale suites run at.  Each field defaults to the headline config."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.context()  # checks q, dim and max_degree
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
        return self

    def context(self, max_degree: int | None = None) -> QContext:
        return QContext(
            self.q, self.dim, self.max_degree if max_degree is None else max_degree
        )


class Report(
    namedtuple(
        "Report",
        "suite params trials max_residual max_ratio bound violations passed trial_values",
        defaults=((),),
    )
):
    """One suite's outcome: its name and params, the number of values it
    checked, the largest value (max_residual), the worst ratio and its bound
    where the suite has one, the values past tolerance (violations, trial -1
    for a side check) and whether there were none (passed).  trial_values
    holds every value in trial order, for the CSV; the JSON report omits it."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "trials": self.trials,
            "max_residual": self.max_residual,
            "max_ratio": self.max_ratio,
            "bound": None if self.bound == math.inf else self.bound,
            "violations": self.violations,
            "pass": self.passed,
        }

    def write_csv(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write("trial,value\n")
            for i, value in enumerate(self.trial_values):
                handle.write(f"{i},{value!r}\n")


def _trial_rng(seed: int, key: str, index: int) -> np.random.Generator:
    # words below 2**32 as the uint32 entropy numpy would coerce the list to
    words = [seed, zlib.crc32(key.encode()), index]
    return np.random.default_rng(words if (seed | index) >> 32 else np.array(words, np.uint32))


def _unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    if norm == 0.0:
        v = v.copy()
        v[0] = 1.0
        return v
    return v / norm


def _size(ctx: QContext, degrees) -> int:
    """The number of entries of a graded vector on `degrees`."""
    return sum(ctx.dim**n for n in degrees)


def _cut_pair(ctx: QContext, block: np.ndarray) -> tuple[GradedVector, GradedVector]:
    """f and g on degrees 0..N, cut from a block whose rows each hold f's
    entries, then g's, degree by degree."""
    degrees = range(ctx.max_degree + 1)
    return tuple(GradedVector._flat(ctx, half, degrees) for half in np.split(block, 2, axis=-1))


def _stacked(check):
    """check(ctx, draws) from check(ctx, *columns): each column of the draws,
    one 1-D array per draw, as one (draws, width) block by a single np.stack,
    row i being draw i."""

    @functools.wraps(check)
    def on_draws(ctx: QContext, draws: list) -> list:
        return check(ctx, *map(np.stack, zip(*draws)))

    return on_draws


def _constant(**params) -> Callable:
    """Findings that are constant params alone: no values, no side checks."""
    return lambda ctx: ([], params, ())


class Suite(
    namedtuple(
        "Suite",
        "tolerance draw check pair findings shared degree",
        defaults=(None, None, None, _constant(), ("q", "dim", "max_degree"), lambda n: n),
    )
):
    """One row of the suite table.

    `findings(ctx)` draws nothing and returns a value list, the suite's own
    params (constant or computed) and its side checks, all set by the config
    alone; a side check is a (value, limit) pair, recorded as trial -1 when
    the value is not within its limit.  A draw-free suite gives only
    findings.  A sampling suite's findings give no values, and it adds
    `draw(ctx, rng)`, the inputs of one trial as the generator gives them
    (1-D float arrays, (count, d) argument arrays, Python numbers and lists
    of them, never a GradedVector or a kernel dict), and either `check(ctx,
    draws)`, the values of a nonempty list of draws, each the same as
    `check(ctx, [draw])` gives, or `pair(ctx, r, s, alpha)`, called once per
    configured scale pair, which returns the pair's `per_scale` record, its
    bound and a check computing ratios; a trial's value is how far its ratio
    exceeds the bound.  `shared` names the shared params the report keeps;
    `degree` maps the configured truncation degree to the suite's and raises
    ValueError where the suite's check is not sound.
    """

    __slots__ = ()


def suite_streams(name: str, cfg: RunConfig) -> tuple[QContext, list[tuple]]:
    """The truncation suite `name` runs at under `cfg`, and its sampled
    streams, each (key, trial indices, per_scale record or None, bound or
    None, check); a draw-free suite has none.  The key is `name`, or
    `name:r:s` per configured scale pair (r, s).  The trials split evenly
    over the streams, earlier ones taking the remainder, and the indices run
    on across them.  Raises ValueError for an unknown suite, a degree past
    the suite's cap or a scale pair its `pair` refuses, so a caller can check
    every suite it will run before the first one starts."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    suite = SUITES[name]
    ctx = cfg.context(suite.degree(cfg.max_degree))
    if not suite.draw:
        return ctx, []
    if suite.pair:
        parts = [(f"{name}:{r}:{s}", *suite.pair(ctx, r, s, a)) for r, s, a in cfg.scales]
    else:
        parts = [(name, None, None, suite.check)]
    base, rest = divmod(cfg.trials, len(parts))
    streams, start = [], 0
    for k, (key, record, bound, check) in enumerate(parts):
        stop = start + base + (k < rest)
        streams.append((key, range(start, stop), record, bound, check))
        start = stop
    return ctx, streams


def run_suite(name: str, cfg: RunConfig) -> Report:
    """Run the suite `name` of the table at `cfg`: the values of its findings,
    then those of its `suite_streams`, in index order.  A stream with a bound
    records its ratios' margins, and on a tie of margins (all -inf when every
    bound is infinite) the first stream that ran supplies the report's
    max_ratio and bound; a stream that ran no trial reports max_ratio null
    and supplies neither."""
    ctx, streams = suite_streams(name, cfg)
    suite = SUITES[name]
    shared = {"q": cfg.q, "dim": cfg.dim, "max_degree": ctx.max_degree}
    params = {key: shared[key] for key in suite.shared}
    values, extra, side_checks = suite.findings(ctx)
    params.update(tolerance=suite.tolerance, **extra)
    max_ratio = bound = None
    per_scale, worst_margin = [], -math.inf
    for key, indices, record, limit, check in streams:
        draws = [suite.draw(ctx, _trial_rng(cfg.seed, key, i)) for i in indices]
        # a scale pair runs no trial when there are fewer trials than pairs
        outputs = check(ctx, draws) if draws else []
        if limit is None:
            values += outputs
            continue
        values += [max(0.0, ratio - limit) for ratio in outputs]
        top = max(outputs, default=None)
        per_scale.append({**record, "max_ratio": top})
        if top is not None and (max_ratio is None or top - limit > worst_margin):
            worst_margin, max_ratio, bound = top - limit, top, limit
    if per_scale:
        params["per_scale"] = per_scale
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


COMMUTATION_TOLERANCE = 1e-12
POSITIVITY_TOLERANCE = 1e-10


def _commutation_draw(ctx: QContext, rng: np.random.Generator) -> tuple:
    """A unit pair, then f standard normal on degrees < N: creation cuts nothing."""
    d = ctx.dim
    flat = rng.standard_normal(2 * d + _size(ctx, range(ctx.max_degree)))
    return _unit(flat[:d]), _unit(flat[d : 2 * d]), flat[2 * d :]


@_stacked
def _commutation(ctx: QContext, phi: np.ndarray, psi: np.ndarray, f: np.ndarray) -> list[float]:
    """a^- a^+ = q a^+ a^- + pairing, on a vector below the truncation edge."""
    f = GradedVector._flat(ctx, f, range(ctx.max_degree))
    return commutation_residual(phi, psi, f).tolist()


def _commutation_findings(ctx: QContext) -> tuple[list, dict, tuple]:
    """The exchange residual is bilinear in (phi, psi), so its blocks at the
    d^2 basis pairs decide it for every pair; their largest Frobenius norm
    is a side check, exactly 0 at q = +-0.5.  Documented finding: trading
    the arguments instead leaves q (psi (x) M_phi - phi (x) M_psi) on degree
    n, linear in phi ^ psi, and the kernels are O(d)-equivariant, so its
    2-norm is |q| |phi ^ psi| c_n, c_n that of e_2 (x) M_(e_1) - e_1 (x)
    M_(e_2) (0 when d = 1 or n = 0); over unit pairs its supremum is |q|
    max_n c_n, reached at every orthonormal pair.  Each degree n < N is
    taken in turn: a^-(e_i) of its identity columns, batch row i, is taken
    once and read by c_n and by one commutation_residual call per psi = e_j,
    which takes every phi = e_i as a batch, so the largest array is d blocks
    of (d^n)^2."""
    basis = np.eye(ctx.dim)
    top = worst = 0.0
    for n in range(ctx.max_degree):
        cols = GradedVector._of(ctx, {n: np.eye(ctx.dim**n)})
        lowered = annihilate(basis[:, None, :], cols)
        if n and ctx.dim > 1:
            # row k is e_2 then e_1, against every column of a^-(e_1) then a^-(e_2)
            terms = tensor_product(basis[1::-1, None, :], lowered.components[n - 1][:2])
            top = max(top, float(np.linalg.norm(terms[0] - terms[1], 2)))
        for e_j in basis:
            blocks = commutation_residual(basis[:, None, :], e_j, cols, lowered)
            worst = max(worst, *(float(np.linalg.norm(block)) for block in blocks))
    params = {
        "normalization": "unit phi, psi; ||R f|| / max(1, ||f||), f normal below degree N",
        "rule": "exchange form: the weighted term swaps operators, keeps arguments",
        "argument_swapped_variant_max_residual": abs(ctx.q) * top,
        "basis_max_residual": worst,
    }
    return [], params, ((worst, COMMUTATION_TOLERANCE),)


def _positivity(ctx: QContext) -> tuple[list[float], dict, tuple]:
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
        if (hi - q_factorial(n, ctx.q)) / norm > POSITIVITY_TOLERANCE:
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
    return values, extra, ((oracle_gap, POSITIVITY_TOLERANCE),)


def _adjointness_draw(ctx: QContext, rng: np.random.Generator) -> tuple:
    """A unit phi, then f and g standard normal on degrees 0..N, as one array."""
    d = ctx.dim
    flat = rng.standard_normal(d + 2 * _size(ctx, range(ctx.max_degree + 1)))
    return _unit(flat[:d]), flat[d:]


@_stacked
def _adjointness(ctx: QContext, phi: np.ndarray, fg: np.ndarray) -> list[float]:
    """Creation and annihilation are mutually adjoint in the twisted pairing."""
    f, g = _cut_pair(ctx, fg)
    lhs = q_inner(create(phi, f), g)
    rhs = q_inner(f, annihilate(phi, g))
    scale = np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))
    return (np.abs(lhs - rhs) / scale).tolist()


def _macmahon(ctx: QContext) -> tuple[list[float], dict, tuple]:
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
    scale = np.maximum(1.0, np.sqrt(np.vecdot(phi, phi)))
    top = _moment_orders(ctx)
    walked, paired = moments(phi, top, ctx.q), pairing_moments(phi, top, ctx.q)
    worst = np.zeros(len(phi))
    for k, (value, oracle) in enumerate(zip(walked, paired)):
        ratio = np.abs(value - oracle) / np.abs(oracle) if k % 2 == 0 else np.abs(value) / scale**k
        worst = np.maximum(worst, ratio)
    return worst.tolist()


def _wick_correspondence_draw(ctx: QContext, rng: np.random.Generator) -> tuple:
    """Two creator-only polynomials as their kernels at bidegrees (0, 0),
    (1, 0) and (2, 0), the first's then the second's, in one array; n
    monomial arguments; one or two arguments for each factor of a monomial
    product; and f on degrees <= N - n, so that the monomial of the n
    arguments never leaves the truncation."""
    polys = rng.standard_normal(2 * _size(ctx, range(3)))
    n = int(rng.integers(1, min(4, ctx.max_degree) + 1))
    vectors = rng.standard_normal((n, ctx.dim))
    fs = rng.standard_normal((int(rng.integers(1, 3)), ctx.dim))
    gs = rng.standard_normal((int(rng.integers(1, 3)), ctx.dim))
    return polys, vectors, fs, gs, rng.standard_normal(_size(ctx, range(ctx.max_degree - n + 1)))


def _monomial_on(vectors: list, f: GradedVector, q: float) -> GradedVector:
    """The monomial recursion run as operators through create and annihilate:
    H(v_1..v_n) f = (a^+(v_1) + a^-(v_1)) H(tail) f minus, for the j-th tail
    argument, q^(j-1) (v_1, v_j) H(tail without v_j) f.  Each sub-list of
    argument positions is evaluated once per call."""
    memo: dict[tuple[int, ...], GradedVector] = {(): f}

    def on(idx: tuple[int, ...]) -> GradedVector:
        if idx in memo:
            return memo[idx]
        head, tail = vectors[idx[0]], idx[1:]
        inner = on(tail)
        out = create(head, inner) + annihilate(head, inner)
        weight = 1.0
        for j, t in enumerate(tail):
            pairing = np.vecdot(head, vectors[t])
            out = out - on(tail[:j] + tail[j + 1 :]).scale(weight * pairing)
            weight *= q
        memo[idx] = out
        return out

    return on(tuple(range(len(vectors))))


def _max_entry(p: dict) -> np.ndarray:
    """Largest kernel entry magnitude, per row of the batch."""
    return functools.reduce(np.maximum, (np.max(np.abs(k), axis=(-2, -1)) for k in p.values()))


def _wick_correspondence(ctx: QContext, draws: list) -> list[float]:
    """The vacuum map turns the Wick product into the graded tensor product;
    orthogonal monomials land on their kernels, act on the Fock space as the
    recursion run through create and annihilate does, and multiply as their
    joint argument list.  The polynomials of all draws stack and are cut
    into two batched vectors on degrees 0..2 once, each read as the kernels
    {(m, 0)} of a creator-only polynomial: A^-(g) annihilates the vacuum, so
    a word with annihilators gives zero on both sides of the vacuum identity,
    and the monomial products check the annihilator blocks.  The monomials
    stack by argument count, and so does f, cut into degrees once per
    group."""
    q = ctx.q
    polys, vectors, fs, gs, f = zip(*draws)
    halves = np.split(np.stack(polys), 2, axis=-1)
    cut = (GradedVector._flat(ctx, half, range(3)).components for half in halves)
    p1, p2 = ({(m, 0): comp[..., None] for m, comp in comps.items()} for comps in cut)
    left = vacuum_vector(wick_mul_poly(p1, p2, q), ctx)
    right = graded_tensor(vacuum_vector(p1, ctx), vacuum_vector(p2, ctx))
    worst = (left - right).euclidean_norm() / np.maximum(1.0, right.euclidean_norm())

    for rows, vs in _groups(vectors):
        mono = wick_monomial(vs, q)
        target = GradedVector._of(ctx, {len(vs): elementary_tensor(vs)})
        gap = (vacuum_vector(mono, ctx) - target).euclidean_norm()
        degrees = range(ctx.max_degree - len(vs) + 1)
        f_rows = GradedVector._flat(ctx, np.stack([f[i] for i in rows]), degrees)
        ops = _monomial_on(vs, f_rows, q)
        action = (apply_to_fock(mono, f_rows) - ops).euclidean_norm()
        worst[rows] = np.maximum.reduce([
            worst[rows],
            gap / np.maximum(1.0, target.euclidean_norm()),
            action / np.maximum(1.0, ops.euclidean_norm()),
        ])
    for rows, f_args, g_args in _groups(fs, gs):
        # g's monomial is the tail of the joint list after f's arguments
        tails = wick_monomial_tails(f_args + g_args, q)
        joint = tails[0]
        product = wick_mul_poly(wick_monomial(f_args, q), tails[len(f_args)], q)
        coeff_gap = _max_entry(add_scaled(product, joint, -1.0))
        worst[rows] = np.maximum(worst[rows], coeff_gap / np.maximum(1.0, _max_entry(joint)))
    return worst.tolist()


def _groups(*columns):
    """Draw indices grouped by their argument counts in columns (one
    (count, d) argument array per draw), with each column's arguments
    stacked: argument j of the group's draws as one (rows, d) array."""
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(zip(*(map(len, col) for col in columns))):
        groups.setdefault(key, []).append(i)
    for rows in groups.values():
        yield rows, *(list(np.stack([col[i] for i in rows], axis=1)) for col in columns)


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
    """Probabilists' Hermite coefficients, lowest power first, from the explicit
    sum He_n = sum_m (-1)^m n! / (m! (n-2m)! 2^m) x^(n-2m)."""
    coeffs = [0] * (n + 1)
    for m in range(n // 2 + 1):
        magnitude = math.factorial(n) // (math.factorial(m) * math.factorial(n - 2 * m) * 2**m)
        coeffs[n - 2 * m] = (-1) ** m * magnitude
    return coeffs


def _hermite(ctx: QContext) -> tuple[list[float], dict, tuple]:
    """Single-mode reduction: the monomial recursion is the deformed Hermite
    three-term recurrence, and its q -> 1 limit is the classical one."""
    e = basis_vector(1, 0)
    # entry n is the monomial of n copies of e, all from one recursion
    monomials = wick_monomial_tails([e] * 6, ctx.q)[::-1]
    recurrence = monomials[:2]
    for n in range(1, 6):
        step = field_mul(e, recurrence[n], ctx.q)
        recurrence.append(add_scaled(step, recurrence[n - 1], -q_integer(n, ctx.q)))
    values = [
        float(_max_entry(add_scaled(monomials[n], recurrence[n], -1.0))) for n in range(7)
    ]

    q_near_one = 1.0 - 1e-6
    classical_tolerance = 1e-4
    classical = wick_monomial_tails([e] * 6, q_near_one)[::-1]
    powers = classical[:1]
    for _ in range(6):
        powers.append(field_mul(e, powers[-1], q_near_one))
    classical_worst = 0.0
    for n in range(7):
        coeffs = x_coefficients(classical[n], powers[: n + 1])
        for k, target in enumerate(map(float, hermite_coefficients(n))):
            classical_worst = max(
                classical_worst, abs(coeffs[k] - target) / max(1.0, abs(target))
            )
    extra = {
        "classical_limit_q": q_near_one,
        "classical_limit_max_relative_error": classical_worst,
        "classical_limit_tolerance": classical_tolerance,
    }
    return values, extra, ((classical_worst, classical_tolerance),)


def _one_vector(ctx: QContext, rng: np.random.Generator) -> tuple[np.ndarray]:
    """f standard normal on degrees 0..N, as one flat array."""
    return (rng.standard_normal(_size(ctx, range(ctx.max_degree + 1))),)


def _two_vectors(ctx: QContext, rng: np.random.Generator) -> tuple[np.ndarray]:
    """f, then g, standard normal on degrees 0..N, as one flat array."""
    return (rng.standard_normal(2 * _size(ctx, range(ctx.max_degree + 1))),)


EMBEDDING_R, EMBEDDING_ALPHA, EMBEDDING_WEIGHT_BASE = 1.0, 2.0, "abs_q"


@_stacked
def _embedding(ctx: QContext, f: np.ndarray) -> list[float]:
    """The |q|-weighted test scale dominates the center norm."""
    f = GradedVector._flat(ctx, f, range(ctx.max_degree + 1))
    weights = default_hplus_weights(ctx.dim)
    residual = embedding_residual(f, EMBEDDING_R, EMBEDDING_ALPHA, weights, EMBEDDING_WEIGHT_BASE)
    return (residual / np.maximum(1.0, fock_norm(f))).tolist()


def _embedding_findings(ctx: QContext) -> tuple[list, dict, tuple]:
    """The scale checked, and a documented finding: with plain-q weights the
    same bound fails on antisymmetric tensors even under the scale
    precondition."""
    params = {"alpha": EMBEDDING_ALPHA, "r": EMBEDDING_R, "weight_base": EMBEDDING_WEIGHT_BASE}
    if not (ctx.q < 0.0 and ctx.dim >= 2 and ctx.max_degree >= 2):
        return [], params, ()
    anti = np.zeros(ctx.dim**2)
    anti[1] = 1.0
    anti[ctx.dim] = -1.0
    r = max(1.0, 1.0 / (1.0 + ctx.q))
    residual = embedding_residual(GradedVector(ctx, {2: anti}), r, 2.0, weight_base="q")
    return [], {**params, "plain_q_weight_failure_residual": residual}, ()


LEMMA53_DEGREES = range(1, 4)


def _lemma53_draw(ctx: QContext, rng: np.random.Generator) -> tuple:
    m = int(rng.integers(LEMMA53_DEGREES.start, LEMMA53_DEGREES.stop))
    n = int(rng.integers(LEMMA53_DEGREES.start, LEMMA53_DEGREES.stop))
    flat = rng.standard_normal(ctx.dim**m + ctx.dim**n)
    return m, n, flat[: ctx.dim**m], flat[ctx.dim**m :]


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
    (r, s) pair is used swapped.  The degree weights the norms will take
    depend on the config alone, and the largest is at degree N and the larger
    scale (r, alpha >= 1), so one that overflows raises here, before any
    suite runs.  A c1 that overflows (near |q| = 1) bounds nothing: the
    record writes it null, and the stream's bound keeps it for the margin."""
    r, s = small, big
    degree_weight(ctx.max_degree, s, alpha, abs(ctx.q))
    c1 = estimate_c1(r, s, alpha, ctx)
    weights = default_hplus_weights(ctx.dim)

    @_stacked
    def check(ctx: QContext, fg: np.ndarray) -> list[float]:
        f, g = _cut_pair(ctx, fg)
        denom = g_norm(f, s, alpha, weights) * g_norm(g, s, alpha, weights)
        return (g_norm(graded_tensor(f, g), r, alpha, weights) / denom).tolist()

    return {"r": r, "s": s, "alpha": alpha, "c1": None if c1 == math.inf else c1}, c1, check


def _vage_pair(ctx: QContext, r: float, s: float, alpha: float):
    """Asymmetric submultiplicativity on the dual scale at exponent
    -VAGE_ALPHA, whatever the pair's configured alpha."""
    bound = math.sqrt(r / (r - s))

    @_stacked
    def check(ctx: QContext, fg: np.ndarray) -> list[float]:
        return vage_ratio(*_cut_pair(ctx, fg), r, s).tolist()

    return {"r": r, "s": s, "alpha": VAGE_ALPHA, "bound": bound}, bound, check


def _duality_scale(ctx: QContext) -> tuple:
    """The duality suite's test scale: (r, alpha, one-particle weights)."""
    return 2.0, 2.0, default_hplus_weights(ctx.dim)


def _pairing_and_product(f: GradedVector, g: GradedVector) -> tuple:
    """|<f, g>_q| and ||f||_test ||g||_dual at the duality scale, per row."""
    r, alpha, weights = _duality_scale(f.ctx)
    test_norm = g_norm(f, r, alpha, weights)
    return np.abs(q_inner(f, g)), test_norm * f_dual_norm(g, r, alpha, weights)


@_stacked
def _duality(ctx: QContext, fg: np.ndarray) -> list[float]:
    """The dual-scale norm is the exact operator dual of the test norm."""
    pairing, product = _pairing_and_product(*_cut_pair(ctx, fg))
    return (np.maximum(0.0, pairing - product) / np.maximum(1.0, product)).tolist()


def _duality_findings(ctx: QContext) -> tuple[list, dict, tuple]:
    """One saturating pair: the bound is attained, not merely respected.  The
    dual vector is fixed and generic (entry k of degree n is 1/(k+1))."""
    degrees = range(ctx.max_degree + 1)
    g = GradedVector(ctx, {n: 1.0 / np.arange(1, ctx.dim**n + 1) for n in degrees})
    r, alpha, weights = _duality_scale(ctx)
    f = saturating_dual_partner(g, r, alpha, weights)
    pairing, product = _pairing_and_product(f, g)
    saturation_gap = abs(pairing - product) / product
    params = {"r": r, "alpha": alpha, "saturation_gap": saturation_gap}
    return [], params, ((saturation_gap, 1e-9),)


# the largest degree at which the inverse suite's exact family stays exact
EXACT_INVERSE_DEGREE = 53


def _inverse_degree(n: int) -> int:
    if n > EXACT_INVERSE_DEGREE:
        raise ValueError(f"suite inverse needs max_degree <= {EXACT_INVERSE_DEGREE}, got {n}")
    return n


def _vacuum_last_degrees(ctx: QContext) -> tuple[int, ...]:
    """The degrees of an inverse draw's vectors, in draw order: vacuum last."""
    return (*range(1, ctx.max_degree + 1), 0)


def _random_exact_vector(ctx: QContext, rng: np.random.Generator) -> np.ndarray:
    """f = 2^e (+-Omega + h), with e in -2..2 and h's entries in {-1, 0, 1},
    flat on `_vacuum_last_degrees`.

    Every g_n of its inverse is 2^-e times integers of size at most 2^(n-1),
    and every partial sum that wick_inverse and the check graded_tensor(f, g)
    form is an integer of size at most 2^n.  So both are exact in floating
    point for max_degree <= EXACT_INVERSE_DEGREE = 53."""
    power = 2.0 ** float(rng.integers(-2, 3))
    sign = 1.0 if rng.integers(0, 2) == 0 else -1.0
    # one integers call: the same entries and generator state as one per degree
    flat = np.empty(_size(ctx, _vacuum_last_degrees(ctx)))
    flat[:-1] = power * rng.integers(-1, 2, size=flat.size - 1).astype(float)
    flat[-1] = sign * power
    return flat


def _inverse_draw(ctx: QContext, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The exact family's f, then a normal g, both flat on `_vacuum_last_degrees`."""
    f = _random_exact_vector(ctx, rng)
    g = rng.standard_normal(f.size)
    g[-1] = math.copysign(1.0 + abs(g[-1]), g[-1])  # vacuum well away from zero
    return f, g


@_stacked
def _inverse(ctx: QContext, f: np.ndarray, g: np.ndarray) -> list[float]:
    """The tensor inverse is exact on the truncation."""
    f, g = (GradedVector._flat(ctx, block, _vacuum_last_degrees(ctx)) for block in (f, g))
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
def _series(ctx: QContext, f: np.ndarray) -> list[float]:
    """Radius certification and geometric decay of certified power series."""
    f = GradedVector._flat(ctx, f, range(ctx.max_degree + 1))
    f = f.scale(SERIES_TARGET_NORM / f_dual_norm(f, 1.0, VAGE_ALPHA))
    cert = certify_radius(f, GEOMETRIC_SERIES)
    # each draw's powers are measured at its own r; draws share r in practice
    rs = cert.r.tolist()
    norms: dict[float, list] = {r: [] for r in rs}
    power = GradedVector.vacuum(ctx)
    for n in range(1, 9):
        power = graded_tensor(power, f)
        for r, at_r in norms.items():
            at_r.append(f_dual_norm(power, r, VAGE_ALPHA).tolist())
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
        COMMUTATION_TOLERANCE,
        _commutation_draw,
        _commutation,
        findings=_commutation_findings,
        degree=lambda n: max(n, 1),
    ),
    "positivity": Suite(POSITIVITY_TOLERANCE, findings=_positivity, shared=("q", "dim")),
    "adjointness": Suite(1e-12, _adjointness_draw, _adjointness),
    "macmahon": Suite(1e-12, findings=_macmahon, shared=("q",)),
    "moments": Suite(
        1e-9,
        lambda ctx, rng: (rng.standard_normal(ctx.dim),),
        _moments,
        findings=lambda ctx: ([], {"orders": _moment_orders(ctx)}, ()),
        degree=lambda n: max(n, 1),
    ),
    "wick-correspondence": Suite(
        1e-10, _wick_correspondence_draw, _wick_correspondence, degree=lambda n: max(n, 4)
    ),
    "hermite": Suite(1e-12, findings=_hermite, shared=("q",)),
    "embedding": Suite(1e-12, _one_vector, _embedding, findings=_embedding_findings),
    "lemma53": Suite(
        1e-9,
        _lemma53_draw,
        _lemma53,
        findings=_constant(degrees=f"{LEMMA53_DEGREES[0]}..{LEMMA53_DEGREES[-1]}"),
        shared=("q", "dim"),
    ),
    "theorem43": Suite(1e-9, _two_vectors, pair=_theorem43_pair),
    "vage": Suite(1e-9, _two_vectors, pair=_vage_pair),
    "duality": Suite(1e-10, _two_vectors, _duality, findings=_duality_findings),
    "inverse": Suite(
        1e-12,
        _inverse_draw,
        _inverse,
        findings=_constant(exact_family="power of two times (+-vacuum + entries in {-1, 0, 1})"),
        degree=_inverse_degree,
    ),
    "series": Suite(
        1e-9,
        _one_vector,
        _series,
        findings=_constant(radius=SERIES_RADIUS, target_norm=SERIES_TARGET_NORM),
    ),
}
SUITE_NAMES = tuple(SUITES)
