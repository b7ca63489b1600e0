"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line so a plain `pytest -s
tests/test_acceptance.py` reads as a checklist.  Grids: q in
{-0.9, -0.5, 0, 0.3, 0.5, 0.9}, dimensions 1..3, truncation degree <= 6.
"""

import numpy as np
import pytest

from qwick.fock import (
    GradedVector,
    QContext,
    basis_vector,
    commutation_residual,
    pq_spectrum,
)
from qwick.qcombinatorics import macmahon_residual, q_factorial
from qwick.scales import graded_tensor, f_dual_norm
from qwick.series import SeriesSpec, certify_radius, wick_inverse
from qwick.suites import RunConfig, run_suite
from qwick.wick import moment

Q_GRID = (-0.9, -0.5, 0.0, 0.3, 0.5, 0.9)
DIMS = (1, 2, 3)


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")


def test_criterion_1_commutation():
    tolerance = 1e-12
    worst = 0.0
    trials = 0
    for q in Q_GRID:
        for dim in DIMS:
            ctx = QContext(q, dim, 4)
            for i in range(50):
                rng = np.random.default_rng([1, dim, i, abs(hash(q)) % 2**32])
                phi = rng.standard_normal(dim)
                psi = rng.standard_normal(dim)
                phi /= np.linalg.norm(phi)
                psi /= np.linalg.norm(psi)
                worst = max(worst, commutation_residual(phi, psi, ctx))
                trials += 1
    ok = worst <= tolerance
    _report(1, "commutation", ok, f"max residual {worst:.3e} <= 1e-12, {trials} trials")
    assert ok


def test_criterion_2_positivity():
    tolerance = 1e-10
    min_eigs = []
    norm_gap = 0.0
    exhibited = False
    for q in (-0.95, -0.5, 0.0, 0.5, 0.95):
        for dim in (1, 2):
            ctx = QContext(q, dim, 6)
            for n in range(7):
                lo, hi = pq_spectrum(n, ctx)
                min_eigs.append(lo)
                norm_gap = max(norm_gap, hi - q_factorial(n, abs(q)))
                if q < 0 and hi > q_factorial(n, q) + tolerance:
                    exhibited = True
    ok = min(min_eigs) > 0.0 and norm_gap <= tolerance and exhibited
    _report(
        2,
        "positivity",
        ok,
        f"min eig {min(min_eigs):.3e} > 0, max-eig excess {norm_gap:.3e} <= 1e-10, "
        f"negative-q norm exceeds plain weights: {exhibited}",
    )
    assert ok


def test_criterion_3_macmahon():
    tolerance = 1e-12
    worst = 0.0
    for q in Q_GRID:
        for m in range(0, 9):
            for n in range(0, 9 - m):
                worst = max(worst, macmahon_residual(m, n, q))
    ok = worst <= tolerance
    _report(3, "macmahon", ok, f"max residual {worst:.3e} <= 1e-12, all m+n <= 8")
    assert ok


def test_criterion_4_moments():
    tolerance = 1e-9
    worst = 0.0
    for q in Q_GRID:
        for dim in DIMS:
            ctx = QContext(q, dim, 5)
            for i in range(3):
                rng = np.random.default_rng([4, dim, i])
                phi = rng.standard_normal(dim)
                for k in (0, 2, 4, 6, 8, 10):
                    rep = moment(phi, k, ctx)
                    worst = max(worst, rep.residual / abs(rep.oracle_value))
    # frozen low-order values
    e = basis_vector(2, 0)
    catalan_ok = all(
        moment(e, 2 * n, QContext(0.0, 2, 5)).value == pytest.approx(c, abs=1e-12)
        for n, c in ((1, 1.0), (2, 2.0), (3, 5.0), (4, 14.0))
    )
    formula_ok = True
    for q in Q_GRID:
        ctx = QContext(q, 2, 3)
        rng = np.random.default_rng(44)
        phi = rng.standard_normal(2)
        nrm2 = float(phi @ phi)
        m4 = moment(phi, 4, ctx).value
        m6 = moment(phi, 6, ctx).value
        formula_ok &= abs(m4 - (2 + q) * nrm2**2) <= 1e-9 * abs(m4)
        formula_ok &= abs(m6 - (5 + 6 * q + 3 * q**2 + q**3) * nrm2**3) <= 1e-9 * abs(m6)
    ok = worst <= tolerance and catalan_ok and formula_ok
    _report(
        4,
        "moments",
        ok,
        f"max relative residual {worst:.3e} <= 1e-9; Catalan at q=0: {catalan_ok}; "
        f"order-4/6 formulas: {formula_ok}",
    )
    assert ok


def test_criterion_5_wick_correspondence():
    tolerance = 1e-10
    worst = 0.0
    trials = 0
    for q in Q_GRID:
        report = run_suite("wick-correspondence", RunConfig(q=q, trials=34, max_degree=6))
        worst = max(worst, report.max_residual)
        trials += report.trials
        if not report.passed:
            break
    ok = worst <= tolerance and trials >= 200
    _report(
        5,
        "wick-correspondence",
        ok,
        f"max residual {worst:.3e} <= 1e-10 over {trials} random polynomial pairs",
    )
    assert ok


def test_criterion_6_hermite():
    exact_ok = True
    for q in (-0.5, 0.0, 0.25, 0.5):  # dyadic: float arithmetic is exact
        report = run_suite("hermite", RunConfig(q=q, trials=1))
        exact_ok &= report.max_residual == 0.0
    grid_worst = 0.0
    classical_worst = 0.0
    for q in Q_GRID:
        report = run_suite("hermite", RunConfig(q=q, trials=1))
        grid_worst = max(grid_worst, report.max_residual)
        classical_worst = max(
            classical_worst, report.params["classical_limit_max_relative_error"]
        )
    ok = exact_ok and grid_worst <= 1e-12 and classical_worst <= 1e-4
    _report(
        6,
        "hermite",
        ok,
        f"recurrence exact on dyadic q: {exact_ok}; grid residual {grid_worst:.3e} <= 1e-12; "
        f"classical-limit relative error {classical_worst:.3e} <= 1e-4",
    )
    assert ok


def test_criterion_7_inequalities():
    per_q = 167  # 6 grid points x 167 >= 1000 trials per statement
    statements = ("lemma53", "theorem43", "embedding", "duality", "vage")
    all_ok = True
    details = []
    for name in statements:
        violations = 0
        trials = 0
        max_ratio, bound = None, None
        for q in Q_GRID:
            report = run_suite(name, RunConfig(q=q, trials=per_q, max_degree=5))
            violations += len(report.violations)
            trials += report.trials
            if report.max_ratio is not None and (
                max_ratio is None or report.max_ratio > max_ratio
            ):
                max_ratio, bound = report.max_ratio, report.bound
        ok = violations == 0 and trials >= 1000
        all_ok &= ok
        if max_ratio is not None:
            details.append(f"{name}: 0/{trials} violations, max ratio {max_ratio:.6f} <= bound {bound:.6f}")
        else:
            details.append(f"{name}: 0/{trials} violations")
    _report(7, "inequalities", all_ok, "; ".join(details))
    assert all_ok


def test_criterion_8_wick_series():
    # inverse identity, exactly, on 100 random vectors with nonzero vacuum part
    exact = True
    count = 0
    for q in (-0.9, 0.0, 0.5):
        ctx = QContext(q, 2, 6)
        vac = GradedVector.vacuum(ctx)
        for i in range(34):
            rng = np.random.default_rng([8, i, int(q * 10) + 10])
            comps = {
                n: rng.integers(-16, 17, size=2**n).astype(float) / 8.0
                for n in range(ctx.max_degree + 1)
            }
            comps[0] = np.array(
                [float((-1.0) ** rng.integers(0, 2)) * 2.0 ** float(rng.integers(-2, 3))]
            )
            f = GradedVector(ctx, comps)
            exact &= (graded_tensor(f, wick_inverse(f)) - vac).max_abs() == 0.0
            count += 1

    # certification at radius 1, target norm 0.5, and geometric decay
    ctx = QContext(0.5, 2, 6)
    rng = np.random.default_rng(88)
    f = GradedVector.random(ctx, rng)
    f = f.scale(0.5 / f_dual_norm(f, 1.0, 2.0))
    cert = certify_radius(f, SeriesSpec((1.0,) * 30, 1.0), 1.0)
    cert_ok = (
        cert.contraction < 1.0
        and cert.r > cert.s / (1.0 - (cert.norm_s / 1.0) ** 2)
    )
    decay_ok = True
    power = GradedVector.vacuum(ctx)
    for n in range(1, 9):
        power = graded_tensor(power, f)
        decay_ok &= f_dual_norm(power, cert.r, 2.0) <= cert.contraction**n * (1 + 1e-12)

    ok = exact and cert_ok and decay_ok
    _report(
        8,
        "wick-series",
        ok,
        f"inverse exact on {count} random vectors: {exact}; certificate r={cert.r}, "
        f"contraction={cert.contraction:.6f} < 1: {cert_ok}; geometric decay: {decay_ok}",
    )
    assert ok
