"""Correctness gate for the benchmark's outputs.

Every compute output is checked against a reference computed here, in code
that shares nothing with qwick: graded products from np.outer, the tensor
exponential as a finite nilpotent sum, the symmetrizer as the literal sum over
permutations, and vacuum moments from the single-mode Jacobi matrix.  Verify
reports are checked for exit status, "pass" and trial counts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np

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
MACMAHON_PAIRS = 45  # (m, n) with m + n <= 8
HERMITE_DEGREES = 7

MOMENT_DIM = 3
MOMENT_ORDER = 12
NORM_CALLS = {
    "norm-dual": {"side": "dual", "r": 2.0, "alpha": 2.0, "weights": "none"},
    "norm-test": {"side": "test", "r": 1.0, "alpha": 2.0, "weights": "default"},
}

# Entrywise tolerances, relative to the sum of absolute values of the terms
# that make up each entry, so rounding in any summation order passes and a
# changed term does not.
MUL_TOL = 1e-12
INV_TOL = 1e-10
EXP_TOL = 1e-10
# relative tolerances of scalar results; 1e-9 is the moments suite's own
NORM_TOL = 1e-9
MOMENT_TOL = 1e-9


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def components(vec: dict) -> dict[int, np.ndarray]:
    return {int(n): np.asarray(a, dtype=float) for n, a in vec["components"].items()}


def q_factorial(n: int, q: float) -> float:
    out = 1.0
    for k in range(1, n + 1):
        out *= sum(q**j for j in range(k))
    return out


def _inversion_count(p: tuple[int, ...]) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(p)), 2) if p[i] > p[j])


def symmetrize(t: np.ndarray, n: int, dim: int, q: float) -> np.ndarray:
    """The degree-n symmetrizer as its definition: the q^inversions-weighted
    sum over all rearrangements of the tensor slots."""
    if n <= 1:
        return t.copy()
    cube = t.reshape((dim,) * n)
    out = np.zeros_like(cube)
    for p in itertools.permutations(range(n)):
        out += q ** _inversion_count(p) * cube.transpose(p)
    return out.reshape(-1)


def _weight_tensor(weights: np.ndarray, n: int) -> np.ndarray:
    out = np.ones(1)
    for _ in range(n):
        out = np.outer(out, weights).ravel()
    return out


def norm_dual_side(comps, q: float, dim: int, r: float, alpha: float) -> float:
    total = 0.0
    for n, t in comps.items():
        sym = symmetrize(t, n, dim, q)
        total += float(sym @ sym) / (r**n * q_factorial(n, abs(q)) ** alpha)
    return math.sqrt(total)


def norm_test_side(comps, q: float, r: float, alpha: float, weights: np.ndarray) -> float:
    total = 0.0
    for n, t in comps.items():
        total += float(np.sum(t * t * _weight_tensor(weights, n))) * r**n * q_factorial(n, abs(q)) ** alpha
    return math.sqrt(total)


def graded_product(f, g, max_degree: int) -> dict[int, np.ndarray]:
    out: dict[int, np.ndarray] = {}
    for i in sorted(f):
        for j in sorted(g):
            if i + j <= max_degree:
                block = np.outer(f[i], g[j]).ravel()
                out[i + j] = out[i + j] + block if i + j in out else block
    return out


def _abs(f):
    return {n: np.abs(a) for n, a in f.items()}


def nilpotent_exp(f, max_degree: int) -> dict[int, np.ndarray]:
    """exp(f) = e^a * sum_{k <= N} (f - a Omega)^k / k!, exact on the
    truncation because f - a Omega has no vacuum part."""
    a = float(f[0][0]) if 0 in f else 0.0
    defect = {n: arr for n, arr in f.items() if n >= 1}
    total = {0: np.ones(1)}
    power = {0: np.ones(1)}
    for k in range(1, max_degree + 1):
        power = graded_product(power, defect, max_degree)
        for n, arr in power.items():
            term = arr / math.factorial(k)
            total[n] = total[n] + term if n in total else term
    return {n: math.exp(a) * arr for n, arr in total.items()}


def jacobi_moment(phi: np.ndarray, k: int, q: float) -> float:
    """Vacuum moment of the field of phi from the single-mode Jacobi matrix
    with off-diagonal sqrt([j]_q) * |phi|."""
    size = k // 2 + 1
    jac = np.zeros((size, size))
    for j in range(1, size):
        off = math.sqrt(sum(q**i for i in range(j))) * float(np.linalg.norm(phi))
        jac[j - 1, j] = jac[j, j - 1] = off
    vec = np.zeros(size)
    vec[0] = 1.0
    for _ in range(k):
        vec = jac @ vec
    return float(vec[0])


def _entrywise_gap(got, want, scale, tol: float) -> str | None:
    """None when got matches want within tol * scale in every entry."""
    for n in sorted(set(got) | set(want)):
        size = len(want[n]) if n in want else len(got[n])
        g = got.get(n, np.zeros(size))
        w = want.get(n, np.zeros(size))
        s = scale.get(n, np.zeros(size))
        if g.shape != w.shape:
            return f"degree {n}: shape {g.shape} != {w.shape}"
        bad = np.abs(g - w) > tol * s
        if np.any(bad):
            i = int(np.argmax(bad))
            return f"degree {n} entry {i}: {float(g[i])!r} != {float(w[i])!r}"
    return None


def _same_context(out: dict, vec: dict) -> str | None:
    for key in ("q", "dim", "max_degree"):
        if out.get(key) != vec[key]:
            return f"{key} {out.get(key)!r} != {vec[key]!r}"
    return None


def check_compute(op: str, output: bytes, inputs: dict) -> str | None:
    """None when the output of compute operation `op` is correct, else why not."""
    try:
        return _check_compute(op, json.loads(output), inputs)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"malformed output: {exc!r}"


def _check_compute(op: str, data: dict, inputs: dict) -> str | None:
    left = inputs["left.json"]
    if op in ("wick-mul", "wick-inv", "wick-exp"):
        vec = inputs["expin.json"] if op == "wick-exp" else left
        wrong = _same_context(data, vec)
        if wrong:
            return wrong
        got = components(data)
        f = components(vec)
        n_max = vec["max_degree"]
        if op == "wick-mul":
            g = components(inputs["right.json"])
            want = graded_product(f, g, n_max)
            return _entrywise_gap(got, want, graded_product(_abs(f), _abs(g), n_max), MUL_TOL)
        if op == "wick-inv":
            product = graded_product(f, got, n_max)
            scale = graded_product(_abs(f), _abs(got), n_max)
            return _entrywise_gap(product, {0: np.ones(1)}, scale, INV_TOL)
        want = nilpotent_exp(f, n_max)
        scale = nilpotent_exp(_abs(f), n_max)
        return _entrywise_gap(got, want, scale, EXP_TOL)
    if op in NORM_CALLS:
        spec = NORM_CALLS[op]
        for key, value in spec.items():
            if data[key] != value:
                return f"{key} {data[key]!r} != {value!r}"
        f = components(left)
        if spec["side"] == "dual":
            want = norm_dual_side(f, left["q"], left["dim"], spec["r"], spec["alpha"])
        else:
            weights = np.arange(1, left["dim"] + 1, dtype=float)
            want = norm_test_side(f, left["q"], spec["r"], spec["alpha"], weights)
        if not abs(data["norm"] - want) <= NORM_TOL * want:
            return f"norm {data['norm']!r} != reference {want!r}"
        return None
    if op == "moments":
        phi = np.asarray(inputs["phi.json"], dtype=float)
        rows = data["moments"]
        if [row["k"] for row in rows] != list(range(MOMENT_ORDER + 1)):
            return f"moment rows are not k = 0..{MOMENT_ORDER}"
        scale = max(1.0, float(np.linalg.norm(phi)))
        for row in rows:
            k, value = row["k"], row["value"]
            if k % 2:
                if not abs(value) <= MOMENT_TOL * scale**k:
                    return f"odd moment {k} = {value!r}"
                continue
            if not row["residual"] <= MOMENT_TOL * abs(row["oracle"]):
                return f"moment {k}: residual {row['residual']!r} against oracle"
            want = jacobi_moment(phi, k, left["q"])
            if not abs(value - want) <= MOMENT_TOL * abs(want):
                return f"moment {k}: {value!r} != Jacobi reference {want!r}"
        return None
    raise ValueError(f"unknown compute operation {op!r}")


def check_recorded_norm(output: bytes, recorded: float) -> str | None:
    """None when a norm output agrees with the value in reference.json."""
    value = json.loads(output)["norm"]
    if not abs(value - recorded) <= NORM_TOL * abs(recorded):
        return f"norm {value!r} != recorded {recorded!r}"
    return None


def expected_trials(name: str, trials: int, dim: int, max_degree: int) -> int:
    if name == "positivity":
        return sum(1 for n in range(max_degree + 1) if dim**n <= 4096 and n <= 8)
    if name == "macmahon":
        return MACMAHON_PAIRS
    if name == "hermite":
        return HERMITE_DEGREES
    return trials


def split_reports(output: bytes) -> list[dict]:
    """The suite reports in a `verify --suite all` output; none if unreadable."""
    try:
        data = json.loads(output)
    except ValueError:
        return []
    return [r for r in data if isinstance(r, dict) and "suite" in r] if isinstance(data, list) else []


def report_digest(report: dict) -> str:
    return digest(json.dumps(report, indent=2, sort_keys=True).encode())


def check_report(report: dict | None, name: str, trials: int, dim: int, max_degree: int) -> str | None:
    """None when the suite report for `name` passed with the requested trials."""
    if report is None:
        return "no report"
    if report.get("suite") != name:
        return f"report for {report.get('suite')!r} where {name!r} was expected"
    if report.get("pass") is not True:
        return f"pass is {report.get('pass')!r}"
    want = expected_trials(name, trials, dim, max_degree)
    if report.get("trials") != want:
        return f"trials {report.get('trials')!r} != {want}"
    return None
