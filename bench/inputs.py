"""Seeded inputs for the compute-cold workload.

The program sees only the files written here; the seed never reaches it.
Every vector lives at q = 0.5, d = 4, N = 7, which gives 21845 entries (about
450 KB of JSON) per vector.
"""

from __future__ import annotations

import math

import numpy as np

import gate

Q = 0.5
DIM = 4
MAX_DEGREE = 7
# wick-exp picks its term count from the dual norm at s = 1; pinning that norm
# makes the amount of work independent of the seed
EXP_DUAL_NORM = 0.5

def _random_components(rng: np.random.Generator, dim: int, max_degree: int) -> dict[int, np.ndarray]:
    """Standard-normal entries in every degree; the vacuum part keeps at least
    unit size so the vector is safely invertible."""
    comps = {n: rng.standard_normal(dim**n) for n in range(max_degree + 1)}
    z = float(rng.standard_normal())
    comps[0] = np.array([math.copysign(1.0 + abs(z), z)])
    return comps


def make_compute_inputs(seed: int, dim: int = DIM, max_degree: int = MAX_DEGREE) -> dict[str, object]:
    """The compute-cold inputs for one seed, as JSON-ready objects keyed by
    file name."""
    rng = np.random.default_rng([seed, 0x7177])
    left = _random_components(rng, dim, max_degree)
    right = _random_components(rng, dim, max_degree)
    exp_in = _random_components(rng, dim, max_degree)
    norm = gate.norm_dual_side(exp_in, Q, dim, r=1.0, alpha=2.0)
    exp_in = {n: arr * (EXP_DUAL_NORM / norm) for n, arr in exp_in.items()}
    phi = rng.standard_normal(gate.MOMENT_DIM)

    def vector(comps):
        return {
            "q": Q,
            "dim": dim,
            "max_degree": max_degree,
            "components": {str(n): comps[n].tolist() for n in sorted(comps)},
        }

    return {
        "left.json": vector(left),
        "right.json": vector(right),
        "expin.json": vector(exp_in),
        "phi.json": phi.tolist(),
    }

