"""Wick polynomials as tensor kernels, the Wick product, and vacuum moments.

A Wick polynomial is a dict {(m, k): kernel}: the bidegree (m, k) counts m
creator slots, then k annihilator slots, and the kernel has shape
batch + (d**m, d**k), each axis row-major over its slots as in fock.  The
word c a^+(c_1)..a^+(c_m) a^-(a_1)..a^-(a_k) is multilinear in its
arguments, so it adds c (c_1 (x) .. (x) c_m) (x) (a_1 (x) .. (x) a_k) at
(m, k).  An absent bidegree is zero; the identity is {(0, 0): [[1.0]]}.

The Wick product puts q^(k1*m2) K1 (x) K2 at (m1+m2, k1+k2), slots
C1 C2 | A1 A2: the creators of the right factor jump the annihilators of
the left.  Every product is elementwise, a row product (`np.vecdot`,
`np.vecmat`) or the stacked matmul of a kernel with a table in
`apply_to_fock`, so a batch gives each row bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fock import (
    GradedVector,
    QContext,
    as_one_particle,
    contract,
    slot_sum,
    tensor_product,
)
from .qcombinatorics import check_deformation, crossing_polynomial


def _dimension(phi) -> int:
    """d of phi, shape batch + (d,); a scalar or an empty vector has none."""
    if np.shape(phi)[-1:] in ((), (0,)):
        raise ValueError(f"one-particle vector must have an entry, got shape {np.shape(phi)}")
    return np.shape(phi)[-1]


def _put(p: dict, key: tuple[int, int], kernel: np.ndarray) -> None:
    p[key] = p[key] + kernel if key in p else kernel


def add_scaled(p: dict, r: dict, c) -> dict:
    """p + c r, bidegree by bidegree; c is a float or an array that
    broadcasts against the kernels (batch + (1, 1))."""
    out = dict(p)
    for key, kernel in r.items():
        _put(out, key, c * kernel)
    return out


def wick_mul_poly(p1: dict, p2: dict, q: float) -> dict:
    """Wick product: q^(k1*m2) K1 (x) K2 at (m1+m2, k1+k2), slots C1 C2 | A1 A2,
    as one broadcast elementwise product per pair of bidegrees."""
    q = float(q)
    out: dict = {}
    for (m1, k1), a in p1.items():
        for (m2, k2), b in p2.items():
            block = a[..., :, None, :, None] * b[..., None, :, None, :]
            shape = block.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])
            _put(out, (m1 + m2, k1 + k2), q ** (k1 * m2) * block.reshape(shape))
    return out


def field_mul(phi, p: dict, q: float) -> dict:
    """Ordinary operator product (a^+(phi) + a^-(phi)) P, normal-ordered.

    Each kernel K at (m, k) gives phi (x) K at (m+1, k) (creation), the
    contraction of phi with creator slot i weighted q^i at (m-1, k), and
    q^m K with phi as the first annihilator slot at (m, k+1).  phi has
    shape batch + (d,), its batch broadcasting against the kernels'.
    """
    phi = as_one_particle(phi, _dimension(phi))
    d = phi.shape[-1]
    out: dict = {}
    for (m, k), kernel in p.items():
        flat = kernel.reshape(kernel.shape[:-2] + (-1,))  # slots C | A as one tensor
        created = tensor_product(phi, flat)
        batch = created.shape[:-1]
        _put(out, (m + 1, k), created.reshape(batch + (d ** (m + 1), d**k)))
        if m:
            contracted = contract(phi, flat, m, q)
            _put(out, (m - 1, k), contracted.reshape(batch + (d ** (m - 1), d**k)))
        _put(out, (m, k + 1), q**m * tensor_product(phi[..., None, :], kernel))
    return out


def wick_monomial(vectors: Sequence, q: float) -> dict:
    """The degree-n orthogonal monomial in the field variables: the first
    entry of `wick_monomial_tails`."""
    return wick_monomial_tails(vectors, q)[0]


def wick_monomial_tails(vectors: Sequence, q: float) -> list[dict]:
    """The orthogonal monomials of every tail of vectors: entry k is the
    monomial of vectors[k:], the last one the identity, each with the batch
    shape of all the arguments.  They come from one run of the contraction
    recursion: multiply by the field of the first argument and subtract the
    monomials of the one-slot contractions of the tail, so each tail is
    built on the way to the whole list.

    In a single mode this reproduces the q-deformed Hermite three-term
    recurrence.  The arguments have shape batch + (d,) and are validated once;
    each sub-list of them the recursion reaches is built once per call, equal
    arguments counting as one (a sub-list is keyed by the first index of each
    of its arguments' values).  No arguments give the identity.
    """
    q = float(q)
    dim = _dimension(vectors[0]) if len(vectors) else 1
    vecs = [as_one_particle(v, dim) for v in vectors]
    batch = np.broadcast_shapes(*(v.shape[:-1] for v in vecs))
    first: dict = {}
    value_of = [first.setdefault((v.shape, v.tobytes()), i) for i, v in enumerate(vecs)]
    memo: dict[tuple[int, ...], dict] = {(): {(0, 0): np.ones(batch + (1, 1))}}

    def monomial(idx: tuple[int, ...]) -> dict:
        key = tuple(value_of[i] for i in idx)
        if key in memo:
            return memo[key]
        head, tail = idx[0], idx[1:]
        result = field_mul(vecs[head], monomial(tail), q)
        weight = 1.0
        for j, t in enumerate(tail):
            pairing = np.vecdot(vecs[head], vecs[t])[..., None, None]  # batch + (1, 1)
            result = add_scaled(result, monomial(tail[:j] + tail[j + 1 :]), -weight * pairing)
            weight *= q
        memo[key] = result
        return result

    return [monomial(tuple(range(k, len(vecs)))) for k in range(len(vecs) + 1)]


# ---------------------------------------------------------------------------
# Action on the truncated Fock space
# ---------------------------------------------------------------------------


def apply_to_fock(p: dict, f: GradedVector) -> GradedVector:
    """P as an operator on f (ordinary products, no Wick factor): a word's
    annihilators act first, then its creators, and what lands above the
    truncation is dropped, as `create` drops it.  tables[k][n] holds
    a^-(e_(a_1))..a^-(e_(a_k)) f_n for every basis index tuple A as rows,
    shape batch + (d**k, d**(n-k)); the kernel at (m, k) times it is the
    result at degree m + n - k."""
    ctx, d = f.ctx, f.ctx.dim
    tables = [{n: arr[..., None, :] for n, arr in f.components.items()}]
    for k in range(max((k for _, k in p), default=0)):
        tables.append({})
        for n, table in tables[k].items():
            if n > k:
                moved = slot_sum(table, n - k, d, ctx.q)  # front-slot row j is a^-(e_j)
                rows = np.moveaxis(moved.reshape(moved.shape[:-1] + (d, -1)), -2, -3)
                tables[k + 1][n] = rows.reshape(rows.shape[:-3] + (-1, rows.shape[-1]))
    comps: dict = {}
    for (m, k), kernel in p.items():
        for n, table in tables[k].items():
            if m + n - k <= ctx.max_degree:
                out = kernel @ table
                _put(comps, m + n - k, out.reshape(out.shape[:-2] + (-1,)))
    return GradedVector._of(ctx, dict(sorted(comps.items())))


def vacuum_vector(p: dict, ctx: QContext) -> GradedVector:
    """P applied to the vacuum: a^-(g) annihilates it, so degree m is the
    (m, 0) kernel.  Every kernel must still create within N and have the
    shape of its bidegree at dimension d."""
    comps = {}
    for (m, k), kernel in sorted(p.items()):
        if m > ctx.max_degree:
            raise ValueError(
                f"truncation overflow: a word creates degree {m} but max_degree is {ctx.max_degree}"
            )
        if kernel.shape[-2:] != (ctx.dim**m, ctx.dim**k):
            raise ValueError(f"one-particle vector must have length {ctx.dim}: kernel {(m, k)}")
        if k == 0:
            comps[m] = kernel[..., 0].copy()
    return GradedVector._of(ctx, comps)


# Highest order `compute moments` accepts: the Jacobi-matrix test certifies
# the oracle's exact evaluation up to here.
MAX_MOMENT_ORDER = 40


def _moment_args(phi, top: int, q: float) -> tuple[np.ndarray, float]:
    if top < 0:
        raise ValueError("moment order must be nonnegative")
    return as_one_particle(phi, _dimension(phi)), check_deformation(q)


def moments(phi, top: int, q: float) -> np.ndarray:
    """Vacuum moments of orders 0..top of the field operator of phi (shape
    batch + (d,)), shape (top + 1,) + batch: one walk of the vacuum, top
    steps under creation plus annihilation by phi on per-degree arrays, read
    at degree 0 after each step.  A component that can no longer return to
    degree 0 by step top is dropped, which leaves every earlier readout bit
    for bit as a walk of its own length would give it, and bounds the walk
    at degree top // 2."""
    phi, q = _moment_args(phi, top, q)
    batch = phi.shape[:-1]
    out = np.zeros((top + 1,) + batch)
    out[0] = 1.0
    walk = {0: np.ones(batch + (1,))}  # degree -> component of the vacuum walked so far
    for step in range(1, top + 1):
        nxt: dict[int, np.ndarray] = {}
        for n, arr in walk.items():
            if n < top - step:  # higher degrees cannot return to 0
                nxt[n + 1] = tensor_product(phi, arr) + nxt.get(n + 1, 0.0)
            if n:
                nxt[n - 1] = contract(phi, arr, n, q) + nxt.get(n - 1, 0.0)
        walk = nxt
        if 0 in walk:
            out[step] = walk[0][..., 0]
    return out


def pairing_moments(phi, top: int, q: float) -> np.ndarray:
    """The oracle of `moments`, sharing no code with its walk: ||phi||^k times
    the crossing polynomial of pair partitions of k points evaluated at q,
    zero for odd k.  The integer polynomial is evaluated exactly at the
    rational value of the double q, once per order, and rounded once, since
    the float sum cancels for q < 0 at high order."""
    phi, q = _moment_args(phi, top, q)
    norm_sq = np.vecdot(phi, phi).reshape(-1).tolist()
    num, den = q.as_integer_ratio()
    out = np.zeros((top + 1, len(norm_sq)))
    for k in range(0, top + 1, 2):
        coeffs = crossing_polynomial(k // 2)
        top_power = len(coeffs) - 1
        exact = sum(c * num**j * den ** (top_power - j) for j, c in enumerate(coeffs))
        polynomial = exact / den**top_power
        # numpy's power gives inf where a float's raises OverflowError; a
        # scalar power per row, since an array power may round otherwise
        out[k] = [float(np.float64(x) ** (k // 2) * polynomial) for x in norm_sq]
    return out.reshape((top + 1,) + phi.shape[:-1])


def moment(phi, k: int, q: float):
    """k-th vacuum moment of the field operator of phi: the last entry of
    `moments(phi, k, q)`.  To read several orders of one phi, call `moments`
    once: it walks the vacuum once."""
    return moments(phi, k, q)[k]
