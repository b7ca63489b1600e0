"""Truncated q-deformed Fock space over R^d.

A degree-n tensor is a flat float array of length d**n in row-major
multi-index encoding: the entry for (i_1, ..., i_n), i_k in 0..d-1, lives at
index sum_k i_k * d**(n-1-k).  A graded vector is a finite family of such
tensors for degrees 0..N; degree N is the truncation: creation drops the
component that would land at degree N + 1.

The twisted scalar product on degree n is (P f, g) where P is the
inversion-weighted sum of permutation actions on tensor factors.  One-particle
vectors are plain length-d arrays.

Creation is `tensor_product`; annihilation and P are both `slot_sum`, the
q-weighted slot move R_n, as P_n = (1 (x) P_(n-1)) R_n and a^-(phi) = phi on
the front slot of R_n.  Each acts on the last axis of an array whose leading
axes are a batch.  The functions built on them take the same batch: a
GradedVector's components may have shape batch + (d**n,) (`GradedVector._flat`
cuts a block of rows so), a one-particle argument shape batch + (d,), and a
scalar result then has the batch shape.  A batched call computes row i bit
for bit as the unbatched call on row i would: row products are
`np.vecdot`/`np.vecmat`; everything else is elementwise.  Those gufuncs sum
each row as the 1-D product does, where a plain gemm, einsum or sum may sum
in another order.  An unbatched call is the batch-shape-() case and returns
a float.

The q-commutation relation is create and annihilate composed on a vector
(`commutation_residual`), with no matrix of its own; basis vectors and a
degree's identity columns as the batch give the relation's blocks, and the
dense operator matrices are the two on the truncated space's identity.

Vectors are validated where they enter, and a GradedVector's components are
finite and read-only (sealed); see GradedVector for the one seal rule.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

import numpy as np

from .qcombinatorics import PERMUTATION_CAP, check_deformation

EIGENSOLVER_CAP = 4096  # largest d**n for dense spectral probes
# largest d**n for which apply_pq memoizes the dense P: below it a cached
# matvec beats the kernel, above it the kernel wins and skips the matrix
MATRIX_CACHE_CAP = 512


class QContext(namedtuple("QContext", "q dim max_degree")):
    """Deformation parameter, one-particle dimension, truncation degree.

    An immutable value: equal and equally hashed exactly when its three
    fields are equal."""

    __slots__ = ()

    def __new__(cls, q: float, dim: int, max_degree: int):
        check_deformation(q)
        if dim < 1:
            raise ValueError(f"context requires dim >= 1, got {dim}")
        if max_degree < 0:
            raise ValueError(f"context requires max_degree >= 0, got {max_degree}")
        return super().__new__(cls, q, dim, max_degree)


_JSON_TYPES = {
    int: ("an integer", int),
    float: ("a number", (int, float)),
    list: ("a list", list),
    dict: ("an object", dict),
}


def unique_keys(pairs: list) -> dict:
    """object_pairs_hook for json.load: the object as a dict, or a
    ValueError when a key repeats, since json keeps the last value silently."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"JSON object repeats the key {key!r}")
        data[key] = value
    return data


def _is_double(x) -> bool:
    """Whether float(x) works: a JSON integer literal can exceed a double."""
    try:
        float(x)
    except OverflowError:
        return False
    return True


def json_value(value, kind: type, what: str):
    """value when it has the JSON type kind (int, float for any number within
    double range, list or dict; a bool is not a number), else a ValueError
    naming what."""
    name, types = _JSON_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{what} must be {name}, got {type(value).__name__}")
    if kind is float and not _is_double(value):
        raise ValueError(f"{what} must be a number within double range")
    return value


def json_numbers(value, what: str) -> list:
    """value when it is a flat JSON list of numbers within double range (a
    bool is not one), else a ValueError naming what; one pass over the
    entries' types, and one over the entries when some are integers."""
    types = set(map(type, json_value(value, list, what)))
    odd = types - {int, float}
    if odd:
        names = ", ".join(sorted(t.__name__ for t in odd))
        raise ValueError(f"{what} entries must be numbers, got {names}")
    if int in types and not all(map(_is_double, value)):
        raise ValueError(f"{what} entries must be numbers within double range")
    return value


def batch_value(x):
    """A batch-shape-() result as a Python float; a batched one stays an array."""
    return float(x) if np.ndim(x) == 0 else x


def as_one_particle(phi, dim: int) -> np.ndarray:
    """phi as a float array of shape batch + (dim,)."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape[-1:] != (dim,):
        raise ValueError(f"one-particle vector must have length {dim}, got {phi.shape}")
    if not np.isfinite(phi).all():
        raise ValueError("one-particle vector entries must be finite")
    return phi


def basis_vector(dim: int, i: int) -> np.ndarray:
    e = np.zeros(dim)
    e[i] = 1.0
    return e


def tensor_product(a, b) -> np.ndarray:
    """Row-major a (x) b over the last axis; leading axes are a batch and
    broadcast.  For flat inputs this is the entrywise product of all pairs."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = a[..., :, None] * b[..., None, :]
    return out.reshape(out.shape[:-2] + (-1,))


def elementary_tensor(vectors) -> np.ndarray:
    """f_1 (x) ... (x) f_n as a flat row-major array; the empty product is (1,)."""
    out = np.ones(1)
    for v in vectors:
        out = tensor_product(out, v)
    return out


def _seal(comps: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """comps, its writeable arrays tested and marked read-only in place, or
    a ValueError naming the first degree with an entry that is not finite.
    A read-only array is sealed already (see GradedVector)."""
    for n, arr in comps.items():
        if arr.flags.writeable:
            if not np.isfinite(arr).all():
                raise ValueError(f"degree-{n} component entries must be finite")
            arr.flags.writeable = False
    return comps


class GradedVector:
    """A degree-indexed family of dense tensors; absent degrees are zero.

    `ctx` is the QContext and `components` maps each present degree to its
    flat tensor.  The attributes are read-only, and two vectors are equal
    only when they are the same object.

    Every component is finite and read-only (sealed), under one rule: an
    array is sealed exactly when it is read-only, and qwick marks one so
    only once its entries are known to be finite.  So `_seal` tests fresh
    arrays and passes sealed ones through; the public constructor (JSON
    files, the CLI) copies its input, so it checks every entry."""

    __slots__ = ("ctx", "components")

    def __init__(self, ctx: QContext, components: dict | None = None):
        clean: dict[int, np.ndarray] = {}
        for n, comp in (components or {}).items():
            n = int(n)
            if not 0 <= n <= ctx.max_degree:
                raise ValueError(f"degree {n} outside truncation 0..{ctx.max_degree}")
            clean[n] = np.array(comp, dtype=float).reshape(-1)
            if clean[n].shape != (ctx.dim**n,):
                raise ValueError(f"degree-{n} component must have length {ctx.dim ** n}")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "components", _seal(clean))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a GradedVector")

    __delattr__ = __setattr__

    @classmethod
    def _of(cls, ctx: QContext, comps: dict[int, np.ndarray]) -> "GradedVector":
        """A kernel result: comps maps int degrees to flat float arrays of the
        right lengths that nothing else writes (fresh arrays or slices of
        one, or another vector's components).  They are sealed but neither
        copied nor reshaped, so an overflow still raises."""
        vec = object.__new__(cls)
        object.__setattr__(vec, "ctx", ctx)
        object.__setattr__(vec, "components", _seal(comps))
        return vec

    @classmethod
    def vacuum(cls, ctx: QContext) -> "GradedVector":
        return cls._of(ctx, {0: np.ones(1)})

    @classmethod
    def zero(cls, ctx: QContext) -> "GradedVector":
        return cls._of(ctx, {})

    @classmethod
    def _flat(cls, ctx: QContext, flat: np.ndarray, degrees) -> "GradedVector":
        """flat cut along its last axis into `degrees`, in that order; leading
        axes are a batch.  One finiteness test covers it.  Each degree gets
        one contiguous copy, since a strided slice of a batch could be summed
        in another order than a row alone is; the copies are marked read-only
        when the test passed.  Otherwise they stay writeable, and `_seal`
        names the first degree with a bad entry."""
        finite = bool(np.isfinite(flat).all())
        comps, start = {}, 0
        for n in degrees:
            comps[n] = flat[..., start : start + ctx.dim**n].copy()
            if finite:
                comps[n].flags.writeable = False
            start += ctx.dim**n
        return cls._of(ctx, comps)

    def component(self, n: int) -> np.ndarray:
        if n in self.components:
            return self.components[n]
        return np.zeros(self.ctx.dim**n)

    def __add__(self, other: "GradedVector") -> "GradedVector":
        require_same_context(self, other)
        comps = dict(self.components)
        for n, arr in other.components.items():
            comps[n] = comps[n] + arr if n in comps else arr
        return GradedVector._of(self.ctx, comps)

    def __sub__(self, other: "GradedVector") -> "GradedVector":
        return self + other.scale(-1.0)

    def scale(self, c) -> "GradedVector":
        """Multiply by c, a float or one factor per row of the batch."""
        c = np.asarray(c, dtype=float)
        if c.ndim:
            c = c[..., None]
        return GradedVector._of(self.ctx, {n: c * arr for n, arr in self.components.items()})

    def euclidean_norm(self):
        """Per row of the batch."""
        total = 0.0
        for arr in self.components.values():
            total = total + np.vecdot(arr, arr)
        return batch_value(np.sqrt(total))

    def max_abs(self):
        """Largest entry magnitude, per row of the batch."""
        top = 0.0
        for arr in self.components.values():
            top = np.maximum(top, np.max(np.abs(arr), axis=-1))
        return batch_value(top)

    # -- JSON wire format: {"q","dim","max_degree","components":{"0":[...],...}} --

    def to_json_dict(self) -> dict:
        return {
            "q": self.ctx.q,
            "dim": self.ctx.dim,
            "max_degree": self.ctx.max_degree,
            "components": {str(n): arr.tolist() for n, arr in self.components.items()},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GradedVector":
        data = json_value(data, dict, "vector file")
        if missing := [k for k in ("q", "dim", "max_degree", "components") if k not in data]:
            raise ValueError(f"vector file has no {missing[0]!r} key")
        ctx = QContext(
            json_value(data["q"], float, "vector q"),
            json_value(data["dim"], int, "vector dim"),
            json_value(data["max_degree"], int, "vector max_degree"),
        )
        comps = {}
        for key, arr in json_value(data["components"], dict, "vector components").items():
            # the decimal text of a degree, so no two keys name the same one
            if not (key.isascii() and key.isdigit() and str(int(key)) == key):
                raise ValueError(f"vector component key {key!r} must be a degree in decimal")
            comps[int(key)] = np.asarray(json_numbers(arr, f"vector component {key}"), dtype=float)
        return cls(ctx, comps)


def require_same_context(f: GradedVector, g: GradedVector) -> None:
    if f.ctx != g.ctx:
        raise ValueError(f"context mismatch: {f.ctx} vs {g.ctx}")


# ---------------------------------------------------------------------------
# The inversion-weighted symmetrizer P on degree-n tensors
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _perm_actions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All n! permutations of n tensor slots as the rows of one (n!, n)
    array, in `itertools.permutations` order, and their inversion counts.
    In that order the first slot holds each value v for a block of (n-1)!
    rows, v inversions each, and the other slots run through the
    permutations of n - 1 slots in the same order; so the counts of degree m
    are those of degree m - 1 tiled m times plus v repeated per block.  Both
    arrays are shared by every caller, which only reads them."""
    count = math.factorial(n)
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))), np.intp, count * n
    ).reshape(count, n)
    inv = np.zeros(1, dtype=np.intp)
    for m in range(2, n + 1):
        inv = np.repeat(np.arange(m), len(inv)) + np.tile(inv, m)
    return perms, inv


# permutations per add.at in pq_matrix: bounds its (chunk, d**n) index arrays
_PERM_CHUNK = 120


@functools.lru_cache(maxsize=None)
def pq_matrix(n: int, dim: int, q: float) -> np.ndarray:
    """Dense matrix of the degree-n symmetrizer by enumerating all n!
    permutations; memoized per (n, dim, q).  An independent oracle for the
    factorized kernel, capped at degree PERMUTATION_CAP (8) and at dimension
    d**n <= EIGENSOLVER_CAP (4096); both caps raise before any allocation.
    Chunk by chunk of `_perm_actions` rows, each permutation's flat gather
    index is built from its digit columns and its weight q**inversions is
    read from a table of Python float powers."""
    check_deformation(q)
    if n > PERMUTATION_CAP:
        raise ValueError(f"symmetrizer capped at degree {PERMUTATION_CAP}, got {n}")
    size = dim**n
    if size > EIGENSOLVER_CAP:
        raise ValueError(f"dense symmetrizer capped at dimension {EIGENSOLVER_CAP}")
    # digit k of every flat index, most significant first
    digits = np.empty((n, size), dtype=np.intp)
    idx = np.arange(size)
    for k in range(n):
        digits[k] = (idx // dim ** (n - 1 - k)) % dim
    mat = np.zeros((size, size))
    perms, inv = _perm_actions(n)
    powers = np.array([q**k for k in range(n * (n - 1) // 2 + 1)])
    for start in range(0, len(perms), _PERM_CHUNK):
        chunk = perms[start : start + _PERM_CHUNK]
        # row m: the flat column index that permutation m sends each row to
        gather = np.zeros((len(chunk), size), dtype=np.intp)
        for k in range(n):
            gather += digits[chunk[:, k]] * dim ** (n - 1 - k)
        weights = powers[inv[start : start + _PERM_CHUNK]]
        # add.at adds in index order, so each cell sums its weights in
        # permutation order, as one add per permutation would
        np.add.at(mat, (idx, gather), weights[:, None])
    mat.flags.writeable = False
    return mat


def slot_sum(t, n: int, dim: int, q: float) -> np.ndarray:
    """R_n t = sum over k < n of q^k t with slot k moved to the front
    (Bozejko and Speicher), on the first n slots of the last axis of t;
    leading axes are a batch, and the slots after the n-th pass through.
    The terms are added elementwise, one by one through one scratch buffer.
    Slot k moves as a swap of two axes, the d**k slots before it and slot k
    itself, so at most four axes are formed at any degree."""
    t = np.asarray(t, dtype=float)
    lead = t.shape[:-1]
    acc = t.copy()
    scratch = np.empty(t.shape)
    for k in range(1, n):
        moved = t.reshape(lead + (dim**k, dim, -1)).swapaxes(-3, -2)
        np.multiply(moved, q**k, out=scratch.reshape(lead + (dim, dim**k, -1)))
        acc += scratch
    return acc


def symmetrize(t, n: int, dim: int, q: float) -> np.ndarray:
    """The degree-n symmetrizer on the last axis of t (leading axes are a batch).

    Uses the factorization P_n = (1 (x) P_(n-1)) R_n, one slot_sum per level,
    so the cost is O(n^2 d^n) and there is no degree cap.  The batch runs on
    the trailing axis: one transposed copy in, every level's slot move passes
    the batch through as slot_sum's trailing slots (the untouched leading
    slots are its batch), and one transposed copy out.  So a small level still
    moves contiguous runs as long as the batch, and each entry takes the same
    operations in the same order as with the batch leading.  One row needs
    neither copy; the result is always a fresh C-ordered array.
    """
    t = np.asarray(t, dtype=float)
    if n <= 1:
        return t.copy()
    out = np.ascontiguousarray(t.reshape(-1, dim**n).T)
    for m in range(n, 1, -1):
        out = slot_sum(out.reshape(dim ** (n - m), -1), m, dim, q)
    return np.ascontiguousarray(out.reshape(dim**n, -1).T).reshape(t.shape)


def symmetrizer_matrix(n: int, dim: int, q: float) -> np.ndarray:
    """The degree-n symmetrizer as a dense (dim**n, dim**n) matrix, built by
    the kernel from identity columns.  Up to MATRIX_CACHE_CAP it is the
    memoized, read-only matrix apply_pq multiplies by; above, a fresh one
    that no cache keeps alive."""
    if dim**n <= MATRIX_CACHE_CAP:
        return _pq_cached(n, dim, q).T
    return symmetrize(np.eye(dim**n), n, dim, q).T


@functools.lru_cache(maxsize=None)
def _pq_cached(n: int, dim: int, q: float) -> np.ndarray:
    """The kernel on identity columns: row j is P e_j, so t @ mat is P t."""
    mat = symmetrize(np.eye(dim**n), n, dim, q)
    mat.flags.writeable = False
    return mat


def apply_pq(n: int, t, ctx: QContext) -> np.ndarray:
    """Apply the degree-n symmetrizer to the last axis of t (leading axes are
    a batch): sum over permutations of q^inversions times the corresponding
    rearrangement of tensor factors.

    Small degrees multiply by the memoized matrix derived from the kernel,
    larger ones run the factorized kernel directly; neither has a degree cap.
    """
    t = np.asarray(t, dtype=float)
    size = ctx.dim**n
    if t.shape[-1:] != (size,):
        raise ValueError(f"degree-{n} tensor must have length {size}")
    if size <= MATRIX_CACHE_CAP:
        return np.vecmat(t, _pq_cached(n, ctx.dim, ctx.q))
    return symmetrize(t, n, ctx.dim, ctx.q)


def q_inner(f: GradedVector, g: GradedVector):
    """Twisted scalar product: sum over degrees of (P f_n, g_n); zeros of
    the batch shape when f and g share no degree."""
    require_same_context(f, g)
    comps = (*f.components.values(), *g.components.values())
    total = np.zeros(np.broadcast_shapes(*(arr.shape[:-1] for arr in comps)))
    for n in sorted(set(f.components) & set(g.components)):
        sym = apply_pq(n, f.components[n], f.ctx)
        total = total + np.vecdot(sym, g.components[n])
    return batch_value(total)


def fock_norm(f: GradedVector):
    return batch_value(np.sqrt(np.maximum(q_inner(f, f), 0.0)))


# ---------------------------------------------------------------------------
# Creation and annihilation
# ---------------------------------------------------------------------------


def contract(phi, t, n: int, q: float) -> np.ndarray:
    """Annihilation kernel on the last axis of t (leading axes are a batch):
    phi contracted with the front slot of slot_sum, so slot i of the
    degree-n tensor meets phi with weight q^i.  phi has shape batch + (d,),
    its batch broadcasting against t's.  A tensor of higher degree is
    contracted in its first n slots only, and its remaining slots pass
    through."""
    d = phi.shape[-1]
    moved = slot_sum(t, n, d, q)
    return np.vecmat(phi, moved.reshape(moved.shape[:-1] + (d, -1)))


def create(phi, f: GradedVector) -> GradedVector:
    """Left tensor multiplication by phi; the top component falls off the
    truncation.  phi and f may carry a batch."""
    phi = as_one_particle(phi, f.ctx.dim)
    top = f.ctx.max_degree
    comps = {
        n + 1: tensor_product(phi, arr) for n, arr in f.components.items() if n + 1 <= top
    }
    return GradedVector._of(f.ctx, comps)


def annihilate(phi, f: GradedVector) -> GradedVector:
    """q-weighted contraction: slot i is contracted against phi with weight
    q^(i-1); degree 0 maps to zero.  phi and f may carry a batch."""
    phi = as_one_particle(phi, f.ctx.dim)
    comps = {
        n - 1: contract(phi, arr, n, f.ctx.q) for n, arr in f.components.items() if n > 0
    }
    return GradedVector._of(f.ctx, comps)


# ---------------------------------------------------------------------------
# Dense operator matrices on the truncated space
# ---------------------------------------------------------------------------


def _operator_matrix(ctx: QContext, operator) -> np.ndarray:
    """Dense matrix of a linear operator on the truncated space: operator
    applied to one degree's identity columns at a time, each degree of the
    image placed as the block at its rows and that degree's columns."""
    sizes = [ctx.dim**n for n in range(ctx.max_degree + 1)]
    if sum(sizes) > EIGENSOLVER_CAP:
        raise ValueError(f"truncated space dimension {sum(sizes)} exceeds cap {EIGENSOLVER_CAP}")
    starts = list(itertools.accumulate(sizes, initial=0))
    mat = np.zeros((starts[-1], starts[-1]))
    for m, size in enumerate(sizes):
        image = operator(GradedVector._of(ctx, {m: np.eye(size)})).components
        for n, block in image.items():
            mat[starts[n] : starts[n + 1], starts[m] : starts[m + 1]] = block.T
    return mat


def creation_matrix(phi, ctx: QContext) -> np.ndarray:
    return _operator_matrix(ctx, lambda f: create(phi, f))


def annihilation_matrix(phi, ctx: QContext) -> np.ndarray:
    return _operator_matrix(ctx, lambda f: annihilate(phi, f))


def commutation_residual(phi, psi, f: GradedVector, lowered: GradedVector | None = None):
    """||R f|| / max(1, ||f||), in the Euclidean norm, for the exchange residual

        R = a^-(phi) a^+(psi) - q a^+(psi) a^-(phi) - (phi, psi) Id,

    which swaps the operators and keeps the arguments.  phi, psi and f may
    carry a batch; a zero f gives 0.  R vanishes below the truncation, so for
    an f with no degree-N component the value is rounding.  R is bilinear in
    (phi, psi): a basis pair (e_i, e_j) with a degree's identity columns as f
    gives the column norms of a block that fixes R for every pair.
    `lowered`, when given, is annihilate(phi, f), which does not depend on
    psi, so one serves every psi; otherwise it is taken here.
    """
    phi = as_one_particle(phi, f.ctx.dim)
    psi = as_one_particle(psi, f.ctx.dim)
    if lowered is None:
        lowered = annihilate(phi, f)
    pairing = np.vecdot(phi, psi)
    exchanged = create(psi, lowered).scale(f.ctx.q)
    residual = annihilate(phi, create(psi, f)) - exchanged - f.scale(pairing)
    return batch_value(residual.euclidean_norm() / np.maximum(1.0, f.euclidean_norm()))


def pq_spectrum(n: int, ctx: QContext) -> tuple[float, float]:
    """Extreme eigenvalues of the degree-n symmetrizer (a symmetric matrix)."""
    size = ctx.dim**n
    if size > EIGENSOLVER_CAP:
        raise ValueError(f"eigensolver capped at dimension {EIGENSOLVER_CAP}, got {size}")
    eigs = np.linalg.eigvalsh(symmetrizer_matrix(n, ctx.dim, ctx.q))
    return float(eigs[0]), float(eigs[-1])
