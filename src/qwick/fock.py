"""Truncated q-deformed Fock space over R^d.

A degree-n tensor is a flat float array of length d**n in row-major
multi-index encoding: the entry for (i_1, ..., i_n), i_k in 0..d-1, lives at
index sum_k i_k * d**(n-1-k).  A graded vector is a finite family of such
tensors for degrees 0..N; degree N is the truncation: creation drops the
component that would land at degree N + 1.

The twisted scalar product on degree n is (P f, g) where P is the
inversion-weighted sum of permutation actions on tensor factors.  One-particle
vectors are plain length-d arrays.

Creation, annihilation and P are each written once, as kernels on the last
axis of an array whose leading axes are a batch; every dense operator matrix
is derived by applying a kernel to identity columns.  The functions built on
them take the same batch: a GradedVector's components may have shape
batch + (d**n,) (`GradedVector.stack`), a one-particle argument shape
batch + (d,), and a scalar result then has the batch shape.  A batched call
computes row i bit for bit as the unbatched call on row i would, so every
product over the last axis is elementwise (the contraction's d multiply-adds)
or a stacked matmul (`a[..., None, :] @ b`), which sums each row as the 1-D
product does; a plain gemm, einsum or sum may sum in another order.  An
unbatched call is the batch-shape-() case and returns a float.

Vectors are validated where they enter: the public GradedVector constructor
(which JSON files, the CLI and the suites' draws go through) checks degrees,
shapes and finiteness.  A kernel result is built from fresh arrays whose
degrees and shapes hold by construction, so GradedVector._of checks only that
its entries are finite.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .qcombinatorics import PERMUTATION_CAP, check_deformation, inversions

EIGENSOLVER_CAP = 4096  # largest d**n for dense spectral probes
# largest d**n for which apply_pq memoizes the dense P: below it a cached
# matvec beats the kernel, above it the kernel wins and skips the matrix
MATRIX_CACHE_CAP = 512
# largest array, in bytes, that commutation_residual builds for one slice of
# its trials: all trials of a stream fit at d = 2, degree 5, at degree 7 four
STACK_BYTES = 1 << 20


@dataclass(frozen=True)
class QContext:
    """Deformation parameter, one-particle dimension, truncation degree."""

    q: float
    dim: int
    max_degree: int

    def __post_init__(self):
        check_deformation(self.q)
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")


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


@dataclass(frozen=True, eq=False)
class GradedVector:
    """A degree-indexed family of dense tensors; absent degrees are zero."""

    ctx: QContext
    components: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[int, np.ndarray] = {}
        for n, comp in self.components.items():
            n = int(n)
            if not 0 <= n <= self.ctx.max_degree:
                raise ValueError(
                    f"degree {n} outside truncation 0..{self.ctx.max_degree}"
                )
            arr = np.array(comp, dtype=float).reshape(-1)
            if arr.shape != (self.ctx.dim**n,):
                raise ValueError(
                    f"degree-{n} component must have length {self.ctx.dim ** n}"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"degree-{n} component entries must be finite")
            arr.flags.writeable = False
            clean[n] = arr
        object.__setattr__(self, "components", clean)

    @classmethod
    def _of(cls, ctx: QContext, comps: dict[int, np.ndarray]) -> "GradedVector":
        """A kernel result: comps maps int degrees to flat float arrays of the
        right lengths that nothing else writes (fresh arrays or slices of
        one, or another vector's components).  They are marked read-only but
        neither copied nor reshaped, and only finiteness is checked, so an
        overflow still raises."""
        for n, arr in comps.items():
            if not np.isfinite(arr).all():
                raise ValueError(f"degree-{n} component entries must be finite")
            arr.flags.writeable = False
        vec = object.__new__(cls)
        object.__setattr__(vec, "ctx", ctx)
        object.__setattr__(vec, "components", comps)
        return vec

    @classmethod
    def stack(cls, vectors) -> "GradedVector":
        """Vectors of one context and one degree set as one batched vector:
        row i of every component is vector i's."""
        first = vectors[0]
        for vec in vectors:
            require_same_context(first, vec)
            if vec.components.keys() != first.components.keys():
                raise ValueError("stacked vectors must have the same degrees")
        comps = {n: np.stack([vec.components[n] for vec in vectors]) for n in first.components}
        return cls._of(first.ctx, comps)

    @classmethod
    def vacuum(cls, ctx: QContext) -> "GradedVector":
        return cls._of(ctx, {0: np.ones(1)})

    @classmethod
    def zero(cls, ctx: QContext) -> "GradedVector":
        return cls._of(ctx, {})

    @classmethod
    def random(cls, ctx: QContext, rng: np.random.Generator) -> "GradedVector":
        """Independent standard-normal entries in every degree up to the cutoff,
        degree by degree from one draw: the same numbers and generator state
        as one draw per degree."""
        sizes = [ctx.dim**n for n in range(ctx.max_degree + 1)]
        flat = rng.standard_normal(sum(sizes))
        comps, start = {}, 0
        for n, size in enumerate(sizes):
            comps[n] = flat[start : start + size]
            start += size
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
            total = total + (arr[..., None, :] @ arr[..., :, None])[..., 0, 0]
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
def _perm_actions(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All permutations of n tensor slots with their inversion counts."""
    return tuple(
        (p, inversions(p)) for p in itertools.permutations(range(n))
    )


# permutations per add.at in pq_matrix: bounds its (chunk, d**n) index arrays
_PERM_CHUNK = 120


@functools.lru_cache(maxsize=None)
def pq_matrix(n: int, dim: int, q: float) -> np.ndarray:
    """Dense matrix of the degree-n symmetrizer by enumerating all n!
    permutations; memoized per (n, dim, q).  An independent oracle for the
    factorized kernel, capped at degree 8.

    The cache is filled idempotently and entries are read-only, so concurrent
    use is safe.
    """
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
    actions = _perm_actions(n)
    for start in range(0, len(actions), _PERM_CHUNK):
        chunk = actions[start : start + _PERM_CHUNK]
        perms = np.array([p for p, _ in chunk])
        # row m: the flat column index that permutation m sends each row to
        gather = np.zeros((len(chunk), size), dtype=np.intp)
        for k in range(n):
            gather += digits[perms[:, k]] * dim ** (n - 1 - k)
        weights = np.array([q**inv for _, inv in chunk])
        # add.at adds in index order, so each cell sums its weights in
        # permutation order, as one add per permutation would
        np.add.at(mat, (idx, gather), weights[:, None])
    mat.flags.writeable = False
    return mat


def symmetrize(t, n: int, dim: int, q: float) -> np.ndarray:
    """The degree-n symmetrizer on the last axis of t (leading axes are a batch).

    Uses the factorization P_n = (1 (x) P_(n-1)) R_n with R_n the sum over k of
    q^k times moving slot k to the front, so the cost is O(n^2 d^n) and there is
    no degree cap.  At level m the untouched leading slots join the batch.
    """
    t = np.asarray(t, dtype=float)
    lead = t.shape[:-1]
    if n <= 1:
        return t.copy()
    for m in range(n, 1, -1):
        cube = t.reshape((-1,) + (dim,) * m)
        # acc + q^k * moved, term by term, through one scratch buffer per level
        acc = cube.copy()
        scratch = np.empty_like(cube)
        for k in range(1, m):
            np.multiply(np.moveaxis(cube, k + 1, 1), q**k, out=scratch)
            acc += scratch
        t = acc
    return t.reshape(lead + (-1,))


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
        return (t[..., None, :] @ _pq_cached(n, ctx.dim, ctx.q))[..., 0, :]
    return symmetrize(t, n, ctx.dim, ctx.q)


def q_inner(f: GradedVector, g: GradedVector):
    """Twisted scalar product: sum over degrees of (P f_n, g_n); zeros of
    the batch shape when f and g share no degree."""
    require_same_context(f, g)
    comps = (*f.components.values(), *g.components.values())
    total = np.zeros(np.broadcast_shapes(*(arr.shape[:-1] for arr in comps)))
    for n in sorted(set(f.components) & set(g.components)):
        sym = apply_pq(n, f.components[n], f.ctx)
        total = total + (sym[..., None, :] @ g.components[n][..., :, None])[..., 0, 0]
    return batch_value(total)


def fock_norm(f: GradedVector):
    return batch_value(np.sqrt(np.maximum(q_inner(f, f), 0.0)))


# ---------------------------------------------------------------------------
# Creation and annihilation
# ---------------------------------------------------------------------------


def contract(phi, t, n: int, q: float) -> np.ndarray:
    """Annihilation kernel on the last axis of t (leading axes are a batch):
    slot i of the degree-n tensor is contracted against phi with weight q^i.
    phi has shape batch + (d,), its batch broadcasting against t's.
    Creation needs no kernel of its own: it is tensor_product(phi, t).
    A tensor of higher degree is contracted in its first n slots only, and
    its remaining slots pass through.

    Slot i is sum_j phi_j view[..., j, :] with the tensor viewed as
    (..., d**i, d, rest): d strided multiply-adds, elementwise, that leave
    the remaining slots in row-major order."""
    t = np.asarray(t, dtype=float)
    d = phi.shape[-1]
    coef = [phi[..., j, None, None] for j in range(d)]
    weight = 1.0
    for i in range(n):
        view = t.reshape(t.shape[:-1] + (d**i, d, -1))
        slot = coef[0] * view[..., 0, :]
        for j in range(1, d):
            slot += coef[j] * view[..., j, :]
        slot = slot.reshape(slot.shape[:-2] + (-1,))
        slot *= weight
        if i == 0:
            out = np.zeros(slot.shape)
        out += slot
        weight *= q
    return out


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


def degree_offsets(ctx: QContext) -> list[int]:
    offsets = [0]
    for n in range(ctx.max_degree + 1):
        offsets.append(offsets[-1] + ctx.dim**n)
    return offsets


def _operator_matrix(ctx: QContext, shift: int, kernel) -> np.ndarray:
    """Dense matrix of an operator that maps degree n to n + shift, from
    kernel(n, columns) applied to the identity columns of every degree."""
    offsets = degree_offsets(ctx)
    size = offsets[-1]
    if size > EIGENSOLVER_CAP:
        raise ValueError(f"truncated space dimension {size} exceeds cap {EIGENSOLVER_CAP}")
    mat = np.zeros((size, size))
    for n in range(ctx.max_degree + 1):
        m = n + shift
        if 0 <= m <= ctx.max_degree:
            block = kernel(n, np.eye(ctx.dim**n))
            mat[offsets[m] : offsets[m + 1], offsets[n] : offsets[n + 1]] = block.T
    return mat


def creation_matrix(phi, ctx: QContext) -> np.ndarray:
    phi = as_one_particle(phi, ctx.dim)
    return _operator_matrix(ctx, 1, lambda n, cols: tensor_product(phi, cols))


def annihilation_matrix(phi, ctx: QContext) -> np.ndarray:
    phi = as_one_particle(phi, ctx.dim)
    return _operator_matrix(ctx, -1, lambda n, cols: contract(phi, cols, n, ctx.q))


def swap_constant(n: int, dim: int, q: float) -> float:
    """c_n: the 2-norm, on degree n, of e_2 (x) M_(e_1) - e_1 (x) M_(e_2),
    where M_x = contract(x, ., n, q); 0 when dim = 1 or n = 0.  Built by the
    kernels on identity columns and taken by one SVD."""
    if dim == 1 or n == 0:
        return 0.0
    cols = np.eye(dim**n)
    e1, e2 = basis_vector(dim, 0), basis_vector(dim, 1)
    term = tensor_product(e2, contract(e1, cols, n, q))
    term -= tensor_product(e1, contract(e2, cols, n, q))
    return float(np.linalg.norm(term, 2))


def commutation_residual(phi, psi, ctx: QContext):
    """Residual norm, on degrees <= N-1, of

        a^-(phi) a^+(psi) - q a^+(psi) a^-(phi) - (phi, psi) Id,

    the exchange form: the weighted term swaps the operators and keeps the
    arguments, the rule under which they genuinely commute.

    The residual vanishes in exact arithmetic, so its blocks hold only
    rounding.  They are built by the kernels on identity columns, degree by
    degree (the products are block diagonal), for as many trials at a time as
    keep the largest array of a slice within STACK_BYTES, and each trial
    reports the largest Frobenius norm of its blocks: an upper bound on the
    operator 2-norm, so the check is no looser than the 2-norm's.

    Trading the arguments instead, to q a^+(phi) a^-(psi), leaves
    q (psi (x) M_phi - phi (x) M_psi) on degree n, with M_x = contract(x, .,
    n, q).  It is linear in the bivector phi ^ psi and the kernels are
    O(d)-equivariant, so its 2-norm is exactly |q| |phi ^ psi| c_n
    (swap_constant) and needs no probe per pair.
    """
    if ctx.max_degree < 1:
        raise ValueError("commutation probe needs max_degree >= 1")
    phi, psi = np.broadcast_arrays(as_one_particle(phi, ctx.dim), as_one_particle(psi, ctx.dim))
    batch = phi.shape[:-1]
    phi = phi.reshape(-1, 1, ctx.dim)  # one row per trial, broadcast over the block's rows
    psi = psi.reshape(-1, 1, ctx.dim)
    pairing = (phi @ psi.swapaxes(-1, -2))[:, 0]
    q = ctx.q
    worst = np.zeros(len(phi))
    # row j of each block is the operator applied to the basis tensor e_j
    for n in range(ctx.max_degree):
        size = ctx.dim**n
        cols = np.eye(size)
        # psi (x) cols, d (d^n)^2 entries per trial, is a slice's largest array
        step = max(1, STACK_BYTES // (ctx.dim * cols.nbytes))
        for lo in range(0, len(phi), step):
            rows = slice(lo, lo + step)
            term = contract(phi[rows], tensor_product(psi[rows], cols), n + 1, q)
            if n > 0:
                weighted = tensor_product(psi[rows], contract(phi[rows], cols, n, q))
                weighted *= q
                term -= weighted
            flat = term.reshape(len(term), 1, -1)
            flat[:, 0, :: size + 1] -= pairing[rows]  # the diagonal of each block
            frobenius = np.sqrt(flat @ flat.swapaxes(-1, -2))[:, 0, 0]
            worst[rows] = np.maximum(worst[rows], frobenius)
    return batch_value(worst.reshape(batch))


def pq_spectrum(n: int, ctx: QContext) -> tuple[float, float]:
    """Extreme eigenvalues of the degree-n symmetrizer (a symmetric matrix)."""
    size = ctx.dim**n
    if size > EIGENSOLVER_CAP:
        raise ValueError(f"eigensolver capped at dimension {EIGENSOLVER_CAP}, got {size}")
    eigs = np.linalg.eigvalsh(symmetrizer_matrix(n, ctx.dim, ctx.q))
    return float(eigs[0]), float(eigs[-1])
