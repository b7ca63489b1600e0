"""Normal-ordered word algebra and the Wick product.

A normal word is a string of creation operators followed by a string of
annihilation operators; the empty word is the identity.  A polynomial is a
finite real combination of normal words.  Term identity is structural: the
argument vectors are compared entrywise with zero tolerance, so merging is
exact and deterministic (dict insertion order).

The Wick product concatenates creator and annihilator strings and picks up
the factor q^(k*m), where m counts annihilators of the left factor and k
creators of the right one.  The ordinary operator product is also available:
it normal-orders by repeatedly exchanging an annihilator past a creator,
which costs a factor q and a scalar contraction term.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .fock import (
    GradedVector,
    QContext,
    annihilate,
    as_one_particle,
    batch_value,
    contract,
    create,
    json_numbers,
    json_value,
    tensor_product,
    unique_keys,
)
from .qcombinatorics import crossing_polynomial


def _as_vec_tuple(v) -> tuple[float, ...]:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if not np.isfinite(arr).all():
        raise ValueError("word arguments must have finite entries")
    return tuple(arr.tolist())


class NormalWord(NamedTuple):
    """a^+(f_1)...a^+(f_n) a^-(g_1)...a^-(g_m) stored as argument tuples.

    A named tuple, so it hashes and compares in C; it equals the plain tuple
    (creators, annihilators)."""

    creators: tuple[tuple[float, ...], ...] = ()
    annihilators: tuple[tuple[float, ...], ...] = ()

    @classmethod
    def build(cls, creators: Iterable = (), annihilators: Iterable = ()) -> "NormalWord":
        return cls(
            tuple(_as_vec_tuple(v) for v in creators),
            tuple(_as_vec_tuple(v) for v in annihilators),
        )

    @property
    def n_creators(self) -> int:
        return len(self.creators)

    @property
    def n_annihilators(self) -> int:
        return len(self.annihilators)


IDENTITY_WORD = NormalWord()


@dataclass(frozen=True, eq=False)
class WickPolynomial:
    """Finite real combination of normal words; zero coefficients are dropped,
    and a coefficient that is not finite is rejected."""

    terms: dict[NormalWord, float]

    def __post_init__(self):
        clean = {w: float(c) for w, c in self.terms.items() if c != 0.0}
        if not all(map(math.isfinite, clean.values())):
            raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, terms: dict[NormalWord, float]) -> "WickPolynomial":
        """An algebra result: terms maps words to Python float sums made here.
        Zero sums are dropped and only finiteness is checked, so an overflow
        still raises."""
        clean = {w: c for w, c in terms.items() if c != 0.0}
        if not all(map(math.isfinite, clean.values())):
            raise ValueError("polynomial coefficients must be finite")
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", clean)
        return poly

    @classmethod
    def identity(cls) -> "WickPolynomial":
        return cls._of({IDENTITY_WORD: 1.0})

    @classmethod
    def from_word(cls, word: NormalWord, coeff: float = 1.0) -> "WickPolynomial":
        return cls({word: coeff})

    @classmethod
    def creator(cls, phi) -> "WickPolynomial":
        return cls.from_word(NormalWord.build(creators=[phi]))

    @classmethod
    def annihilator(cls, phi) -> "WickPolynomial":
        return cls.from_word(NormalWord.build(annihilators=[phi]))

    @classmethod
    def field(cls, phi) -> "WickPolynomial":
        """The field operator a^+(phi) + a^-(phi)."""
        phi_t = (_as_vec_tuple(phi),)
        return cls._of({NormalWord(phi_t, ()): 1.0, NormalWord((), phi_t): 1.0})

    def __add__(self, other: "WickPolynomial") -> "WickPolynomial":
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0.0) + c
        return WickPolynomial._of(terms)

    def __sub__(self, other: "WickPolynomial") -> "WickPolynomial":
        return self.minus_scaled(other, 1.0)

    def minus_scaled(self, other: "WickPolynomial", c: float) -> "WickPolynomial":
        """self - c * other in one merge: each sum is c_self - c * c_other,
        bit for bit what `self - other.scale(c)` gives, in its term order."""
        c = float(c)
        terms = dict(self.terms)
        for w, v in other.terms.items():
            terms[w] = terms.get(w, 0.0) - c * v
        return WickPolynomial._of(terms)

    def scale(self, c: float) -> "WickPolynomial":
        c = float(c)
        return WickPolynomial._of({w: c * v for w, v in self.terms.items()})

    def max_creators(self) -> int:
        return max((w.n_creators for w in self.terms), default=0)

    def coefficient(self, word: NormalWord) -> float:
        return self.terms.get(word, 0.0)

    def equals(self, other: "WickPolynomial", atol: float = 0.0) -> bool:
        for w in set(self.terms) | set(other.terms):
            if abs(self.coefficient(w) - other.coefficient(w)) > atol:
                return False
        return True

    def max_coeff_diff(self, other: "WickPolynomial") -> float:
        keys = set(self.terms) | set(other.terms)
        return max(
            (abs(self.coefficient(w) - other.coefficient(w)) for w in keys),
            default=0.0,
        )

    # -- JSON wire format: {"terms":[{"coeff","creators","annihilators"}]} --

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {
                    "coeff": c,
                    "creators": [list(v) for v in w.creators],
                    "annihilators": [list(v) for v in w.annihilators],
                }
                for w, c in self.terms.items()
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "WickPolynomial":
        data = json_value(data, dict, "polynomial file")
        terms: dict[NormalWord, float] = {}
        lengths = set()  # of the argument vectors: one for the whole polynomial
        for k, item in enumerate(json_value(data["terms"], list, "polynomial terms")):
            item = json_value(item, dict, f"polynomial term {k}")
            coeff = json_value(item["coeff"], float, f"polynomial term {k} coeff")
            sides = []
            for side in ("creators", "annihilators"):
                what = f"polynomial term {k} {side}"
                vectors = json_value(item[side], list, what)
                sides.append([json_numbers(v, f"{what} argument") for v in vectors])
                lengths.update(map(len, vectors))
            if 0 in lengths or len(lengths) > 1:
                raise ValueError(
                    f"polynomial term {k}: arguments must be non-empty and of one length, "
                    f"got lengths {sorted(lengths)}"
                )
            word = NormalWord.build(*sides)
            terms[word] = terms.get(word, 0.0) + float(coeff)
        return cls(terms)

    @classmethod
    def from_json(cls, text: str) -> "WickPolynomial":
        return cls.from_json_dict(json.loads(text, object_pairs_hook=unique_keys))


# ---------------------------------------------------------------------------
# Wick product
# ---------------------------------------------------------------------------


def wick_mul(u: NormalWord, v: NormalWord, q: float) -> tuple[float, NormalWord]:
    """Normal-ordered product of two words: concatenate creator and
    annihilator strings and pay q^(k*m) for the k creators of v that jump the
    m annihilators of u."""
    exponent = v.n_creators * u.n_annihilators
    word = NormalWord(u.creators + v.creators, u.annihilators + v.annihilators)
    return float(q) ** exponent, word


def wick_mul_poly(p1: WickPolynomial, p2: WickPolynomial, q: float) -> WickPolynomial:
    """Bilinear extension of the word-level Wick product, merged exactly."""
    q = float(q)
    terms: dict[NormalWord, float] = {}
    for u, cu in p1.terms.items():
        for v, cv in p2.terms.items():
            coeff, word = wick_mul(u, v, q)
            terms[word] = terms.get(word, 0.0) + cu * cv * coeff
    return WickPolynomial._of(terms)


def adjoint(p: WickPolynomial) -> WickPolynomial:
    """Word-wise adjoint: reverse and swap the creator and annihilator strings."""
    terms: dict[NormalWord, float] = {}
    for w, c in p.terms.items():
        flipped = NormalWord(tuple(reversed(w.annihilators)), tuple(reversed(w.creators)))
        terms[flipped] = terms.get(flipped, 0.0) + c
    return WickPolynomial._of(terms)


def field_mul(phi, p: WickPolynomial, q: float) -> WickPolynomial:
    """Ordinary operator product (a^+(phi) + a^-(phi)) * p, normal-ordered.

    Pushing a^-(phi) past the creators (h_1, ..., h_k) of a word yields the
    contraction sum over dropped slots, weighted q^(i-1) (phi, h_i), plus the
    fully exchanged word weighted q^k.
    """
    return _field_mul(_as_vec_tuple(phi), p, float(q))


def _field_mul(phi_t: tuple[float, ...], p: WickPolynomial, q: float) -> WickPolynomial:
    """field_mul for a validated argument tuple; each distinct creator is
    paired with phi once per call."""
    phi_arr = np.asarray(phi_t)
    pairings: dict[tuple[float, ...], float] = {}
    terms: dict[NormalWord, float] = {}

    def put(word: NormalWord, coeff: float) -> None:
        terms[word] = terms.get(word, 0.0) + coeff

    for w, c in p.terms.items():
        put(NormalWord((phi_t,) + w.creators, w.annihilators), c)
        weight = 1.0
        for i, h in enumerate(w.creators):
            pairing = pairings.get(h)
            if pairing is None:
                pairing = pairings[h] = float(phi_arr @ np.asarray(h))
            dropped = w.creators[:i] + w.creators[i + 1 :]
            put(NormalWord(dropped, w.annihilators), c * weight * pairing)
            weight *= q
        put(NormalWord(w.creators, (phi_t,) + w.annihilators), c * weight)
    return WickPolynomial._of(terms)


def wick_monomial(vectors: Sequence, q: float) -> WickPolynomial:
    """The degree-n orthogonal monomial in the field variables, built by the
    contraction recursion: multiply by the field of the first argument and
    subtract the monomials of the one-slot contractions of the tail.

    In a single mode this reproduces the q-deformed Hermite three-term
    recurrence.  Each argument is validated once, and each sub-list of the
    arguments the recursion reaches (keyed by its index tuple) is built once
    per call.
    """
    q = float(q)
    vecs = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    args = [_as_vec_tuple(v) for v in vecs]
    memo: dict[tuple[int, ...], WickPolynomial] = {(): WickPolynomial.identity()}

    def monomial(idx: tuple[int, ...]) -> WickPolynomial:
        if idx in memo:
            return memo[idx]
        head, tail = idx[0], idx[1:]
        result = _field_mul(args[head], monomial(tail), q)
        weight = 1.0
        for j, t in enumerate(tail):
            pairing = float(vecs[head] @ vecs[t])
            if pairing != 0.0:
                result = result.minus_scaled(monomial(tail[:j] + tail[j + 1 :]), weight * pairing)
            weight *= q
        memo[idx] = result
        return result

    return monomial(tuple(range(len(vecs))))


# ---------------------------------------------------------------------------
# Action on the truncated Fock space
# ---------------------------------------------------------------------------


def apply_word(word: NormalWord, f: GradedVector) -> GradedVector:
    """Compose the word's operators right to left (annihilators first)."""
    current = f
    for g in reversed(word.annihilators):
        current = annihilate(np.asarray(g), current)
    for phi in reversed(word.creators):
        current = create(np.asarray(phi), current)
    return current


def apply_to_fock(p: WickPolynomial, f: GradedVector) -> GradedVector:
    """Evaluate the polynomial as an operator (ordinary products, no Wick
    factor) on a graded vector."""
    out = GradedVector.zero(f.ctx)
    for w, c in p.terms.items():
        out = out + apply_word(w, f).scale(c)
    return out


def vacuum_vector(p: WickPolynomial, ctx: QContext) -> GradedVector:
    """P applied to the vacuum.  a^-(g) annihilates the vacuum, so only the
    words without annihilators are applied; every word must still create
    within N and have arguments of length d."""
    overflow = p.max_creators()
    if overflow > ctx.max_degree:
        raise ValueError(
            f"truncation overflow: a word creates degree {overflow} "
            f"but max_degree is {ctx.max_degree}"
        )
    lengths = {len(g) for w in p.terms for g in w.annihilators} - {ctx.dim}
    if lengths:
        raise ValueError(f"one-particle vector must have length {ctx.dim}, got {sorted(lengths)}")
    creators_only = {w: c for w, c in p.terms.items() if not w.annihilators}
    return apply_to_fock(WickPolynomial._of(creators_only), GradedVector.vacuum(ctx))


# Highest order `compute moments` accepts: the Jacobi-matrix test certifies
# the oracle's exact evaluation up to here.
MAX_MOMENT_ORDER = 40


@dataclass(frozen=True)
class MomentReport:
    """One order's moment, both ways; value and oracle_value have the batch
    shape of phi."""

    order: int
    value: float
    oracle_value: float

    @property
    def residual(self) -> float:
        return batch_value(np.abs(self.value - self.oracle_value))


def moments(phi, top: int, ctx: QContext) -> list[MomentReport]:
    """Vacuum moments of orders 0..top of the field operator of phi (shape
    batch + (d,): one walk serves every row), each computed two independent
    ways.

    value (the fast route): one walk of the vacuum, top steps under creation
    plus annihilation by phi on per-degree arrays; the moment of order k is
    the degree-0 entry after step k.  A component that can no longer return
    to degree 0 by step top is dropped, which leaves every earlier readout
    bit for bit as a walk of its own length would give it.  A closed 0 -> 0
    walk of k steps climbs at most floor(k/2) levels, so the walk is exact
    once max_degree covers that.
    oracle: ||phi||^k times the crossing polynomial of pair partitions of k
    points evaluated at q, zero for odd k.  The integer polynomial is
    evaluated exactly at the rational value of the double q, once per order,
    and rounded once, since the float sum cancels for q < 0 at high order.
    """
    if top < 0:
        raise ValueError("moment order must be nonnegative")
    if ctx.max_degree < top // 2:
        raise ValueError(
            f"moment of order {top} needs max_degree >= {top // 2}, got {ctx.max_degree}"
        )
    phi = as_one_particle(phi, ctx.dim)
    batch = phi.shape[:-1]
    norm_sq = (phi[..., None, :] @ phi[..., :, None]).reshape(-1).tolist()
    num, den = float(ctx.q).as_integer_ratio()
    ones = batch_value(np.ones(batch))
    reports = [MomentReport(0, ones, ones)]
    walk = {0: np.ones(batch + (1,))}  # degree -> component of the vacuum walked so far
    for step in range(1, top + 1):
        reach = min(ctx.max_degree, top - step)  # higher degrees cannot return to 0
        nxt: dict[int, np.ndarray] = {}
        for n, arr in walk.items():
            if n < reach:
                nxt[n + 1] = tensor_product(phi, arr) + nxt.get(n + 1, 0.0)
            if 0 < n <= reach + 1:
                nxt[n - 1] = contract(phi, arr, n, ctx.q) + nxt.get(n - 1, 0.0)
        walk = nxt
        value = batch_value(walk[0][..., 0] if 0 in walk else np.zeros(batch))
        oracle = [0.0] * len(norm_sq)
        if step % 2 == 0:
            coeffs = crossing_polynomial(step // 2)
            top_power = len(coeffs) - 1
            exact = sum(c * num**j * den ** (top_power - j) for j, c in enumerate(coeffs))
            polynomial = exact / den**top_power
            # numpy's power gives inf where a float's raises OverflowError; a
            # scalar power per row, since an array power may round otherwise
            oracle = [float(np.float64(x) ** (step // 2) * polynomial) for x in norm_sq]
        reports.append(MomentReport(step, value, batch_value(np.reshape(oracle, batch))))
    return reports


def moment(phi, k: int, ctx: QContext) -> MomentReport:
    """k-th vacuum moment of the field operator of phi, two independent ways:
    the last row of `moments(phi, k, ctx)`, whose vacuum walk is the fast
    route and whose crossing polynomial is the oracle.  To read several
    orders of one phi, call `moments` once: it walks the vacuum once."""
    return moments(phi, k, ctx)[k]
