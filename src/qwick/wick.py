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
from typing import Iterable, Sequence

import numpy as np

from .fock import (
    GradedVector,
    QContext,
    annihilate,
    as_one_particle,
    contract,
    create,
    tensor_product,
)
from .qcombinatorics import crossing_polynomial


def _as_vec_tuple(v) -> tuple[float, ...]:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if not np.isfinite(arr).all():
        raise ValueError("word arguments must have finite entries")
    return tuple(float(x) for x in arr)


@dataclass(frozen=True)
class NormalWord:
    """a^+(f_1)...a^+(f_n) a^-(g_1)...a^-(g_m) stored as argument tuples."""

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
    def identity(cls) -> "WickPolynomial":
        return cls({IDENTITY_WORD: 1.0})

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
        return cls.creator(phi) + cls.annihilator(phi)

    def __add__(self, other: "WickPolynomial") -> "WickPolynomial":
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0.0) + c
        return WickPolynomial(terms)

    def __sub__(self, other: "WickPolynomial") -> "WickPolynomial":
        return self + other.scale(-1.0)

    def scale(self, c: float) -> "WickPolynomial":
        return WickPolynomial({w: c * v for w, v in self.terms.items()})

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
        terms: dict[NormalWord, float] = {}
        for item in data["terms"]:
            word = NormalWord.build(item["creators"], item["annihilators"])
            terms[word] = terms.get(word, 0.0) + float(item["coeff"])
        return cls(terms)

    @classmethod
    def from_json(cls, text: str) -> "WickPolynomial":
        return cls.from_json_dict(json.loads(text))


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
    return WickPolynomial(terms)


def adjoint(p: WickPolynomial) -> WickPolynomial:
    """Word-wise adjoint: reverse and swap the creator and annihilator strings."""
    terms: dict[NormalWord, float] = {}
    for w, c in p.terms.items():
        flipped = NormalWord(tuple(reversed(w.annihilators)), tuple(reversed(w.creators)))
        terms[flipped] = terms.get(flipped, 0.0) + c
    return WickPolynomial(terms)


def field_mul(phi, p: WickPolynomial, q: float) -> WickPolynomial:
    """Ordinary operator product (a^+(phi) + a^-(phi)) * p, normal-ordered.

    Pushing a^-(phi) past the creators (h_1, ..., h_k) of a word yields the
    contraction sum over dropped slots, weighted q^(i-1) (phi, h_i), plus the
    fully exchanged word weighted q^k.
    """
    q = float(q)
    phi_t = _as_vec_tuple(phi)
    phi_arr = np.asarray(phi_t)
    terms: dict[NormalWord, float] = {}

    def put(word: NormalWord, coeff: float) -> None:
        terms[word] = terms.get(word, 0.0) + coeff

    for w, c in p.terms.items():
        put(NormalWord((phi_t,) + w.creators, w.annihilators), c)
        weight = 1.0
        for i, h in enumerate(w.creators):
            pairing = float(phi_arr @ np.asarray(h))
            dropped = w.creators[:i] + w.creators[i + 1 :]
            put(NormalWord(dropped, w.annihilators), c * weight * pairing)
            weight *= q
        put(NormalWord(w.creators, (phi_t,) + w.annihilators), c * weight)
    return WickPolynomial(terms)


def wick_monomial(vectors: Sequence, q: float) -> WickPolynomial:
    """The degree-n orthogonal monomial in the field variables, built by the
    contraction recursion: multiply by the field of the first argument and
    subtract the monomials of the one-slot contractions of the tail.

    In a single mode this reproduces the q-deformed Hermite three-term
    recurrence.
    """
    q = float(q)
    vecs = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    return _wick_monomial_rec(vecs, q)


def _wick_monomial_rec(vecs: list[np.ndarray], q: float) -> WickPolynomial:
    n = len(vecs)
    if n == 0:
        return WickPolynomial.identity()
    if n == 1:
        return WickPolynomial.field(vecs[0])
    head, tail = vecs[0], vecs[1:]
    result = field_mul(head, _wick_monomial_rec(tail, q), q)
    weight = 1.0
    for j, t in enumerate(tail):
        pairing = float(head @ t)
        if pairing != 0.0:
            rest = tail[:j] + tail[j + 1 :]
            result = result - _wick_monomial_rec(rest, q).scale(weight * pairing)
        weight *= q
    return result


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
    """P applied to the vacuum; every word needs creator headroom within N."""
    overflow = p.max_creators()
    if overflow > ctx.max_degree:
        raise ValueError(
            f"truncation overflow: a word creates degree {overflow} "
            f"but max_degree is {ctx.max_degree}"
        )
    return apply_to_fock(p, GradedVector.vacuum(ctx))


# Highest order `compute moments` accepts: the Jacobi-matrix test certifies
# the oracle's exact evaluation up to here.
MAX_MOMENT_ORDER = 40


@dataclass(frozen=True)
class MomentReport:
    order: int
    value: float
    oracle_value: float

    @property
    def residual(self) -> float:
        return abs(self.value - self.oracle_value)


def moments(phi, top: int, ctx: QContext) -> list[MomentReport]:
    """Vacuum moments of orders 0..top of the field operator of phi, each
    computed two independent ways.

    value (the fast route): one walk of the vacuum, top steps under creation
    plus annihilation by phi on per-degree arrays; the moment of order k is
    the degree-0 entry after step k.  A component that can no longer return
    to degree 0 by step top is dropped, which leaves every earlier readout
    bit for bit as a walk of its own length would give it.  A closed 0 -> 0
    walk of k steps climbs at most floor(k/2) levels, so the walk is exact
    once max_degree covers that.
    oracle: ||phi||^k times the crossing polynomial of pair partitions of k
    points evaluated at q, zero for odd k.  The integer polynomial is
    evaluated exactly at the rational value of the double q and rounded
    once, since the float sum cancels for q < 0 at high order.
    """
    if top < 0:
        raise ValueError("moment order must be nonnegative")
    if ctx.max_degree < top // 2:
        raise ValueError(
            f"moment of order {top} needs max_degree >= {top // 2}, got {ctx.max_degree}"
        )
    phi = as_one_particle(phi, ctx.dim)
    norm_sq = float(phi @ phi)
    num, den = float(ctx.q).as_integer_ratio()
    reports = [MomentReport(0, 1.0, 1.0)]
    walk = {0: np.ones(1)}  # degree -> component of the vacuum walked so far
    for step in range(1, top + 1):
        reach = min(ctx.max_degree, top - step)  # higher degrees cannot return to 0
        nxt: dict[int, np.ndarray] = {}
        for n, arr in walk.items():
            if n < reach:
                nxt[n + 1] = tensor_product(phi, arr) + nxt.get(n + 1, 0.0)
            if 0 < n <= reach + 1:
                nxt[n - 1] = contract(phi, arr, n, ctx.q) + nxt.get(n - 1, 0.0)
        walk = nxt
        value = float(walk[0][0]) if 0 in walk else 0.0
        oracle = 0.0
        if step % 2 == 0:
            coeffs = crossing_polynomial(step // 2)
            top_power = len(coeffs) - 1
            exact = sum(c * num**j * den ** (top_power - j) for j, c in enumerate(coeffs))
            # numpy's power gives inf where a float's raises OverflowError
            oracle = float(np.float64(norm_sq) ** (step // 2) * (exact / den**top_power))
        reports.append(MomentReport(step, value, oracle))
    return reports


def moment(phi, k: int, ctx: QContext) -> MomentReport:
    """k-th vacuum moment of the field operator of phi, two independent ways:
    the last row of `moments(phi, k, ctx)`, whose vacuum walk is the fast
    route and whose crossing polynomial is the oracle.  To read several
    orders of one phi, call `moments` once: it walks the vacuum once."""
    return moments(phi, k, ctx)[k]
