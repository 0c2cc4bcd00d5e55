"""U(gl_M) with PBW normal forms, over Q.

Generators E[a,b] (1-based indices) are totally ordered lexicographically on
(a, b); a PBW monomial is a nondecreasing word in that order.  Straightening
rewrites any word to normal form by adjacent swaps,
E[a,b] E[c,d] = E[c,d] E[a,b] + delta_bc E[a,d] - delta_da E[c,b],
in the one memoized loop `lincomb.normal_form`.  The structure constants are
integers, so normal forms are computed and memoized over `int`.  Coefficients
are Python's exact rationals: a coefficient stays an `int` until a
non-integer enters it (`UElement.from_text`, `scale` by a `Fraction`) and is
then a `Fraction`.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

# Not used here: perfbench/tracer.py reads `ugl.QQ` by attribute.
from .field import QQ  # noqa: F401
from .lincomb import axpy, derivation, mul_via, normal_form

GLGen = tuple[int, int]

_memo: dict = {}


def commutator_terms(x: GLGen, y: GLGen) -> dict[tuple[GLGen], int]:
    """[E_x, E_y] as a dict of one-letter words with integer coefficients."""
    (a, b), (c, d) = x, y
    out = {((a, d),): 1} if b == c else {}
    if d == a:
        axpy(out, -1, {((c, b),): 1})
    return out


def straighten_word(word_: tuple[GLGen, ...]) -> dict:
    """Normal form of a free word as {sorted monomial: int}.

    The result is the memo's own dict: callers must not mutate it.
    """
    return normal_form(word_, commutator_terms, _memo)


def ad(x: dict, g: GLGen) -> dict:
    """[x, E_g] in normal form, for a combination x of sorted words, by the
    Leibniz rule over the letters of x."""
    return derivation(x, lambda h: commutator_terms(h, g), straighten_word)


class UElement:
    """Element of U(gl_M) in PBW normal form."""

    __slots__ = ("M", "terms")

    def __init__(self, M: int, terms=None):
        self.M = M
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls, M: int) -> "UElement":
        return cls(M)

    @classmethod
    def one(cls, M: int) -> "UElement":
        return cls(M, {(): 1})

    @classmethod
    def gen(cls, M: int, a: int, b: int) -> "UElement":
        if not (1 <= a <= M and 1 <= b <= M):
            raise ValueError(f"generator E[{a},{b}] out of range for M={M}")
        return cls(M, {((a, b),): 1})

    @classmethod
    def from_word(cls, M: int, word_) -> "UElement":
        return cls(M, straighten_word(tuple(word_)))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def scale(self, c) -> "UElement":
        return UElement(self.M, {m: v * c for m, v in self.terms.items()})

    def __add__(self, other: "UElement") -> "UElement":
        self._compat(other)
        return UElement(self.M, axpy(dict(self.terms), 1, other.terms))

    def __neg__(self) -> "UElement":
        return self.scale(-1)

    def __sub__(self, other: "UElement") -> "UElement":
        return self + (-other)

    def __mul__(self, other: "UElement") -> "UElement":
        self._compat(other)
        return UElement(self.M, mul_via(self.terms, other.terms,
                                        straighten_word))

    def commutator(self, other: "UElement") -> "UElement":
        """self*other - other*self by the Leibniz rule, letter by letter:
        E_g in other -> [self, E_g], and E_h in self -> [E_h, E_g]."""
        self._compat(other)
        return UElement(self.M, derivation(
            other.terms, lambda g: ad(self.terms, g), straighten_word))

    def top_part(self) -> "UElement":
        d = self.degree()
        return UElement(self.M, {k: v for k, v in self.terms.items()
                                 if len(k) == d})

    def _compat(self, other: "UElement"):
        if self.M != other.M:
            raise ValueError("mixed gl sizes")

    def __eq__(self, other) -> bool:
        if not isinstance(other, UElement):
            return NotImplemented
        return self.M == other.M and self.terms == other.terms

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            body = "".join(f"E[{a},{b}]" for a, b in mono) or "1"
            parts.append(f"{c}*{body}")
        return " + ".join(parts)

    @classmethod
    def from_text(cls, M: int, text: str) -> "UElement":
        text = text.strip()
        if text == "0":
            return cls.zero(M)
        acc = cls.zero(M)
        for part in re.split(r"\s*\+\s*", text):
            cstr, _, body = part.partition("*")
            coeff = Fraction(cstr)
            word_ = tuple(
                (int(a), int(b))
                for a, b in re.findall(r"E\[(\d+),(\d+)\]", body))
            acc = acc + cls.from_word(M, word_).scale(coeff)
        return acc

    def __repr__(self) -> str:
        return f"UElement(M={self.M}, {self.to_text()})"


def straighten(word_, M: int) -> UElement:
    """Normal form of a free word in the generators."""
    for (a, b) in word_:
        if not (1 <= a <= M and 1 <= b <= M):
            raise ValueError(f"generator E[{a},{b}] out of range for M={M}")
    return UElement.from_word(M, word_)


def gelfand(k: int, M: int) -> UElement:
    """Central element tr(E^k): sum of E[a1,a2] E[a2,a3] ... E[ak,a1]."""
    if k < 1:
        raise ValueError("gelfand degree must be >= 1")
    acc: dict = {}
    for idx in itertools.product(range(1, M + 1), repeat=k):
        axpy(acc, 1, straighten_word(
            tuple((idx[i], idx[(i + 1) % k]) for i in range(k))))
    return UElement(M, acc)


def lie_generators(block) -> list[GLGen]:
    """E[a,b] and E[b,a] for adjacent a, b of the index block, and E[c,c]
    for its first index c.  They generate gl of the block as a Lie algebra:
    brackets give every E[a,b] with a != b and every E[a,a] - E[b,b].  The
    elements commuting with a fixed x form a Lie subalgebra (Jacobi), so x
    commutes with gl of the block iff it commutes with these.  E[c,c] is
    needed, as the block's trace is not central in U(gl_M): the block [2]
    has no adjacent pairs, and E[1,2] does not commute with E[2,2]."""
    block = list(block)
    pairs = [g for a, b in zip(block, block[1:]) for g in ((a, b), (b, a))]
    return pairs + [(c, c) for c in block[:1]]


def centralizer_membership(x: UElement, block) -> bool:
    """True iff x commutes with every E[a,b] for a, b in the index block,
    tested on the `lie_generators` of the block."""
    return not any(ad(x.terms, g) for g in lie_generators(block))


def filtration_basis(m: int, M: int) -> list[tuple[GLGen, ...]]:
    """All PBW monomials with at most m factors."""
    gens = [(a, b) for a in range(1, M + 1) for b in range(1, M + 1)]
    out: list[tuple[GLGen, ...]] = []
    for j in range(m + 1):
        out.extend(itertools.combinations_with_replacement(gens, j))
    return out
