"""Exact coefficient arithmetic.

Everything downstream (diagram composition, PBW straightening, rank
computations) relies on structural equality being semantic equality, so all
values here are kept in canonical form at all times:

* rationals are `fractions.Fraction` (always reduced, positive denominator);
* `Poly` is a univariate polynomial in t over Q with no trailing zero
  coefficients;
* `GFElem` is a residue mod a prime p, 0 <= residue < p.

No floating point is used anywhere.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class Poly:
    """Univariate polynomial in t with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        return cls([c])

    @classmethod
    def t(cls) -> "Poly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lc = self.leading
        return Poly(c / lc for c in self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Poly(x + y for x, y in zip(a, b))

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly(c * other for c in self.coeffs)
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    @staticmethod
    def _coerce(x) -> "Poly":
        if isinstance(x, Poly):
            return x
        if isinstance(x, (int, Fraction)):
            return Poly.const(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Poly")

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        div = other.coeffs
        if len(rem) < len(div):
            return Poly(), self
        quo = [Fraction(0)] * (len(rem) - len(div) + 1)
        for i in range(len(quo) - 1, -1, -1):
            c = rem[i + len(div) - 1] / div[-1]
            quo[i] = c
            if c:
                for j, d in enumerate(div):
                    rem[i + j] -= c * d
        return Poly(quo), Poly(rem[: len(div) - 1])

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        # Monic Euclidean algorithm; exact over Q, result is monic (or zero).
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def evaluate(self, t0: Scalar) -> Fraction:
        t0 = _as_fraction(t0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t0 + c
        return acc

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
        return " + ".join(reversed(parts))


ONE_POLY = Poly.const(1)
T_POLY = Poly.t()


def interpolate(points: Sequence[tuple[Scalar, Scalar]], degree_bound: int) -> Poly:
    """Unique polynomial of degree <= degree_bound through the given points.

    Uses the first degree_bound+1 points for Lagrange interpolation and then
    checks every remaining point; a nonzero residual means the data is not
    polynomial of the stated degree.
    """
    pts = [(_as_fraction(x), _as_fraction(y)) for x, y in points]
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissa in interpolation points")
    if len(pts) < degree_bound + 1:
        raise ValueError(
            f"need at least {degree_bound + 1} points for degree bound {degree_bound}"
        )
    base = pts[: degree_bound + 1]
    acc = Poly()
    for i, (xi, yi) in enumerate(base):
        num = Poly.const(yi)
        for j, (xj, _) in enumerate(base):
            if i == j:
                continue
            num = num * Poly([-xj, 1]) * (1 / (xi - xj))
        acc = acc + num
    for x, y in pts:
        if acc.evaluate(x) != y:
            raise ValueError("inconsistent points: degree bound violated")
    return acc


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in itertools.chain([2], range(3, math.isqrt(p) + 1, 2)):
        if p % q == 0:
            return p == q
    return True


class GFElem:
    """Element of the prime field F_p."""

    __slots__ = ("residue", "p")

    def __init__(self, residue: int, p: int):
        self.residue = residue % p
        self.p = p

    def _check(self, other) -> "GFElem":
        if isinstance(other, int):
            return GFElem(other, self.p)
        if isinstance(other, GFElem):
            if other.p != self.p:
                raise ValueError("mixed prime field moduli")
            return other
        raise TypeError(f"cannot coerce {type(other).__name__} to GF({self.p})")

    def __add__(self, other):
        other = self._check(other)
        return GFElem(self.residue + other.residue, self.p)

    __radd__ = __add__

    def __neg__(self):
        return GFElem(-self.residue, self.p)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        return GFElem(self.residue * other.residue, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other.residue == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return self * GFElem(pow(other.residue, -1, self.p), self.p)

    def __bool__(self):
        return self.residue != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.residue == other % self.p
        if isinstance(other, GFElem):
            return self.p == other.p and self.residue == other.residue
        return NotImplemented

    def __hash__(self):
        return hash(("GFElem", self.p, self.residue))

    def __repr__(self):
        return f"{self.residue} (mod {self.p})"


class FieldQ:
    """Coefficient field adapter for Q: Python's exact rationals.  A value
    stays an `int` until a non-integer enters it, and is then a `Fraction`."""

    name = "Q"

    zero = 0
    one = 1

    @staticmethod
    def from_int(k: Scalar) -> Scalar:
        return k


class FieldGF:
    """Coefficient field adapter for F_p, p prime."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"
        self.zero = GFElem(0, p)
        self.one = GFElem(1, p)

    def from_int(self, k) -> GFElem:
        if isinstance(k, Fraction):
            if k.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return GFElem(k.numerator, self.p) / GFElem(k.denominator, self.p)
        return GFElem(int(k), self.p)

    def __eq__(self, other):
        return isinstance(other, FieldGF) and other.p == self.p

    def __hash__(self):
        return hash(("FieldGF", self.p))


QQ = FieldQ()
