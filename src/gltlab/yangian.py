"""Degree-truncated Yangian of gl_n via the RTT presentation.

The defining commutation rules are not transcribed from index formulas:
they are extracted programmatically as the u^{-r} v^{-s} coefficients of

    R(u-v) T(u)_1 T(v)_2 - T(v)_2 T(u)_1 R(u-v),   R(u) = 1 - u^{-1} P,

with T(u) = 1 + sum_r t^{(r)} u^{-r} and (u-v)^{-1} expanded as a series in
v/u.  Generators t^{(r)}_{ij} have degree r; the algebra is truncated at a
total degree bound m and any operation that would need a higher degree
fails loudly with TruncationError.

The extracted relations have integer coefficients, so normal forms are
computed over `int` by the one memoized loop `lincomb.normal_form` (one memo
per rewriting strategy), and elements hold `int` or `Fraction` coefficients.
A prime field enters only in `pbw_report(n, m, p)`, which takes the rank of
the integer normal forms mod p.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .field import check_prime
from .lincomb import axpy, mul_via, normal_form
from .linalg import rank_sparse
from .ugl import UElement

YGen = tuple[int, int, int]  # (level r, row i, col j)


class TruncationError(Exception):
    """An operation exceeded the configured degree truncation."""


def word_degree(w: tuple[YGen, ...]) -> int:
    return sum(g[0] for g in w)


class RelationTable:
    """Commutation rules of Y(gl_n) extracted from the RTT product."""

    def __init__(self, n: int, rmax: int):
        self.n = n
        self.rmax = rmax
        self._expr = self._build()

    # Elements of the auxiliary algebra are stored as
    #   {((i,j),(k,l)): {(pu, pv): {word: int}}}
    # with words = tuples of YGen and pu, pv the powers of u and v.

    def _tmat(self, var: str):
        n, rmax = self.n, self.rmax
        out: dict = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                series: dict = {}
                if i == j:
                    series[(0, 0)] = {(): 1}
                for r in range(1, rmax + 1):
                    pw = (-r, 0) if var == "u" else (0, -r)
                    series[pw] = {((r, i, j),): 1}
                for k in range(1, n + 1):
                    if var == "u":
                        out[((i, j), (k, k))] = series
                    else:
                        out[((k, k), (i, j))] = series
        return out

    def _rmat(self):
        n, rmax = self.n, self.rmax
        out: dict = {}
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                out[((i, i), (k, k))] = {(0, 0): {(): 1}}
        # -(u-v)^{-1} P = -sum_h u^{-1-h} v^h P, P[(i,j),(k,l)] = d_jk d_il.
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                ser = out.setdefault(((i, j), (j, i)), {})
                for h in range(rmax + 1):
                    ser[(-1 - h, h)] = {(): -1}
        return out

    def _mat_mul(self, x: dict, y: dict) -> dict:
        n, rmax = self.n, self.rmax
        out: dict = {}
        for ((i, a), (k, b)), xs in x.items():
            for j in range(1, n + 1):
                for l in range(1, n + 1):
                    ys = y.get(((a, j), (b, l)))
                    if not ys:
                        continue
                    tgt = out.setdefault(((i, j), (k, l)), {})
                    for (pu1, pv1), words1 in xs.items():
                        for (pu2, pv2), words2 in ys.items():
                            pu, pv = pu1 + pu2, pv1 + pv2
                            if pu < -(2 * rmax + 1) or abs(pv) > 2 * rmax + 1:
                                continue
                            bucket = tgt.setdefault((pu, pv), {})
                            for w1, c1 in words1.items():
                                axpy(bucket, c1, {w1 + w2: c2 for w2, c2
                                                  in words2.items()})
        return out

    @staticmethod
    def _sub(x: dict, y: dict) -> dict:
        out = {k: {pw: dict(ws) for pw, ws in v.items()} for k, v in x.items()}
        for key, ys in y.items():
            tgt = out.setdefault(key, {})
            for pw, words in ys.items():
                axpy(tgt.setdefault(pw, {}), -1, words)
        return out

    def _build(self) -> dict:
        r = self._rmat()
        t1 = self._tmat("u")
        t2 = self._tmat("v")
        lhs = self._mat_mul(self._mat_mul(r, t1), t2)
        rhs = self._mat_mul(self._mat_mul(t2, t1), r)
        return self._sub(lhs, rhs)

    def relation(self, r: int, i: int, j: int, s: int, k: int, l: int) -> dict:
        """The vanishing element at the u^{-r} v^{-s} coefficient."""
        if not (1 <= r <= self.rmax and 1 <= s <= self.rmax):
            raise ValueError("relation levels out of range")
        entry = self._expr.get(((i, j), (k, l)), {})
        return dict(entry.get((-r, -s), {}))

    def tail(self, a: YGen, b: YGen) -> dict:
        """Words T with a.b = b.a + T; strictly smaller total degree."""
        (r, i, j), (s, k, l) = a, b
        out = axpy({}, -1, self.relation(r, i, j, s, k, l))
        return axpy(out, 1, {(a, b): 1, (b, a): -1})


class TruncatedYangian:
    """Y(gl_n) truncated at total degree m, over Q."""

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        self.table = RelationTable(n, m)
        self._memos = ({}, {})  # integer normal forms, per strategy

    def gens(self) -> list[YGen]:
        return [(r, i, j)
                for r in range(1, self.m + 1)
                for i in range(1, self.n + 1)
                for j in range(1, self.n + 1)]

    def nf(self, w: tuple[YGen, ...]) -> dict:
        """Normal form of a free word as {sorted word: int}.

        The result is the memo's own dict: callers must not mutate it.
        """
        self._check_degree(w)
        return normal_form(tuple(w), self.table.tail, self._memos[0])

    def nf_alt(self, w: tuple[YGen, ...]) -> dict:
        """Same normal form via the rightmost-inversion strategy; also the
        memo's own dict."""
        self._check_degree(w)
        return normal_form(tuple(w), self.table.tail, self._memos[1], True)

    def _check_degree(self, w):
        if word_degree(w) > self.m:
            raise TruncationError(
                f"word degree {word_degree(w)} exceeds truncation {self.m}")

    # -- element constructors ------------------------------------------------

    def zero(self) -> "YElement":
        return YElement(self, {})

    def one(self) -> "YElement":
        return YElement(self, {(): 1})

    def gen(self, r: int, i: int, j: int) -> "YElement":
        if r > self.m:
            raise TruncationError(f"generator level {r} above truncation {self.m}")
        return YElement(self, {((r, i, j),): 1})

    def from_word(self, w) -> "YElement":
        return YElement(self, self.nf(tuple(w)))

    def sorted_monomials(self, max_deg: int) -> list[tuple[YGen, ...]]:
        """All PBW monomials of total degree <= max_deg."""
        gens = self.gens()
        out: list[tuple[YGen, ...]] = []

        def rec(start: int, acc: list, deg: int):
            out.append(tuple(acc))
            for gi in range(start, len(gens)):
                g = gens[gi]
                if deg + g[0] <= max_deg:
                    acc.append(g)
                    rec(gi, acc, deg + g[0])
                    acc.pop()

        rec(0, [], 0)
        return sorted(out)

    def all_words(self, max_deg: int):
        gens = [g for g in self.gens() if g[0] <= max_deg]

        def rec(acc: list, deg: int):
            yield tuple(acc)
            for g in gens:
                if deg + g[0] <= max_deg:
                    acc.append(g)
                    yield from rec(acc, deg + g[0])
                    acc.pop()

        yield from rec([], 0)


class YElement:
    """Normal-form element of a TruncatedYangian."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: TruncatedYangian, terms=None):
        self.algebra = algebra
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((word_degree(w) for w in self.terms), default=0)

    def scale(self, c) -> "YElement":
        return YElement(self.algebra, {w: v * c for w, v in self.terms.items()})

    def __add__(self, other: "YElement") -> "YElement":
        return YElement(self.algebra, axpy(dict(self.terms), 1, other.terms))

    def __neg__(self) -> "YElement":
        return self.scale(-1)

    def __sub__(self, other: "YElement") -> "YElement":
        return self + (-other)

    def __mul__(self, other: "YElement") -> "YElement":
        alg = self.algebra
        return YElement(alg, mul_via(self.terms, other.terms, alg.nf))

    def __eq__(self, other) -> bool:
        if not isinstance(other, YElement):
            return NotImplemented
        return self.terms == other.terms

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms):
            body = "".join(f"t[{r};{i},{j}]" for r, i, j in w) or "1"
            parts.append(f"{self.terms[w]}*{body}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"YElement({self.to_text()})"


# ---------------------------------------------------------------------------
# Matrix series in u^{-1} with noncommutative-ring entries.

class MatrixSeries:
    """n x n matrix of truncated series sum_k C_k u^{-k}, 0 <= k <= order.

    Entries of C_k live in any ring with +, -, *, scale(Fraction) and
    is_zero (UElement or YElement here).  `one`/`zero` supply the ring
    constants.
    """

    def __init__(self, n: int, order: int, one, zero, coeffs=None):
        self.n = n
        self.order = order
        self.one = one
        self.zero = zero
        self.coeffs = coeffs if coeffs is not None else {
            k: [[zero for _ in range(n)] for _ in range(n)]
            for k in range(order + 1)
        }

    @classmethod
    def identity(cls, n: int, order: int, one, zero) -> "MatrixSeries":
        s = cls(n, order, one, zero)
        for i in range(n):
            s.coeffs[0][i][i] = one
        return s

    def copy(self) -> "MatrixSeries":
        return MatrixSeries(self.n, self.order, self.one, self.zero,
                            {k: [row[:] for row in mat]
                             for k, mat in self.coeffs.items()})

    def is_unital(self) -> bool:
        c0 = self.coeffs[0]
        return all((c0[i][j] - self.one if i == j else c0[i][j]).is_zero()
                   for i in range(self.n) for j in range(self.n))

    def entry(self, k: int, i: int, j: int):
        return self.coeffs[k][i - 1][j - 1]

    def set_entry(self, k: int, i: int, j: int, value):
        self.coeffs[k][i - 1][j - 1] = value

    def __mul__(self, other: "MatrixSeries") -> "MatrixSeries":
        if self.n != other.n or self.order != other.order:
            raise ValueError("series shape mismatch")
        out = MatrixSeries(self.n, self.order, self.one, self.zero)
        for k1, a in self.coeffs.items():
            for k2, b in other.coeffs.items():
                k = k1 + k2
                if k > self.order:
                    continue
                tgt = out.coeffs[k]
                for i in range(self.n):
                    for s in range(self.n):
                        v = a[i][s]
                        if v.is_zero():
                            continue
                        for j in range(self.n):
                            if not b[s][j].is_zero():
                                tgt[i][j] = tgt[i][j] + v * b[s][j]
        return out

    def __add__(self, other: "MatrixSeries") -> "MatrixSeries":
        return self._entrywise(other, lambda x, y: x + y)

    def __sub__(self, other: "MatrixSeries") -> "MatrixSeries":
        return self._entrywise(other, lambda x, y: x - y)

    def _entrywise(self, other: "MatrixSeries", op) -> "MatrixSeries":
        return MatrixSeries(self.n, self.order, self.one, self.zero, {
            k: [[op(x, y) for x, y in zip(r1, r2)]
                for r1, r2 in zip(mat, other.coeffs[k])]
            for k, mat in self.coeffs.items()})

    def shift(self, s) -> "MatrixSeries":
        """Substitute u -> u + s and re-expand in powers of u^{-1}."""
        s = Fraction(s)
        out = MatrixSeries(self.n, self.order, self.one, self.zero)
        for j, mat in self.coeffs.items():
            if j == 0:
                out.coeffs[0] = [row[:] for row in mat]
                continue
            for k in range(j, self.order + 1):
                c = Fraction((-1) ** (k - j) * math.comb(k - 1, k - j)) * s ** (k - j)
                if not c:
                    continue
                for a in range(self.n):
                    for b in range(self.n):
                        if not mat[a][b].is_zero():
                            out.coeffs[k][a][b] = out.coeffs[k][a][b] + \
                                mat[a][b].scale(c)
        return out

    def negate_u(self) -> "MatrixSeries":
        out = self.copy()
        for k in range(1, self.order + 1, 2):
            out.coeffs[k] = [[-x for x in row] for row in out.coeffs[k]]
        return out

    def invert(self) -> "MatrixSeries":
        """Geometric-series inverse; requires a unital constant term."""
        if not self.is_unital():
            raise ValueError("series inversion needs unital constant term")
        ident = MatrixSeries.identity(self.n, self.order, self.one, self.zero)
        x = ident - self  # strictly positive powers of u^{-1}
        out = ident.copy()
        power = ident
        for _ in range(self.order):
            power = power * x
            out = out + power
        return out


def generator_series(algebra: TruncatedYangian) -> MatrixSeries:
    """T(u) = 1 + sum_r t^{(r)} u^{-r} with entries in the algebra."""
    n, m = algebra.n, algebra.m
    s = MatrixSeries.identity(n, m, algebra.one(), algebra.zero())
    for r in range(1, m + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                s.set_entry(r, i, j, algebra.gen(r, i, j))
    return s


def transformed_series(algebra: TruncatedYangian, kind: str, **params) -> MatrixSeries:
    t = generator_series(algebra)
    if kind == "shift":
        return t.shift(params["s"])
    if kind == "negate-u":
        return t.negate_u()
    if kind == "invert":
        return t.invert()
    if kind == "omega":
        return t.negate_u().shift(params.get("c", 0)).invert()
    raise ValueError(f"unknown transformation {kind!r}")


def substitution_images(series: MatrixSeries, algebra: TruncatedYangian) -> dict:
    """Generator images t^{(r)}_{ij} -> coefficient of u^{-r} in entry ij."""
    return {(r, i, j): series.entry(r, i, j)
            for r in range(1, algebra.m + 1)
            for i in range(1, algebra.n + 1)
            for j in range(1, algebra.n + 1)}


def apply_substitution(images: dict, word_dict: dict,
                       algebra: TruncatedYangian, reverse: bool = False) -> YElement:
    """Image of a free-word combination under a generator substitution."""
    acc = algebra.zero()
    for w, c in word_dict.items():
        img = algebra.one()
        seq = reversed(w) if reverse else w
        for g in seq:
            img = img * images[g]
        acc = acc + img.scale(c)
    return acc


ANTI_KINDS = {"negate-u", "invert"}


def automorphism_check(kind: str, n: int, m: int, **params) -> list[dict]:
    """Check that a series transformation (anti-)preserves all relations
    of total degree <= m, as exact zero normal forms."""
    algebra = TruncatedYangian(n, m)
    series = transformed_series(algebra, kind, **params)
    images = substitution_images(series, algebra)
    reverse = kind in ANTI_KINDS
    checks = []
    worst = None
    ok = True
    for r in range(1, m):
        for s in range(1, m - r + 1):
            for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
                rel = algebra.table.relation(r, i, j, s, k, l)
                if not rel:
                    continue
                img = apply_substitution(images, rel, algebra, reverse=reverse)
                if not img.is_zero():
                    ok = False
                    worst = (r, i, j, s, k, l, img.to_text())
    label = f"{kind} {'anti-' if reverse else ''}preserves relations (deg <= {m})"
    out = {"check": label, "pass": ok}
    if worst:
        out["failure"] = worst
    checks.append(out)
    return checks


def eval_hom(y: YElement) -> UElement:
    """Evaluation to U(gl_n): level 1 -> E_ij, higher levels -> 0."""
    n = y.algebra.n
    acc = UElement.zero(n)
    for w, c in y.terms.items():
        if any(r > 1 for r, _, _ in w):
            continue
        word_ = tuple((i, j) for _, i, j in w)
        acc = acc + UElement.from_word(n, word_).scale(c)
    return acc


def pbw_report(n: int, m: int, p: int | None = None) -> dict:
    """Span dimensions of normal forms vs sorted-monomial counts, per degree,
    over Q or, given a prime p, over GF(p)."""
    if p is not None:
        check_prime(p)
    algebra = TruncatedYangian(n, m)
    rows_by_deg: dict[int, list] = {d: [] for d in range(m + 1)}
    for w in algebra.all_words(m):
        rows_by_deg[word_degree(w)].append(algebra.nf(w))
    dims = []
    expected = []
    rows: list = []
    for d in range(m + 1):
        rows.extend(rows_by_deg[d])
        dims.append(rank_sparse(rows, p))
        expected.append(len(algebra.sorted_monomials(d)))
    return {"field": "Q" if p is None else f"GF({p})", "n": n, "m": m,
            "dims": dims, "expected": expected,
            "pass": dims == expected}
