"""Centralizer realization of the truncated Yangian inside U(gl_M).

With M = N + n, the small gl_n block sits at indices 1..n and the large
gl_N block at n+1..M.  The map psi sends t^{(r)}_{ij} (i, j <= n) to the
u^{-r} coefficient of entry (i, j) of the series inverse of

    S(u) = (1 + E u^{-1}) |_{u -> -u}  then  u -> u + M  = 1 - E (u + M)^{-1},

where E is the M x M matrix of generators E_{ab}.  The sign/offset
convention was fixed by a scan: membership in the gl_N centralizer and the
homomorphism property hold for every shift constant and either sign, but
only the negate-first composition gives psi(t^{(1)}_{ij}) = E_ij and
positive chain leading symbols at every level; the shift constant is taken
to be M.  The map zed sends x_k to the Gelfand invariant tr(E^k), and
phi = psi (x) zed.

psi in closed form.  (u + M)^{-1} is a scalar, so S(u)^{-1} = 1 +
sum_{p >= 1} E^p (u + M)^{-p}, and (u + M)^{-p} = sum_{r >= p} C(r-1, p-1)
(-M)^{r-p} u^{-r} gives

    psi(t^{(r)}_{ij}) = sum_{p=1..r} C(r-1, p-1) (-M)^{r-p} (E^p)_{ij}.

Only the n small-block rows of the powers of E are read, and no truncation
order enters.  `psi_series` builds those rows over int, one power at a time
by (E^p)_{ib} = sum_s (E^{p-1})_{is} E_{sb}; every psi image has integer
coefficients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .field import interpolate
from .lincomb import axpy, derivation, mul_via
from .linalg import rank_sparse
from .ugl import (UElement, ad, ad_table, centralizer_membership, gelfand,
                  lie_generators, straighten_word)
from .yangian import RelationTable, TruncatedYangian, YGen


@dataclass(frozen=True)
class BlockConvention:
    """Index blocks of gl_M: small gl_n at 1..n, large gl_N at n+1..M."""

    n: int
    N: int

    def __post_init__(self):
        if self.n < 1 or self.N < 1:
            raise ValueError("block sizes must be >= 1")

    @property
    def M(self) -> int:
        return self.N + self.n

    @property
    def small_block(self) -> range:
        return range(1, self.n + 1)

    @property
    def large_block(self) -> range:
        return range(self.n + 1, self.M + 1)


# (n, N) -> (powers, images), grown on demand by psi_series:
# powers[p][i - 1] is row i of E^p as {column: {word: int}}.
_series_cache: dict = {}


def psi_series(conv: BlockConvention, r: int) -> list:
    """The psi images through level r: out[r - 1][i - 1][j - 1] is
    psi(t^{(r)}_{ij}), read from the cached table of conv."""
    M = conv.M
    powers, images = _series_cache.setdefault(
        (conv.n, conv.N),
        ([[{i: {(): 1}} for i in conv.small_block]], []))
    while len(images) < r:
        rows = []
        for row in powers[-1]:
            nxt: dict = {}
            for s, x in row.items():
                for b in range(1, M + 1):
                    axpy(nxt.setdefault(b, {}), 1,
                         mul_via(x, {((s, b),): 1}, straighten_word))
            rows.append({b: v for b, v in nxt.items() if v})
        powers.append(rows)
        level = len(powers) - 1
        images.append([[UElement(M, _level(powers, level, M, i, j))
                        for j in conv.small_block] for i in conv.small_block])
    return images


def _level(powers, r: int, M: int, i: int, j: int) -> dict:
    """psi(t^{(r)}_{ij}) over int: sum_p C(r-1, p-1) (-M)^(r-p) (E^p)_{ij}."""
    acc: dict = {}
    for p in range(1, r + 1):
        axpy(acc, math.comb(r - 1, p - 1) * (-M) ** (r - p),
             powers[p][i - 1].get(j, {}))
    return acc


def psi(conv: BlockConvention, r: int, i: int, j: int) -> UElement:
    """Image of t^{(r)}_{ij} in U(gl_M); filtration degree <= r."""
    if r < 1 or not (1 <= i <= conv.n and 1 <= j <= conv.n):
        raise ValueError("psi needs r >= 1 and indices in the small block")
    return psi_series(conv, r)[r - 1][i - 1][j - 1]


def zed(k: int, conv: BlockConvention) -> UElement:
    """Image of x_k: the Gelfand invariant tr(E^k) of U(gl_M)."""
    return gelfand(k, conv.M)


def phi(conv: BlockConvention, ygens, xks) -> UElement:
    """Image of a product of t^{(r)}_{ij} generators and x_k generators."""
    ygens = tuple(ygens)
    xks = tuple(xks)
    deg = sum(g[0] for g in ygens) + sum(xks)
    acc = UElement.one(conv.M)
    for (r, i, j) in ygens:
        acc = acc * psi(conv, r, i, j)
    for k in xks:
        acc = acc * zed(k, conv)
    if acc.degree() > deg:
        raise AssertionError("phi image exceeded its filtration degree")
    return acc


# ---------------------------------------------------------------------------
# Checks.  Each returns {check, parameters, expected, got, pass}.

def _report(check: str, parameters: dict, expected, got) -> dict:
    return {"check": check, "parameters": parameters,
            "expected": expected, "got": got, "pass": expected == got}


def membership_check(conv: BlockConvention, rmax: int) -> dict:
    """Every psi image commutes with every large-block generator."""
    bad = []
    block = list(conv.large_block)
    for r in range(1, rmax + 1):
        for i in conv.small_block:
            for j in conv.small_block:
                if not centralizer_membership(psi(conv, r, i, j), block):
                    bad.append([r, i, j])
    return _report("psi images lie in the gl_N centralizer",
                   {"n": conv.n, "N": conv.N, "rmax": rmax},
                   [], bad)


def homomorphism_check(conv: BlockConvention, m: int) -> dict:
    """All Yangian relations of total degree <= m map to 0 under psi."""
    table = RelationTable(conv.n, m)
    bad = []
    for r in range(1, m):
        for s in range(1, m - r + 1):
            for i, j, k, l in itertools.product(conv.small_block, repeat=4):
                rel = table.relation(r, i, j, s, k, l)
                acc = UElement.zero(conv.M)
                for w, c in rel.items():
                    acc = acc + phi(conv, w, ()).scale(c)
                if not acc.is_zero():
                    bad.append([r, i, j, s, k, l])
    return _report("psi preserves Yangian relations",
                   {"n": conv.n, "N": conv.N, "m": m}, [], bad)


def zed_central_check(conv: BlockConvention, kmax: int) -> dict:
    """zed images are central in U(gl_M), tested on the `lie_generators`
    of gl_M; a failure lists [k, a, b] for generators E_ab of that set."""
    bad = []
    for k in range(1, kmax + 1):
        z = zed(k, conv)
        bad += [[k, a, b] for a, b in lie_generators(range(1, conv.M + 1))
                if ad(z.terms, (a, b))]
    return _report("zed images are central",
                   {"n": conv.n, "N": conv.N, "kmax": kmax}, [], bad)


def zed_commutes_psi_check(conv: BlockConvention, kmax: int, rmax: int) -> dict:
    """[zed(k), psi(...)] = 0, by the Leibniz rule over the letters of each
    psi image, as in UElement.commutator.  The letter brackets [zed(k), E_g]
    come from `ad_table` over all of gl_M, once per k: straightened by the
    Leibniz rule over zed(k) only for the 2M - 1 `lie_generators`, and by
    the Jacobi identity for the rest, which is free when zed(k) is central
    and exact when it is not."""
    bad = []
    for k in range(1, kmax + 1):
        bracket = ad_table(zed(k, conv).terms, range(1, conv.M + 1))
        for r in range(1, rmax + 1):
            for i in conv.small_block:
                for j in conv.small_block:
                    if derivation(psi(conv, r, i, j).terms,
                                  bracket.__getitem__, straighten_word):
                        bad.append([k, r, i, j])
    return _report("zed commutes with psi images",
                   {"n": conv.n, "N": conv.N, "kmax": kmax, "rmax": rmax},
                   [], bad)


# ---------------------------------------------------------------------------
# Injectivity rank.

def a0_monomials(max_deg: int) -> list[tuple[int, ...]]:
    """Multisets of x_k generators (k >= 1) with total degree <= max_deg,
    as nonincreasing tuples."""
    out: list[tuple[int, ...]] = []

    def rec(largest: int, acc: list, deg: int):
        out.append(tuple(acc))
        for k in range(min(largest, max_deg - deg), 0, -1):
            acc.append(k)
            rec(k, acc, deg + k)
            acc.pop()

    rec(max_deg, [], 0)
    return sorted(out)


def filtered_basis(n: int, m: int) -> list[tuple[tuple[YGen, ...], tuple[int, ...]]]:
    """PBW basis of F^m(Y_n (x) A_0): sorted Yangian monomial times x-multiset."""
    algebra = TruncatedYangian(n, m)
    out = []
    for ymono in algebra.sorted_monomials(m):
        ydeg = sum(g[0] for g in ymono)
        for xmono in a0_monomials(m - ydeg):
            out.append((ymono, xmono))
    return sorted(out)


def injectivity_rank(m: int, conv: BlockConvention) -> tuple[int, int]:
    """(rank of phi on F^m(Y_n (x) A_0), dim of that filtration space)."""
    basis = filtered_basis(conv.n, m)
    rows = [phi(conv, ymono, xmono).terms for ymono, xmono in basis]
    return rank_sparse(rows), len(basis)


def injectivity_check(m: int, conv: BlockConvention) -> dict:
    rank, expected = injectivity_rank(m, conv)
    return _report("phi is injective on the filtration component",
                   {"n": conv.n, "N": conv.N, "m": m}, expected, rank)


# ---------------------------------------------------------------------------
# Interpolation in t of structure coefficients.

def interp_structure(coeff_fn, n_samples: list[int], degree_bound: int,
                     holdout: list[int] | None = None):
    """Interpolate N -> coeff_fn(N) as a polynomial in t and verify it on
    held-out samples; raises on residual mismatch."""
    points = [(Fraction(N0), Fraction(coeff_fn(N0))) for N0 in n_samples]
    poly = interpolate(points, degree_bound)
    for N0 in holdout or []:
        got = Fraction(coeff_fn(N0))
        if poly.evaluate(Fraction(N0)) != got:
            raise ValueError("degree bound violated or unstable pattern")
    return poly


def zed2_linear_coefficient(n: int):
    """Coefficient of the PBW monomial E[1,1] in zed(2); linear in t."""

    def coeff(N0: int) -> int:
        conv = BlockConvention(n, N0)
        return zed(2, conv).terms.get(((1, 1),), 0)

    return coeff


def zed1_squared_coefficient(n: int):
    """Coefficient of E[1,1]E[1,1] in zed(1)^2; constant in t."""

    def coeff(N0: int) -> int:
        conv = BlockConvention(n, N0)
        z = zed(1, conv)
        return (z * z).terms.get((((1, 1),) * 2), 0)

    return coeff


def interpolation_check(n: int = 1) -> dict:
    """Two reference interpolations, each with a held-out sample."""
    const = interp_structure(zed1_squared_coefficient(n), [2, 3], 0, [4])
    lin = interp_structure(zed2_linear_coefficient(n), [2, 3], 1, [4, 5])
    got = {"zed1_squared": [str(c) for c in const.coeffs],
           "zed2_linear": [str(c) for c in lin.coeffs]}
    expected = {"zed1_squared": ["1"],
                "zed2_linear": [str(1 - n), "-1"]}
    return _report("structure coefficients interpolate in t",
                   {"n": n, "samples": [2, 3], "holdout": [4, 5]},
                   expected, got)
