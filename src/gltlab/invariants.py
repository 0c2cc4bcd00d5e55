"""Graded invariants of S((V + 1^n)* (x) (V + 1^n)) as pair-strings.

A pair-string of degree m is a word of m symbol pairs, each pair holding a
white slot (circle = V*-leg, or square(i) = the i-th trivial summand) and a
black slot (circle = V-leg, or square(j)); circle legs are matched by arcs
(white to black).  Every such invariant decomposes into connected pieces:
chains a_k (square ends, k-1 interior V-hops) and cycles b_k (closed
V-loops).  The graded dimension is verified three independent ways:
multiset enumeration of connected types, the power series
prod_k (1-q^k)^{-(n^2+1)}, and the exact nullity of the gl_N action on the
symmetric power.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .centralizer import BlockConvention, psi
from .lincomb import axpy, derivation, mul_via
from .linalg import rank_sparse
from .ugl import commutator_terms

# ---------------------------------------------------------------------------
# Pair strings.


@dataclass(frozen=True)
class PairSymbol:
    """One white-black pair; None marks a circle, an int a square index."""

    left: int | None   # white slot
    right: int | None  # black slot

    def to_text(self) -> str:
        w = "Wc" if self.left is None else f"Ws({self.left})"
        b = "Bc" if self.right is None else f"Bs({self.right})"
        return w + b


@dataclass(frozen=True)
class PairString:
    pairs: tuple[PairSymbol, ...]
    arcs: frozenset  # of frozensets {white leg, black leg}, legs 1-based

    def __post_init__(self):
        whites = {2 * p + 1 for p, s in enumerate(self.pairs) if s.left is None}
        blacks = {2 * p + 2 for p, s in enumerate(self.pairs) if s.right is None}
        seen: set[int] = set()
        for arc in self.arcs:
            a, b = sorted(arc)
            if not ((a in whites and b in blacks) or (a in blacks and b in whites)):
                raise ValueError(f"arc {sorted(arc)} must join a white circle "
                                 "to a black circle")
            if a in seen or b in seen:
                raise ValueError("leg matched twice")
            seen.update((a, b))
        if seen != whites | blacks:
            raise ValueError("every circle leg must be matched")

    @property
    def degree(self) -> int:
        return len(self.pairs)

    def to_text(self) -> str:
        body = "".join(s.to_text() for s in self.pairs)
        arcs = "".join(f"({a},{b})" for a, b in sorted(tuple(sorted(x))
                                                       for x in self.arcs))
        return f"{body};arcs={arcs}"

    @classmethod
    def from_text(cls, text: str) -> "PairString":
        body, _, arcpart = text.partition(";arcs=")
        toks = re.findall(r"Wc|Ws\((\d+)\)|Bc|Bs\((\d+)\)|(.)", body)
        symbols = []
        slots: list[int | None] = []
        for ws, bs, junk in toks:
            if junk:
                raise ValueError(f"bad token {junk!r} in pair string")
            slots.append(int(ws) if ws else int(bs) if bs else None)
        raw = re.findall(r"Wc|Ws\(\d+\)|Bc|Bs\(\d+\)", body)
        if len(raw) % 2:
            raise ValueError("odd number of slots")
        for p in range(0, len(raw), 2):
            if not raw[p].startswith("W") or not raw[p + 1].startswith("B"):
                raise ValueError("each pair must be white slot then black slot")
            symbols.append(PairSymbol(slots[p], slots[p + 1]))
        arcs = frozenset(frozenset((int(a), int(b)))
                         for a, b in re.findall(r"\((\d+),(\d+)\)", arcpart))
        return cls(tuple(symbols), arcs)


@dataclass(frozen=True, order=True)
class ConnectedType:
    """Cycle(k) or Chain(k, i, j) with gl_n endpoint indices i, j."""

    kind: str  # "cycle" | "chain"
    k: int
    i: int | None = None
    j: int | None = None

    def __post_init__(self):
        if self.kind not in ("cycle", "chain") or self.k < 1:
            raise ValueError("bad connected type")
        if (self.kind == "chain") != (self.i is not None and self.j is not None):
            raise ValueError("chains carry endpoint indices; cycles do not")


def decompose(s: PairString) -> tuple[ConnectedType, ...]:
    """Split a pair string into its chains and cycles (sorted multiset)."""
    arc_of: dict[int, int] = {}
    for arc in s.arcs:
        a, b = tuple(arc)
        arc_of[a] = b
        arc_of[b] = a
    visited: set[int] = set()
    out: list[ConnectedType] = []

    def walk(p: int) -> tuple[int, int | None]:
        """Consume pairs starting at pair p; return (#pairs, end index)."""
        count = 0
        while True:
            visited.add(p)
            count += 1
            sym = s.pairs[p]
            if sym.right is not None:
                return count, sym.right
            nxt_leg = arc_of[2 * p + 2]
            nxt = (nxt_leg - 1) // 2
            if nxt in visited:
                return count, None  # closed the cycle
            p = nxt

    for p, sym in enumerate(s.pairs):
        if p in visited or sym.left is None:
            continue
        k, j = walk(p)
        out.append(ConnectedType("chain", k, sym.left, j))
    for p, sym in enumerate(s.pairs):
        if p not in visited:
            k, _ = walk(p)
            out.append(ConnectedType("cycle", k))
    return tuple(sorted(out))


def all_pair_strings(m: int, n: int):
    """Every valid pair string of degree m with square indices in 1..n."""
    white_opts = [None] + list(range(1, n + 1))
    black_opts = [None] + list(range(1, n + 1))
    for symbols in itertools.product(
            [PairSymbol(w, b) for w in white_opts for b in black_opts],
            repeat=m):
        whites = [2 * p + 1 for p, s in enumerate(symbols) if s.left is None]
        blacks = [2 * p + 2 for p, s in enumerate(symbols) if s.right is None]
        if len(whites) != len(blacks):
            continue
        for perm in itertools.permutations(blacks):
            arcs = frozenset(frozenset((w, b)) for w, b in zip(whites, perm))
            yield PairString(tuple(symbols), arcs)


# ---------------------------------------------------------------------------
# Symmetric algebra S(gl_M): monomials are sorted tuples of (a, b) entries.


def _sorted_word(w: tuple) -> dict:
    return {tuple(sorted(w)): 1}


def sym_mul(x: dict, y: dict) -> dict:
    return mul_via(x, y, _sorted_word)


SYM_ONE = {(): Fraction(1)}


def expand_type(c: ConnectedType, conv: BlockConvention) -> dict:
    """The connected type as an element of S(gl_M), V-block summed out."""
    big = conv.large_block
    out: dict = {}
    if c.kind == "chain":
        for mids in itertools.product(big, repeat=c.k - 1):
            path = (c.i,) + mids + (c.j,)
            key = tuple(sorted(zip(path, path[1:])))
            out[key] = out.get(key, Fraction(0)) + 1
    else:
        for loop in itertools.product(big, repeat=c.k):
            key = tuple(sorted(zip(loop, loop[1:] + (loop[0],))))
            out[key] = out.get(key, Fraction(0)) + 1
    return out


def expand_multiset(types, conv: BlockConvention) -> dict:
    acc = SYM_ONE
    for c in types:
        acc = sym_mul(acc, expand_type(c, conv))
    return acc


def realize_string(s: PairString, conv: BlockConvention) -> dict:
    """Direct realization: one V-index per arc, product of matrix entries."""
    arcs = sorted(tuple(sorted(a)) for a in s.arcs)
    leg_arc = {leg: ai for ai, arc in enumerate(arcs) for leg in arc}
    out: dict = {}
    for assign in itertools.product(conv.large_block, repeat=len(arcs)):
        factors = []
        for p, sym in enumerate(s.pairs):
            a = sym.left if sym.left is not None else assign[leg_arc[2 * p + 1]]
            b = sym.right if sym.right is not None else assign[leg_arc[2 * p + 2]]
            factors.append((a, b))
        key = tuple(sorted(factors))
        out[key] = out.get(key, Fraction(0)) + 1
    return out


# ---------------------------------------------------------------------------
# Graded dimensions, three ways.


def connected_types(k: int, n: int) -> list[ConnectedType]:
    return [ConnectedType("cycle", k)] + [
        ConnectedType("chain", k, i, j)
        for i in range(1, n + 1) for j in range(1, n + 1)]


def type_multisets(m: int, n: int) -> list[tuple[ConnectedType, ...]]:
    """All multisets of connected types of total degree exactly m."""
    pool = [c for k in range(1, m + 1) for c in connected_types(k, n)]
    out: list[tuple[ConnectedType, ...]] = []

    def rec(start: int, acc: list, deg: int):
        if deg == m:
            out.append(tuple(acc))
            return
        for ci in range(start, len(pool)):
            if deg + pool[ci].k <= m:
                acc.append(pool[ci])
                rec(ci, acc, deg + pool[ci].k)
                acc.pop()

    rec(0, [], 0)
    return out


def dim_graded(m: int, n: int) -> int:
    """Number of degree-m invariant types, by exhaustive enumeration."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    return len(type_multisets(m, n))


def hilbert_series(n: int, m_max: int) -> list[int]:
    """Coefficients of prod_{k>=1} (1 - q^k)^{-(n^2 + 1)} up to q^m_max."""
    series = [1] + [0] * m_max
    for k in range(1, m_max + 1):
        for _ in range(n * n + 1):
            # multiply by 1/(1-q^k): running prefix sums with stride k
            for d in range(k, m_max + 1):
                series[d] += series[d - k]
    return series


def _sym_weight(mono: tuple, conv: BlockConvention) -> tuple:
    """gl_N torus weight of a monomial in the E_ab coordinates."""
    w = [0] * conv.N
    for a, b in mono:
        if a > conv.n:
            w[a - conv.n - 1] += 1
        if b > conv.n:
            w[b - conv.n - 1] -= 1
    return tuple(w)


def weight_zero_monomials(m: int, conv: BlockConvention) -> list[tuple]:
    """The sorted degree-m monomials of torus weight 0, in lexicographic order
    (that of combinations_with_replacement over the sorted generators).

    Grows the weight letter by letter and prunes a branch once its L1 norm
    exceeds 2 x (letters left), since one E_ab moves it by at most 2; the
    last letter is looked up among the generators of the opposite weight.
    """
    if m == 0:
        return [()]
    gens = [(a, b) for a in range(1, conv.M + 1) for b in range(1, conv.M + 1)]
    wts = [_sym_weight((g,), conv) for g in gens]
    of_weight: dict = {}
    for i, w in enumerate(wts):
        of_weight.setdefault(w, []).append(i)
    out: list[tuple] = []

    def grow(start: int, prefix: tuple, wt: tuple, left: int):
        if left == 1:
            last = of_weight.get(tuple(-x for x in wt), [])
            out.extend(prefix + (gens[i],)
                       for i in last[bisect_left(last, start):])
            return
        for i in range(start, len(gens)):
            w = tuple(map(add, wt, wts[i]))
            if sum(map(abs, w)) <= 2 * (left - 1):
                grow(i, prefix + (gens[i],), w, left - 1)

    grow(0, (), (0,) * conv.N, m)
    return out


def _sym_act(a: int, b: int, mono: tuple) -> dict:
    """Derivation action of E_ab on a monomial: E_cd -> [E_ab, E_cd]."""
    return derivation({mono: 1}, lambda x: commutator_terms((a, b), x),
                      _sorted_word)


def invariant_rank(m: int, n: int, N: int) -> int:
    """dim of gl_N-block invariants in S^m(gl_M): the exact nullity over Q
    of the simple raising operators E_{a,a+1} on the weight-zero monomials.

    S^m(gl_M) is a finite-dimensional, completely reducible gl_N-module.  A
    vector of weight 0 killed by every E_{a,a+1} is a highest-weight vector
    of weight 0, so it generates the trivial module and is killed by every
    E_ab (Humphreys, Intro. to Lie Algebras, sections 20-21); invariants are
    such vectors.
    """
    conv = BlockConvention(n, N)
    zero_wt = weight_zero_monomials(m, conv)
    block = conv.large_block
    raising = list(zip(block, block[1:]))
    rows = []
    for mono in zero_wt:
        row: dict = {}
        lefts, rights = {c for c, _ in mono}, {d for _, d in mono}
        for a, b in raising:
            if b not in lefts and a not in rights:
                continue  # E_ab commutes with mono
            for img, c in _sym_act(a, b, mono).items():
                row[(a, b, img)] = Fraction(c)
        rows.append(row)
    return len(zero_wt) - rank_sparse(rows)


def dim_match_check(m: int, n: int, N: int) -> dict:
    """Three-way graded dimension comparison."""
    by_types = dim_graded(m, n)
    by_series = hilbert_series(n, m)[m]
    by_rank = invariant_rank(m, n, N)
    ok = by_types == by_series == by_rank
    return {"check": "graded dimension three-way match",
            "parameters": {"m": m, "n": n, "N": N},
            "expected": by_types,
            "got": {"types": by_types, "series": by_series, "rank": by_rank},
            "pass": ok}


def roundtrip_check(m: int, n: int, N: int) -> dict:
    """expand_multiset(decompose(s)) == realize_string(s), all strings."""
    conv = BlockConvention(n, N)
    bad = []
    total = 0
    for s in all_pair_strings(m, n):
        total += 1
        if expand_multiset(decompose(s), conv) != realize_string(s, conv):
            bad.append(s.to_text())
    return {"check": "decompose/expand round-trip",
            "parameters": {"m": m, "n": n, "N": N, "strings": total},
            "expected": [], "got": bad, "pass": not bad}


def leading_symbol_check(conv: BlockConvention, kmax: int) -> dict:
    """gr(psi(t^{(k)}_{ij})) = Chain(k,i,j) modulo the span of type multisets
    containing a Chain(1) factor."""
    bad = []
    for k in range(1, kmax + 1):
        span = [expand_multiset(ms, conv) for ms in type_multisets(k, conv.n)
                if any(c.kind == "chain" and c.k == 1 for c in ms)]
        base_rank = rank_sparse(span)
        for i in conv.small_block:
            for j in conv.small_block:
                top = psi(conv, k, i, j).top_part()
                chain = expand_type(ConnectedType("chain", k, i, j), conv)
                diff = axpy(dict(top.terms), -1, chain)
                if diff and rank_sparse(span + [diff]) != base_rank:
                    bad.append([k, i, j])
    return {"check": "psi leading symbol is the k-chain modulo Chain(1) span",
            "parameters": {"n": conv.n, "N": conv.N, "kmax": kmax},
            "expected": [], "got": bad, "pass": not bad}
