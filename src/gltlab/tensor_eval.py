"""Evaluation functor: V becomes Q^N, diagrams become exact linear maps.

Index convention: legs map to tensor factors left-to-right; V* carries the
dual basis with pairing <e^i, e_j> = delta_ij, so every edge of a diagram
realizes as a Kronecker delta between its two leg indices and a crossing is
a literal factor swap.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .diagrams import V, VDUAL, BrauerDiagram, Morphism, compose, iter_diagrams
from .lincomb import axpy
from .linalg import rank_sparse

MAX_LEGS = 8


@dataclass
class DenseTensorMap:
    """Exact matrix of a realized morphism, stored sparsely by (row, col)."""

    source: tuple
    target: tuple
    N: int
    entries: dict = field(default_factory=dict)  # (row, col) -> Fraction

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseTensorMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.N == other.N
                and _clean(self.entries) == _clean(other.entries))

    def matmul(self, other: "DenseTensorMap") -> "DenseTensorMap":
        """self o other (apply other first)."""
        if other.target != self.source or other.N != self.N:
            raise ValueError("shape mismatch in realized composition")
        by_col: dict[int, dict] = {}
        for (r, c), v in self.entries.items():
            by_col.setdefault(c, {})[r] = v
        cols: dict[int, dict] = {}
        for (r, c), v in other.entries.items():
            axpy(cols.setdefault(c, {}), v, by_col.get(r, {}))
        out = {(rr, c): v for c, col in cols.items() for rr, v in col.items()}
        return DenseTensorMap(other.source, self.target, self.N, out)

    def kron(self, other: "DenseTensorMap") -> "DenseTensorMap":
        """Tensor (Kronecker) product, self's factors first."""
        if other.N != self.N:
            raise ValueError("mixed N in tensor product")
        n = self.N
        ss, so = len(self.source), len(other.source)
        ts, to = len(self.target), len(other.target)
        out: dict = {}
        for (r1, c1), v1 in self.entries.items():
            for (r2, c2), v2 in other.entries.items():
                out[(r1 * n ** to + r2, c1 * n ** so + c2)] = v1 * v2
        return DenseTensorMap(self.source + other.source,
                              self.target + other.target, n, out)

    def flat_row(self) -> dict:
        return dict(self.entries)


def _clean(entries: dict) -> dict:
    return {k: v for k, v in entries.items() if v}


def _multi_index(values: list[int], n: int) -> int:
    acc = 0
    for v in values:
        acc = acc * n + v
    return acc


def realize_diagram(d: BrauerDiagram, n: int) -> DenseTensorMap:
    ns, nt = len(d.source), len(d.target)
    if ns + nt > MAX_LEGS:
        raise ValueError(f"too many legs for realization cap ({MAX_LEGS})")
    edges = d.pairs
    entries: dict = {}
    for assignment in itertools.product(range(n), repeat=len(edges)):
        leg_val = {}
        for (a, b), v in zip(edges, assignment):
            leg_val[a] = v
            leg_val[b] = v
        col = _multi_index([leg_val[i] for i in range(ns)], n)
        row = _multi_index([leg_val[ns + i] for i in range(nt)], n)
        key = (row, col)
        entries[key] = entries.get(key, Fraction(0)) + 1
    if not edges:
        entries[(0, 0)] = Fraction(1)
    return DenseTensorMap(d.source, d.target, n, entries)


def realize(f: Morphism, n: int) -> DenseTensorMap:
    """Evaluate the parameter at t = n and realize f on Q^n tensor powers."""
    if n < 1:
        raise ValueError("N must be >= 1")
    out = DenseTensorMap(f.source, f.target, n, {})
    for d, c in f.terms.items():
        scalar = c.evaluate(n)
        if not scalar:
            continue
        axpy(out.entries, scalar, realize_diagram(d, n).entries)
    return out


def functoriality_check(f: Morphism, g: Morphism, n: int) -> bool:
    """realize(g o f) == realize(g) . realize(f), exactly."""
    lhs = realize(compose(f, g), n)
    rhs = realize(g, n).matmul(realize(f, n))
    return lhs == rhs


def random_morphism(rng, source, target, max_terms: int = 2) -> Morphism:
    """Random sparse combination of diagrams with small Fraction coefficients."""
    pool = list(iter_diagrams(source, target))
    if not pool:
        raise ValueError("empty hom space")
    terms = {}
    for d in rng.sample(pool, min(len(pool), rng.randint(1, max_terms))):
        terms[d] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return Morphism(source, target, terms)


def random_composable_pair(rng, max_word: int = 3):
    """Random (f, g) with g o f defined, small enough to realize."""
    letters = (V, VDUAL)
    while True:
        a = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_word)))
        b = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_word)))
        c = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_word)))
        if (len(a) + len(b)) % 2 or (len(b) + len(c)) % 2:
            continue
        try:
            f = random_morphism(rng, a, b)
            g = random_morphism(rng, b, c)
        except ValueError:
            continue
        return f, g


def functoriality_suite(count: int, seed: int, n_values=(2, 3, 4)) -> dict:
    """Exact functoriality on `count` seeded random composable pairs."""
    rng = random.Random(seed)
    bad = 0
    for _ in range(count):
        f, g = random_composable_pair(rng)
        for n in n_values:
            if not functoriality_check(f, g, n):
                bad += 1
    return {"check": "evaluation functor preserves composition",
            "parameters": {"count": count, "seed": seed,
                           "N": list(n_values)},
            "expected": 0, "got": bad, "pass": bad == 0}


def faithfulness_rank(sig: tuple, n: int) -> int:
    """Rank of the realization map on the diagram basis of End(sig)."""
    rows = []
    for d in iter_diagrams(sig, sig):
        rows.append(realize_diagram(d, n).flat_row())
    return rank_sparse(rows)
