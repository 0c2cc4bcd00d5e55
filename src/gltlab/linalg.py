"""Exact rank by fraction-free Gaussian elimination.

Rows over Q hold int and Fraction entries; a row with a Fraction is first
scaled to int by the lcm of its denominators, which keeps the rank. The
elimination then stays in int: a row is reduced by a pivot row as
a*row - b*pivot, where a, b are the two pivot-column entries over their gcd
(Bareiss 1968), and every stored pivot row is divided by the gcd of its
entries. Rows over a prime field hold GFElem entries and take the same
update without the gcd step.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .lincomb import axpy


def rank_dense(rows: list[list]) -> int:
    """Rank of a dense matrix given as a list of rows."""
    return rank_sparse(dict(enumerate(r)) for r in rows)


def rank_sparse(rows: Iterable[dict]) -> int:
    """Rank of a matrix given as sparse rows (dicts column -> entry).

    Column keys must be hashable and mutually comparable (ints, or tuples
    of them); the least key of a row is its pivot column. Entries of
    reduced rows are kept sparse, which matters for the large symmetric-power
    invariant computations. The rows given are not modified.
    """
    pivots: dict = {}  # pivot column -> reduced row
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        dens = [v.denominator for v in row.values() if isinstance(v, Fraction)]
        if dens:
            lcm = math.lcm(*dens)
            row = {c: v.numerator * (lcm // v.denominator)
                   for c, v in row.items()}
        while row:
            # Deterministic pivot choice keeps runs reproducible.
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                lead = row[col]
                if isinstance(lead, int):
                    g = math.gcd(*row.values())
                    g = -g if lead < 0 else g
                    if g != 1:
                        row = {c: v // g for c, v in row.items()}
                pivots[col] = row
                break
            a, b = piv[col], row[col]
            if isinstance(a, int):
                g = math.gcd(a, b)
                a, b = a // g, b // g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            axpy(row, -b, piv)
    return len(pivots)
