"""Exact Gaussian elimination over any of the coefficient fields.

Works generically with Fraction and GFElem entries: all that is required
of an entry is field arithmetic via operators and truthiness for a zero
test.
"""

from __future__ import annotations

from typing import Iterable

from .lincomb import axpy


def rank_dense(rows: list[list]) -> int:
    """Rank of a dense matrix given as a list of rows (destructive copy)."""
    mat = [list(r) for r in rows]
    rank = 0
    ncols = max((len(r) for r in mat), default=0)
    col = 0
    while col < ncols and rank < len(mat):
        piv = None
        for r in range(rank, len(mat)):
            if col < len(mat[r]) and mat[r][col]:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        pval = prow[col]
        for r in range(rank + 1, len(mat)):
            if col < len(mat[r]) and mat[r][col]:
                f = mat[r][col] / pval
                row = mat[r]
                for c in range(col, len(row)):
                    row[c] = row[c] - f * prow[c]
        rank += 1
        col += 1
    return rank


def rank_sparse(rows: Iterable[dict]) -> int:
    """Rank of a matrix given as sparse rows (dicts column -> entry).

    Column keys must be hashable and mutually comparable (ints, or tuples
    of them); the least key of a row is its pivot column. Entries of
    reduced rows are kept sparse, which matters for the large symmetric-power
    invariant computations.
    """
    pivots: dict = {}  # pivot column -> reduced row (with 1 at the pivot)
    rank = 0
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            # Deterministic pivot choice keeps runs reproducible.
            col = min(row)
            if col in pivots:
                axpy(row, -row[col], pivots[col])
            else:
                pval = row[col]
                pivots[col] = {c: v / pval for c, v in row.items()}
                rank += 1
                break
    return rank
