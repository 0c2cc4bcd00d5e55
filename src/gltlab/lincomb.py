"""Sparse linear combinations and PBW straightening.

A linear combination is a dict {key: coefficient} that never stores a zero
coefficient.  Keys of the rewriting functions are words: tuples of
generators, multiplied by concatenation.
"""

from __future__ import annotations


def axpy(acc: dict, c, x: dict) -> dict:
    """acc += c*x in place, dropping keys whose coefficient becomes zero."""
    for k, v in x.items():
        old = acc.get(k)
        nv = c * v if old is None else old + c * v
        if nv:
            acc[k] = nv
        elif old is not None:
            del acc[k]
    return acc


def mul_via(x: dict, y: dict, nf) -> dict:
    """Product of two word combinations; nf(w1 + w2) is a combination."""
    acc: dict = {}
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            axpy(acc, c1 * c2, nf(w1 + w2))
    return acc


def normal_form(w: tuple, tail, memo: dict, rightmost: bool = False) -> dict:
    """Normal form of the word w: the combination of sorted words equal to it.

    Rewrites the first (or last) inversion a > b by ab = ba + sum c*t over
    tail(a, b).items(), then recurses.  Coefficients are whatever tail gives
    (integers here), and results are memoized in memo by word.  The result
    is the memo's own dict: callers must not mutate it.
    """
    hit = memo.get(w)
    if hit is not None:
        return hit
    idx = range(len(w) - 2, -1, -1) if rightmost else range(len(w) - 1)
    i = next((j for j in idx if w[j] > w[j + 1]), None)
    if i is None:
        out = {w: 1}
    else:
        a, b = w[i], w[i + 1]
        head, rest = w[:i], w[i + 2:]
        out = dict(normal_form(head + (b, a) + rest, tail, memo, rightmost))
        for t, c in tail(a, b).items():
            axpy(out, c, normal_form(head + t + rest, tail, memo, rightmost))
    memo[w] = out
    return out


def derivation(x: dict, d, nf) -> dict:
    """Sum of c*e*nf(w[:i] + u + w[i+1:]) over the terms c*w of x, the
    positions i of w and the terms e*u of d(w[i]); d runs once a letter."""
    acc: dict = {}
    cache: dict = {}
    for w, c in x.items():
        for i, g in enumerate(w):
            dg = cache.get(g)
            if dg is None:
                dg = cache[g] = d(g)
            for u, e in dg.items():
                axpy(acc, c * e, nf(w[:i] + u + w[i + 1:]))
    return acc
