import random
import signal
from fractions import Fraction

import pytest

from gltlab.field import GFElem
from gltlab.linalg import rank_dense, rank_sparse


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test after 10 s: an elimination step that does not clear its
    pivot column loops forever instead of returning a wrong rank."""
    def expire(signum, frame):
        raise TimeoutError("rank computation did not finish within 10 s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def reference_rank(rows, one=Fraction(1)):
    """Textbook Gauss elimination on dense rows, dividing in the field of
    `one` (Fraction over Q, GFElem over a prime field)."""
    ncols = max((len(r) for r in rows), default=0)
    mat = [[one * x for x in r] + [one * 0] * (ncols - len(r)) for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col] / mat[rank][col]
            mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def sparse(rows):
    return [{c: v for c, v in enumerate(r) if v} for r in rows]


def planted(rng, nrows, ncols, deps, scale=9):
    """Random int rows, `deps` of them combinations of the others."""
    rows = [[rng.randint(-scale, scale) for _ in range(ncols)]
            for _ in range(nrows - deps)]
    for _ in range(deps):
        picks = rng.sample(rows, min(3, len(rows)))
        coeffs = [rng.randint(-5, 5) for _ in picks]
        rows.append([sum(c * r[j] for c, r in zip(coeffs, picks))
                     for j in range(ncols)])
    rng.shuffle(rows)
    return rows


def test_rank_sparse_int_rows_stay_exact():
    # The third row is 3*r1 + 7*r2.  An int pivot must not turn the
    # eliminated entries into floats, whose rounding leaves a nonzero rest.
    rows = [(-5, 9, -7, -1), (-6, 6, 5, 6), (-57, 69, 14, 39)]
    assert rank_sparse([dict(enumerate(r)) for r in rows]) == 2


def test_rank_dense_int_rows_stay_exact():
    rows = [[-5, 9, -7, -1], [-6, 6, 5, 6], [-57, 69, 14, 39]]
    assert rank_dense(rows) == 2


@pytest.mark.parametrize("seed", range(12))
def test_planted_int_rows_match_reference(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    rows = planted(rng, nrows, ncols, rng.randint(0, nrows - 1))
    expected = reference_rank(rows)
    assert rank_sparse(sparse(rows)) == expected
    assert rank_dense(rows) == expected


@pytest.mark.parametrize("seed", range(6))
def test_fraction_rows_match_reference(seed):
    rng = random.Random(100 + seed)
    ints = planted(rng, 7, 6, 3)
    rows = [[Fraction(x, rng.randint(1, 12)) for x in r] for r in ints]
    expected = reference_rank(rows)
    assert any(x.denominator > 1 for r in rows for x in r)
    assert rank_sparse(sparse(rows)) == expected
    assert rank_dense(rows) == expected


def test_mixed_int_and_fraction_row():
    rows = [{0: 1, 1: Fraction(1, 3)}, {0: Fraction(3, 2), 1: Fraction(1, 2)},
            {1: 2, 2: Fraction(-7, 5)}]
    assert rank_sparse(rows) == reference_rank(
        [[1, Fraction(1, 3), 0], [Fraction(3, 2), Fraction(1, 2), 0],
         [0, 2, Fraction(-7, 5)]]) == 2


def test_gf_rows_match_reference():
    p = 7
    rng = random.Random(7)
    ints = planted(rng, 8, 10, 2)
    # Dependent mod 7 only: r0 + r1 + 7*(0, 1, 0, ...).
    ints.append([x + y for x, y in zip(ints[0], ints[1])])
    ints[-1][1] += 7
    one = GFElem(1, p)
    rows = [[GFElem(x, p) for x in r] for r in ints]
    expected = reference_rank(rows, one)
    assert rank_sparse(sparse(rows)) == expected
    assert rank_sparse(sparse(rows[:-1])) == expected
    assert reference_rank(ints) == rank_sparse(sparse(ints)) == expected + 1


def test_empty_rows_and_matrix():
    assert rank_sparse([]) == 0
    assert rank_dense([]) == 0
    assert rank_sparse([{}, {3: 0}, {}]) == 0
    assert rank_dense([[], [0, 0]]) == 0
    assert rank_sparse([{}, {0: 2, 1: 0}, {0: Fraction(0)}, {1: 5}]) == 2


@pytest.mark.parametrize("seed", range(4))
def test_entries_beyond_64_bits(seed):
    rng = random.Random(200 + seed)
    big = 2**70
    ints = planted(rng, 6, 5, 2, scale=big)
    assert any(abs(x) > 2**64 for r in ints for x in r)
    assert rank_sparse(sparse(ints)) == reference_rank(ints)
    ints.append([x * big + 1 for x in ints[0]])
    assert rank_sparse(sparse(ints)) == reference_rank(ints)


def test_input_rows_are_not_modified():
    rows = [{0: 2, 1: 4}, {0: 3, 1: Fraction(1, 2)}, {0: 0, 1: 6}]
    copies = [dict(r) for r in rows]
    rank_sparse(rows)
    assert rows == copies
