from gltlab.linalg import rank_sparse


def test_rank_sparse_int_rows_stay_exact():
    # The third row is 3*r1 + 7*r2.  An int pivot must not turn the
    # eliminated entries into floats, whose rounding leaves a nonzero rest.
    rows = [(-5, 9, -7, -1), (-6, 6, 5, 6), (-57, 69, 14, 39)]
    assert rank_sparse([dict(enumerate(r)) for r in rows]) == 2
