"""Acceptance gate: ten criteria, each printed as a single pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s` to see the lines inline; each
criterion also enforces its time budget.
"""

import itertools
import math
import time
from fractions import Fraction

from gltlab import centralizer, diagrams, invariants, tensor_eval, yangian
from gltlab.centralizer import BlockConvention
from gltlab.diagrams import V, VDUAL


def _criterion(number, description, budget_s, body):
    t0 = time.monotonic()
    ok = False
    try:
        body()
        ok = True
    finally:
        elapsed = time.monotonic() - t0
        print(f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] "
              f"{description} ({elapsed:.1f}s / budget {budget_s}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"


def sig(k, l):
    return (V,) * k + (VDUAL,) * l


def test_criterion_01_walled_brauer():
    def body():
        for k in range(5):
            for l in range(5 - k):
                if 1 <= k + l <= 4:
                    assert diagrams.hom_dim(sig(k, l), sig(k, l)) == \
                        math.factorial(k + l)
        loop = diagrams.coev(V).then(diagrams.ev(V))
        unit = diagrams.BrauerDiagram((), (), ())
        from gltlab.field import T_POLY
        assert loop == diagrams.Morphism((), (), {unit: T_POLY})
        assert diagrams.gram_rank(sig(2, 2)) == 24
        assert diagrams.gram_rank(sig(2, 2), Fraction(7, 2)) == 24

    _criterion(1, "walled Brauer dims, loop factor, Gram ranks", 10, body)


def test_criterion_02_lie_structure():
    def body():
        for check in diagrams.lie_structure_check():
            assert check["pass"], check
        for check in diagrams.rtt_degree1_check():
            assert check["pass"], check

    _criterion(2, "diagrammatic Lie bracket and degree-1 RTT identity", 5, body)


def test_criterion_03_evaluation_functor():
    def body():
        rep = tensor_eval.functoriality_suite(100, seed=2026, n_values=(2, 3, 4))
        assert rep["pass"], rep
        for k in range(4):
            for l in range(4 - k):
                if 1 <= k + l <= 3:
                    assert tensor_eval.faithfulness_rank(sig(k, l), k + l) == \
                        math.factorial(k + l)

    _criterion(3, "functoriality on 100 random pairs; faithfulness ranks",
               60, body)


def test_criterion_04_pbw():
    def body():
        for p in (None, 5, 7):
            rep1 = yangian.pbw_report(1, 4, p)
            assert rep1["pass"], rep1
            assert rep1["dims"][3] == 7  # dim F^3 for n = 1
            rep2 = yangian.pbw_report(2, 3, p)
            assert rep2["pass"], rep2

    _criterion(4, "PBW span = monomial count, n<=2, over Q, F5, F7", 120, body)


def test_criterion_05_automorphisms():
    def body():
        cases = [("shift", {"s": Fraction(5, 3)}), ("negate-u", {}),
                 ("invert", {}), ("omega", {"c": Fraction(2)})]
        for n in (1, 2):
            for kind, params in cases:
                for check in yangian.automorphism_check(kind, n, 3, **params):
                    assert check["pass"], check

    _criterion(5, "shift/negate/invert/omega (anti-)preserve relations",
               60, body)


def test_criterion_06_centralizer():
    def body():
        for N in (2, 3, 4):
            conv = BlockConvention(1, N)
            assert centralizer.membership_check(conv, 3)["pass"]
            assert centralizer.homomorphism_check(conv, 3)["pass"]
            assert centralizer.zed_central_check(conv, 3)["pass"]

    _criterion(6, "psi membership + homomorphism, zed central (N=2,3,4)",
               300, body)


def test_criterion_07_injectivity():
    def body():
        rank, expected = centralizer.injectivity_rank(2, BlockConvention(1, 4))
        assert (rank, expected) == (8, 8)
        ranks = [centralizer.injectivity_rank(2, BlockConvention(1, N))[0]
                 for N in (1, 2, 3, 4)]
        assert ranks == sorted(ranks)

    _criterion(7, "injectivity rank 8 = dim F^2(Y_1 (x) A_0), monotone in N",
               300, body)


def test_criterion_08_graded_surjectivity():
    def body():
        assert [invariants.dim_graded(m, 1) for m in range(5)] == \
            [1, 2, 5, 10, 20]
        assert invariants.hilbert_series(2, 2) == [1, 5, 20]
        for m, n, N in [(1, 1, 3), (2, 1, 4), (3, 1, 6), (1, 2, 3), (2, 2, 5)]:
            rep = invariants.dim_match_check(m, n, N)
            assert rep["pass"], rep

    _criterion(8, "three-way graded dimension match (types/series/rank)",
               300, body)


def test_criterion_09_roundtrip():
    def body():
        for m in (1, 2, 3):
            rep = invariants.roundtrip_check(m, 1, 4)
            assert rep["pass"], rep

    _criterion(9, "expand o decompose round-trip, all strings m<=3", 60, body)


def test_criterion_10_interpolation():
    def body():
        rep = centralizer.interpolation_check(1)
        assert rep["pass"], rep
        # explicit held-out residual: fit on N=2,3 and check N=6 exactly
        poly = centralizer.interp_structure(
            centralizer.zed2_linear_coefficient(1), [2, 3], 1, holdout=[6])
        assert poly.evaluate(6) == centralizer.zed2_linear_coefficient(1)(6)

    _criterion(10, "structure coefficient interpolates in t, residual 0",
               60, body)
