import itertools
import random
from fractions import Fraction

import pytest

from gltlab.field import QQ, FieldGF
from gltlab.ugl import UElement
from gltlab.yangian import (MatrixSeries, RelationTable, TruncatedYangian,
                            TruncationError, automorphism_check, eval_hom,
                            generator_series, pbw_report, transformed_series,
                            word_degree)


class TestRelationExtraction:
    def test_level_one_bracket(self):
        # Extracted relations must give [t1_ij, t1_kl] = d_kj t1_il - d_il t1_kj.
        alg = TruncatedYangian(2, 2)
        for i, j, k, l in itertools.product((1, 2), repeat=4):
            a, b = alg.gen(1, i, j), alg.gen(1, k, l)
            lhs = a * b - b * a
            rhs = alg.zero()
            if k == j:
                rhs = rhs + alg.gen(1, i, l)
            if i == l:
                rhs = rhs - alg.gen(1, k, j)
            assert lhs == rhs, (i, j, k, l)

    def test_relations_self_consistent(self):
        alg = TruncatedYangian(2, 3)
        for r in range(1, 3):
            for s in range(1, 4 - r):
                for i, j, k, l in itertools.product((1, 2), repeat=4):
                    rel = alg.table.relation(r, i, j, s, k, l)
                    acc = alg.zero()
                    for w, c in rel.items():
                        acc = acc + alg.from_word(w).scale(c)
                    assert acc.is_zero()

    def test_tail_degree_drops(self):
        table = RelationTable(2, 3)
        a, b = (2, 1, 2), (1, 2, 1)
        for w in table.tail(a, b):
            assert word_degree(w) < 3


class TestNormalForm:
    def test_confluence_of_strategies(self):
        alg = TruncatedYangian(2, 3)
        rng = random.Random(0)
        gens = alg.gens()
        for _ in range(30):
            w, deg = [], 0
            while True:
                g = rng.choice(gens)
                if deg + g[0] > 3:
                    break
                w.append(g)
                deg += g[0]
            assert alg.nf(tuple(w)) == alg.nf_alt(tuple(w))

    def test_prime_field_is_q_reduced(self):
        q_alg = TruncatedYangian(2, 3)
        for p in (2, 3, 5):
            f = FieldGF(p)
            alg = TruncatedYangian(2, 3, f)
            for w in q_alg.all_words(3):
                want = {m: f.from_int(c) for m, c in q_alg.nf(w).items()
                        if c % p}
                assert alg.nf(w) == want
                assert alg.nf_alt(w) == want

    def test_zero_residue_pruned(self):
        w = ((1, 1, 2), (1, 1, 1), (1, 1, 1))
        mid = ((1, 1, 1), (1, 1, 2))
        assert TruncatedYangian(2, 3).nf(w)[mid] == -2
        alg = TruncatedYangian(2, 3, FieldGF(2))
        for terms in (alg.nf(w), alg.nf_alt(w), alg.from_word(w).terms):
            assert mid not in terms and len(terms) == 2

    def test_memo_not_aliased(self):
        alg = TruncatedYangian(2, 3)
        w = ((1, 1, 2), (1, 1, 1), (1, 1, 1))
        want = dict(alg.nf(w))
        alg.nf(w).clear()
        alg.from_word(w).terms.clear()
        assert alg.nf(w) == want
        assert alg.from_word(w).terms == want

    def test_truncation_overflow(self):
        alg = TruncatedYangian(1, 2)
        with pytest.raises(TruncationError):
            alg.nf(((2, 1, 1), (1, 1, 1)))
        with pytest.raises(TruncationError):
            alg.gen(3, 1, 1)

    def test_text_format(self):
        alg = TruncatedYangian(2, 2)
        x = alg.gen(1, 1, 2) * alg.gen(1, 2, 1)
        assert "t[1;1,2]t[1;2,1]" in x.to_text()


class TestPBW:
    def test_small_over_q(self):
        rep = pbw_report(1, 4)
        assert rep["pass"] and rep["dims"] == [1, 2, 4, 7, 12]

    def test_n2_over_q(self):
        rep = pbw_report(2, 2)
        assert rep["pass"] and rep["dims"] == [1, 5, 19]

    def test_prime_fields(self):
        for p in (5, 7):
            assert pbw_report(1, 3, FieldGF(p))["pass"]


class TestSeries:
    def _scalar_series(self, a, order):
        alg = TruncatedYangian(1, order)
        s = MatrixSeries.identity(1, order, alg.one(), alg.zero())
        s.set_entry(1, 1, 1, alg.gen(1, 1, 1).scale(a))
        return alg, s

    def test_shift_example(self):
        # (1 + a u^{-1}) at u -> u+1 is 1 + a u^{-1} - a u^{-2} + a u^{-3}.
        alg, s = self._scalar_series(1, 3)
        sh = s.shift(1)
        g = alg.gen(1, 1, 1)
        assert sh.entry(1, 1, 1) == g
        assert sh.entry(2, 1, 1) == -g
        assert sh.entry(3, 1, 1) == g

    def test_invert_is_geometric(self):
        alg, s = self._scalar_series(1, 3)
        inv = s.invert()
        g = alg.gen(1, 1, 1)
        assert inv.entry(1, 1, 1) == -g
        assert inv.entry(2, 1, 1) == g * g
        prod = s * inv
        assert prod.is_unital()
        assert all(prod.entry(k, 1, 1).is_zero() for k in (1, 2, 3))

    def test_invert_requires_unital(self):
        alg = TruncatedYangian(1, 2)
        s = MatrixSeries(1, 2, alg.one(), alg.zero())
        with pytest.raises(ValueError):
            s.invert()

    def test_negate_u(self):
        alg, s = self._scalar_series(1, 2)
        assert s.negate_u().entry(1, 1, 1) == -alg.gen(1, 1, 1)


class TestAutomorphisms:
    @pytest.mark.parametrize("kind,params", [
        ("shift", {"s": Fraction(3, 2)}),
        ("negate-u", {}),
        ("invert", {}),
        ("omega", {"c": Fraction(2)}),
    ])
    def test_preserve_relations(self, kind, params):
        for check in automorphism_check(kind, 2, 3, **params):
            assert check["pass"], check

    def test_omega_is_an_involution(self):
        alg = TruncatedYangian(1, 4)
        c = Fraction(3)
        t = generator_series(alg)
        om2 = t
        for _ in range(2):
            om2 = om2.negate_u().shift(c).invert()
        assert om2.is_unital()
        for r in range(1, 5):
            assert (om2.entry(r, 1, 1) - alg.gen(r, 1, 1)).is_zero()

    def test_unknown_kind(self):
        alg = TruncatedYangian(1, 2)
        with pytest.raises(ValueError):
            transformed_series(alg, "mystery")


class TestEvaluation:
    def test_level_one_goes_to_gl(self):
        alg = TruncatedYangian(2, 2)
        x = alg.gen(1, 1, 2) * alg.gen(1, 2, 1)
        assert eval_hom(x) == UElement.from_word(2, ((1, 2), (2, 1)))

    def test_higher_levels_die(self):
        alg = TruncatedYangian(2, 2)
        assert eval_hom(alg.gen(2, 1, 1)).is_zero()

    def test_kills_relations(self):
        # eval must send every relation to zero in U(gl_n).
        alg = TruncatedYangian(2, 2)
        for i, j, k, l in itertools.product((1, 2), repeat=4):
            rel = alg.table.relation(1, i, j, 1, k, l)
            acc = UElement.zero(2)
            for w, c in rel.items():
                img = UElement.one(2)
                keep = True
                for (r, a, b) in w:
                    if r > 1:
                        keep = False
                        break
                    img = img * UElement.gen(2, a, b)
                if keep:
                    acc = acc + img.scale(c)
            assert acc.is_zero()
