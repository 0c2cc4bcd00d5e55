import itertools
import random
from fractions import Fraction

import pytest

from gltlab.ugl import (UElement, centralizer_membership, filtration_basis,
                        gelfand, lie_generators, straighten,
                        straighten_word)


class TestStraightening:
    def test_defining_bracket(self):
        # E_12 E_21 - E_21 E_12 = E_11 - E_22
        lhs = straighten([(1, 2), (2, 1)], 2) - straighten([(2, 1), (1, 2)], 2)
        rhs = UElement.gen(2, 1, 1) - UElement.gen(2, 2, 2)
        assert lhs == rhs

    def test_sorted_words_fixed(self):
        w = ((1, 1), (1, 2), (2, 2))
        assert straighten_word(w) == {w: Fraction(1)}

    def test_ring_homomorphism_on_random_words(self):
        rng = random.Random(3)
        gens = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
        for _ in range(20):
            w1 = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
            w2 = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
            lhs = UElement.from_word(3, w1) * UElement.from_word(3, w2)
            assert lhs == UElement.from_word(3, w1 + w2)

    def test_degree_filtration(self):
        x = straighten([(2, 1), (1, 2), (2, 1)], 2)
        assert x.degree() == 3
        assert x.top_part().degree() == 3
        assert (x - x.top_part()).degree() < 3

    def test_generator_range_checked(self):
        with pytest.raises(ValueError):
            straighten([(1, 3)], 2)


class TestGelfand:
    def test_k1(self):
        assert gelfand(1, 2) == UElement.gen(2, 1, 1) + UElement.gen(2, 2, 2)

    def test_centrality(self):
        for m_size in (2, 3):
            for k in (1, 2, 3):
                g = gelfand(k, m_size)
                for a in range(1, m_size + 1):
                    for b in range(1, m_size + 1):
                        e = UElement.gen(m_size, a, b)
                        assert g.commutator(e).is_zero()

    def test_pairwise_commuting(self):
        g2, g3 = gelfand(2, 2), gelfand(3, 2)
        assert g2.commutator(g3).is_zero()

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            gelfand(0, 2)

    def test_equals_naive_sum(self):
        for m_size in (2, 3, 4):
            for k in (1, 2, 3):
                naive = UElement.zero(m_size)
                for idx in itertools.product(range(1, m_size + 1), repeat=k):
                    naive = naive + UElement.from_word(
                        m_size, [(idx[i], idx[(i + 1) % k]) for i in range(k)])
                assert gelfand(k, m_size) == naive


class TestCommutator:
    def test_defining_bracket(self):
        e12, e21 = UElement.gen(2, 1, 2), UElement.gen(2, 2, 1)
        want = UElement.gen(2, 1, 1) - UElement.gen(2, 2, 2)
        assert e12.commutator(e21) == want

    # Integer scale factors keep every coefficient an int; Fraction ones
    # make them Fractions.
    @pytest.mark.parametrize("coeff", [int, lambda k: Fraction(k, 3)],
                             ids=["Z", "Q"])
    def test_equals_difference_of_products(self, coeff):
        rng = random.Random(11)
        nonzero = 0
        for M in (2, 3, 4):
            gens = [(a, b) for a in range(1, M + 1) for b in range(1, M + 1)]

            def element():
                x = UElement.zero(M)
                for _ in range(rng.randint(1, 4)):
                    w = [rng.choice(gens) for _ in range(rng.randint(0, 3))]
                    x = x + UElement.from_word(M, w).scale(
                        coeff(rng.randint(1, 4)))
                return x

            for _ in range(15):
                x, y = element(), element()
                got = x.commutator(y)
                assert got == x * y - y * x
                nonzero += not got.is_zero()
        assert nonzero >= 10


class TestCentralizerMembership:
    def test_block_membership(self):
        # E_11 commutes with the block {2,3} inside gl_3.
        assert centralizer_membership(UElement.gen(3, 1, 1), [2, 3])
        assert not centralizer_membership(UElement.gen(3, 1, 2), [2, 3])

    def test_one_index_block_needs_the_diagonal(self):
        # The block [2] has no adjacent pairs; only E_22 catches E_12.
        assert not centralizer_membership(UElement.gen(2, 1, 2), [2])

    def test_generating_set_agrees_with_every_generator(self):
        elems = [UElement.gen(4, a, b) for a in range(1, 5)
                 for b in range(1, 5)]
        elems += [gelfand(2, 4), straighten([(1, 2), (2, 1)], 4),
                  UElement.gen(4, 3, 3) + UElement.gen(4, 4, 4)]
        for block in ([1], [2, 3], [3, 4], [2, 3, 4], [1, 2, 3, 4]):
            assert len(lie_generators(block)) == 2 * len(block) - 1
            for x in elems:
                brute = all(x.commutator(UElement.gen(4, a, b)).is_zero()
                            for a in block for b in block)
                assert centralizer_membership(x, block) == brute


class TestText:
    def test_roundtrip(self):
        x = straighten([(2, 1), (1, 2)], 2).scale(Fraction(3, 2))
        assert UElement.from_text(2, x.to_text()) == x

    def test_zero_and_unit(self):
        assert UElement.from_text(2, "0").is_zero()
        assert UElement.from_text(2, "1*1") == UElement.one(2)

    def test_golden(self):
        x = UElement.from_text(2, "1*E[1,2]E[2,1] + -1/2*E[1,1]")
        assert x.terms[((1, 2), (2, 1))] == 1
        assert x.terms[((1, 1),)] == Fraction(-1, 2)


class TestIntegerMemo:
    """Normal forms are memoized over int, and from_word copies them out of
    the memo."""

    # Its normal form has coefficients 1, -3, 3, -1.
    WORD = ((1, 2), (1, 1), (1, 1), (1, 1))

    def test_memo_not_aliased(self):
        want = dict(straighten_word(self.WORD))
        x = UElement.from_word(2, self.WORD)
        x.terms.clear()
        assert straighten_word(self.WORD) == want
        assert UElement.from_word(2, self.WORD).terms == want


class TestFiltration:
    def test_counts(self):
        assert len(filtration_basis(2, 2)) == 15
        assert len(filtration_basis(2, 3)) == 55
