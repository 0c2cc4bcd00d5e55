import itertools
import math
from fractions import Fraction

import pytest

from gltlab.diagrams import (GL_WORD, V, VDUAL, BrauerDiagram, Morphism,
                             bracket, close_trace, coev, compose, crossing,
                             dagger, dual_word, ev, gram_rank, hom_dim,
                             gram_matrix, identity, iter_diagrams,
                             lie_structure_check, multiplication, permute,
                             rtt_degree1_check, tensor, word, word_text)
from gltlab.field import T_POLY
from gltlab.tensor_eval import faithfulness_rank


def sig(k, l):
    return (V,) * k + (VDUAL,) * l


SHORT_WORDS = [w for n in range(1, 4)
               for w in itertools.product((V, VDUAL), repeat=n)]


class TestWords:
    def test_parse_roundtrip(self):
        w = word("VV*V*V")
        assert w == (V, VDUAL, VDUAL, V)
        assert word_text(w) == "VV*V*V"
        assert dual_word(w) == (VDUAL, V, V, VDUAL)

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            word("VXV")


class TestDiagramValidation:
    def test_same_row_edge_needs_opposite_letters(self):
        with pytest.raises(ValueError, match="opposite letters"):
            BrauerDiagram((V, V), (V, V), ((0, 1), (2, 3)))

    def test_through_edge_needs_equal_letters(self):
        with pytest.raises(ValueError, match="equal letters"):
            BrauerDiagram((V,), (VDUAL,), ((0, 1),))

    def test_matching_must_be_perfect(self):
        with pytest.raises(ValueError, match="not perfect"):
            BrauerDiagram((V, VDUAL), (V, VDUAL), ((0, 2),))

    def test_text_roundtrip(self):
        d = BrauerDiagram(word("VV*"), word("V*V"), ((0, 1), (2, 3)))
        assert d.to_text() == "src=VV*;tgt=V*V;pairs=(1,2)(3,4)"
        assert BrauerDiagram.from_text(d.to_text()) == d

    def test_golden_texts(self):
        golden = [
            "src=VV*;tgt=V*V;pairs=(1,4)(2,3)",
            "src=;tgt=VV*;pairs=(1,2)",
            "src=VV*;tgt=;pairs=(1,2)",
            "src=V;tgt=V;pairs=(1,2)",
        ]
        for text in golden:
            assert BrauerDiagram.from_text(text).to_text() == text


class TestHomDimensions:
    def test_endomorphism_factorials(self):
        for k in range(3):
            for l in range(3):
                if 1 <= k + l <= 4:
                    assert hom_dim(sig(k, l), sig(k, l)) == math.factorial(k + l)

    def test_unbalanced_hom_is_zero(self):
        assert hom_dim(sig(2, 1), sig(1, 1)) == 0
        assert hom_dim((V,), ()) == 0

    def test_mixed_word_order_irrelevant(self):
        assert hom_dim((V, VDUAL, V), (V, V, VDUAL)) == 6


class TestComposition:
    def test_ev_coev_loop_is_t(self):
        loop = coev(V).then(ev(V))
        unit = BrauerDiagram((), (), ())
        assert loop == Morphism((), (), {unit: T_POLY})

    def test_snake_identity(self):
        left = tensor(coev(V), identity((V,)))
        right = tensor(identity((V,)), ev(VDUAL))
        assert left.then(right) == identity((V,))

    def test_jones_projection_relation(self):
        e = ev(V).then(coev(V))
        assert e.then(e) == e.scale(T_POLY)

    def test_crossing_squares_to_identity(self):
        p = crossing(GL_WORD, GL_WORD)
        assert p.then(p) == identity(GL_WORD + GL_WORD)

    def test_trace_of_identity(self):
        assert close_trace(identity(sig(1, 1))) == T_POLY ** 2


class TestGramEntries:
    """gram_matrix counts cycles of two matchings directly; the same number
    comes from composing with the mirror image and closing the trace."""

    WORDS = [sig(1, 1), sig(2, 1), sig(2, 2), word("VV*V*V")]

    @pytest.mark.parametrize("w", WORDS, ids=word_text)
    def test_entry_is_closed_composite(self, w):
        diagrams, mat = gram_matrix(w)
        for di, row in zip(diagrams, mat):
            for dj, entry in zip(diagrams, row):
                closed = compose(Morphism.single(di),
                                 Morphism.single(dagger(dj)))
                assert entry == close_trace(closed)

    @pytest.mark.parametrize("w", WORDS, ids=word_text)
    def test_diagonal_is_t_to_the_length(self, w):
        # A matching drawn on itself closes one loop per pair.
        _, mat = gram_matrix(w)
        assert all(mat[i][i] == T_POLY ** len(w) for i in range(len(mat)))


class TestGram:
    def test_end_11_rank_drops_at_1(self):
        w = sig(1, 1)
        assert gram_rank(w) == 2
        assert gram_rank(w, Fraction(1)) == 1

    def test_end_21_rank_at_generic_point(self):
        assert gram_rank(sig(2, 1), Fraction(7, 2)) == 6

    def test_end_22_full_rank(self):
        assert gram_rank(sig(2, 2)) == 24
        assert gram_rank(sig(2, 2), Fraction(7, 2)) == 24


class TestGramCrossCheck:
    """Two routes to one number: at t = N the Gram rank is the rank of the
    realization on Q^N, whose kernel is the negligible ideal."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("w", SHORT_WORDS + [word("VVV*V*")],
                             ids=word_text)
    def test_point_rank_is_realization_rank(self, w, n):
        assert gram_rank(w, n) == faithfulness_rank(w, n)

    def test_end_22_point_ranks(self):
        # Permutations of S_4 with no decreasing subsequence longer than N
        # (RSK): 1, 14 (Catalan), 23.
        assert [gram_rank(word("VVV*V*"), n) for n in (1, 2, 3)] == [1, 14, 23]

    @pytest.mark.parametrize("w", SHORT_WORDS, ids=word_text)
    def test_generic_rank_is_factorial(self, w):
        assert gram_rank(w) == math.factorial(len(w))


class TestLieStructure:
    def test_all_identities(self):
        for check in lie_structure_check():
            assert check["pass"], check

    def test_bracket_of_symmetric_part_vanishes(self):
        c = bracket()
        p = crossing(GL_WORD, GL_WORD)
        sym = identity(GL_WORD + GL_WORD) + p
        assert sym.then(c).is_zero()

    def test_multiplication_unital_on_trace_side(self):
        m = multiplication()
        assert m.source == GL_WORD + GL_WORD and m.target == GL_WORD


class TestRTTDegree1:
    def test_identity_and_controls(self):
        for check in rtt_degree1_check():
            assert check["pass"], check


class TestPermute:
    def test_inverse(self):
        w = word("VV*V")
        p = permute(w, [2, 0, 1])
        q = permute(p.target, [1, 2, 0])
        assert p.then(q) == identity(w)
