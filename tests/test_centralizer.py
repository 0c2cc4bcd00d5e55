import functools
from fractions import Fraction

import pytest

from gltlab import centralizer
from gltlab.centralizer import (BlockConvention, a0_monomials,
                                filtered_basis, homomorphism_check,
                                injectivity_check, injectivity_rank,
                                interp_structure, interpolation_check,
                                membership_check, phi, psi, zed,
                                zed_central_check, zed_commutes_psi_check,
                                zed2_linear_coefficient)
from gltlab.lincomb import derivation
from gltlab.ugl import UElement, ad, gelfand, straighten, straighten_word
from gltlab.yangian import MatrixSeries


def inverted_generator_series(conv: BlockConvention, order: int):
    """The defining route to psi: (1 + E u^{-1}) with u -> -u, then
    u -> u + M, inverted as a full M x M series."""
    M = conv.M
    s = MatrixSeries.identity(M, order, UElement.one(M), UElement.zero(M))
    for a in range(1, M + 1):
        for b in range(1, M + 1):
            s.set_entry(1, a, b, UElement.gen(M, a, b))
    return s.negate_u().shift(Fraction(M)).invert()


class TestConvention:
    def test_blocks(self):
        conv = BlockConvention(2, 3)
        assert conv.M == 5
        assert list(conv.small_block) == [1, 2]
        assert list(conv.large_block) == [3, 4, 5]

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            BlockConvention(0, 3)


class TestPsi:
    def test_degree_one_is_matrix_unit(self):
        conv = BlockConvention(2, 2)
        for i in (1, 2):
            for j in (1, 2):
                assert psi(conv, 1, i, j) == UElement.gen(conv.M, i, j)

    def test_filtration_degree(self):
        conv = BlockConvention(1, 2)
        for r in (1, 2, 3):
            assert psi(conv, r, 1, 1).degree() <= r

    def test_indices_restricted_to_small_block(self):
        with pytest.raises(ValueError):
            psi(BlockConvention(1, 2), 1, 1, 2)
        with pytest.raises(ValueError):
            psi(BlockConvention(1, 2), 0, 1, 1)

    @pytest.mark.parametrize("n,N,order",
                             [(1, 2, 3), (1, 3, 4), (2, 2, 3), (2, 3, 2)])
    def test_closed_form_equals_series_inverse(self, n, N, order):
        conv = BlockConvention(n, N)
        series = inverted_generator_series(conv, order)
        for r in range(1, order + 1):
            for i in conv.small_block:
                for j in conv.small_block:
                    assert psi(conv, r, i, j) == series.entry(r, i, j)

    @pytest.mark.parametrize("N", [2, 3])
    def test_membership(self, N):
        assert membership_check(BlockConvention(1, N), 3)["pass"]

    @pytest.mark.parametrize("N", [2, 3])
    def test_homomorphism(self, N):
        assert homomorphism_check(BlockConvention(1, N), 3)["pass"]

    def test_homomorphism_n2(self):
        assert homomorphism_check(BlockConvention(2, 2), 2)["pass"]


class TestZed:
    def test_k1(self):
        conv = BlockConvention(1, 1)
        assert zed(1, conv) == UElement.gen(2, 1, 1) + UElement.gen(2, 2, 2)

    def test_central_and_commuting(self):
        conv = BlockConvention(1, 2)
        assert zed_central_check(conv, 3)["pass"]
        assert zed_commutes_psi_check(conv, 3, 3)["pass"]

    @pytest.mark.parametrize("n, N", [(1, 2), (2, 3)])
    def test_planted_noncentral_zed_fails(self, monkeypatch, n, N):
        # zed(2) + E_{1,M} is not central, and [E_{1,M}, E_11] = -E_{1,M}
        # keeps it from commuting with psi(t^{(1)}_{11}) = E_11.
        honest = centralizer.zed

        def planted(k, conv):
            z = honest(k, conv)
            return z + UElement.gen(conv.M, 1, conv.M) if k == 2 else z

        monkeypatch.setattr(centralizer, "zed", planted)
        conv = BlockConvention(n, N)
        assert not zed_central_check(conv, 3)["pass"]
        report = zed_commutes_psi_check(conv, 3, 3)
        assert not report["pass"]
        # Leibniz over the letters of zed(k) for every letter of psi.
        want = []
        for k in range(1, 4):
            z = planted(k, conv).terms
            bracket = functools.cache(functools.partial(ad, z))
            for r in range(1, 4):
                for i in conv.small_block:
                    for j in conv.small_block:
                        if derivation(psi(conv, r, i, j).terms, bracket,
                                      straighten_word):
                            want.append([k, r, i, j])
        assert report["got"] == want


class TestPhi:
    def test_empty_monomial_is_unit(self):
        conv = BlockConvention(1, 2)
        assert phi(conv, [], []) == UElement.one(conv.M)

    def test_factorizes(self):
        conv = BlockConvention(1, 2)
        assert phi(conv, [(1, 1, 1)], [1]) == psi(conv, 1, 1, 1) * zed(1, conv)

    def test_images_in_centralizer(self):
        conv = BlockConvention(1, 2)
        block = list(conv.large_block)
        for ymono, xmono in filtered_basis(1, 2):
            img = phi(conv, ymono, xmono)
            for a in block:
                for b in block:
                    e = UElement.gen(conv.M, a, b)
                    assert img.commutator(e).is_zero()


class TestInjectivity:
    def test_basis_counts(self):
        assert a0_monomials(2) == [(), (1,), (1, 1), (2,)]
        assert len(filtered_basis(1, 1)) == 3
        assert len(filtered_basis(1, 2)) == 8

    def test_m1(self):
        assert injectivity_rank(1, BlockConvention(1, 2)) == (3, 3)

    def test_m2_large_n(self):
        assert injectivity_rank(2, BlockConvention(1, 4)) == (8, 8)

    def test_monotone_in_n(self):
        ranks = [injectivity_rank(2, BlockConvention(1, N))[0]
                 for N in (1, 2, 3, 4)]
        assert ranks == sorted(ranks)
        assert ranks[0] < 8  # recorded small-N deficiency, not asserted away
        assert ranks[-1] == 8

    def test_check_report_shape(self):
        rep = injectivity_check(1, BlockConvention(1, 2))
        assert set(rep) == {"check", "parameters", "expected", "got", "pass"}
        assert rep["pass"]


class TestCoefficients:
    """Coefficients are Python's exact rationals: an int until a
    non-integer enters, then a Fraction."""

    def test_integer_images_are_int(self):
        conv = BlockConvention(2, 2)
        elems = [psi(conv, r, i, j) for r in (1, 2, 3)
                 for i in conv.small_block for j in conv.small_block]
        elems += [zed(k, conv) for k in (1, 2, 3)]
        elems += [gelfand(3, 3), straighten([(2, 1), (1, 2), (2, 1)], 2)]
        for x in elems:
            assert x.terms
            assert {type(c) for c in x.terms.values()} == {int}

    def test_from_text_fraction(self):
        x = UElement.from_text(3, "3/2*E[1,2]")
        (c,) = x.terms.values()
        assert type(c) is Fraction and c == Fraction(3, 2)


class TestInterpolation:
    def test_reports(self):
        assert interpolation_check(1)["pass"]
        assert interpolation_check(2)["pass"]

    def test_zed2_coefficient_is_linear(self):
        coeff = zed2_linear_coefficient(1)
        poly = interp_structure(coeff, [2, 3], 1, holdout=[4, 5])
        assert poly.coeffs == (Fraction(0), Fraction(-1))

    def test_wrong_bound_rejected(self):
        # forcing a constant fit onto linear data must fail on the holdout
        coeff = zed2_linear_coefficient(1)
        with pytest.raises(ValueError, match="unstable pattern"):
            interp_structure(coeff, [2], 0, holdout=[3])
