from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gltlab.field import MAX_PRIME, Poly, T_POLY, check_prime, interpolate

fractions_st = st.builds(Fraction,
                         st.integers(min_value=-30, max_value=30),
                         st.integers(min_value=1, max_value=10))
polys = st.lists(fractions_st, max_size=4).map(Poly)


class TestPoly:
    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
        assert Poly([0]).is_zero()

    def test_divmod(self):
        q, r = (T_POLY ** 3 + Poly([1])).divmod(T_POLY + Poly([1]))
        assert q * (T_POLY + Poly([1])) + r == T_POLY ** 3 + Poly([1])
        assert r.is_zero()

    def test_gcd_is_monic(self):
        g = (Poly([2, 2]) * Poly([0, 3])).gcd(Poly([2, 2]) * Poly([5]))
        assert g == Poly([1, 1])


class TestEvaluate:
    def test_value(self):
        p = Poly([1, 0, 1])  # t^2+1
        assert p.evaluate(3) == 10
        assert p.evaluate(Fraction(1, 2)) == Fraction(5, 4)
        assert Poly([1, 1]).evaluate(-1) == 0

    @given(polys, polys, fractions_st)
    @settings(max_examples=50, deadline=None)
    def test_ring_homomorphism(self, r, s, t0):
        assert (r * s).evaluate(t0) == r.evaluate(t0) * s.evaluate(t0)


class TestFieldAxioms:
    @given(polys, polys, polys)
    @settings(max_examples=50, deadline=None)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys)
    @settings(max_examples=50, deadline=None)
    def test_additive_inverse(self, a):
        assert (a + (-a)).is_zero()


class TestInterpolate:
    def test_lagrange(self):
        assert interpolate([(1, 2), (2, 5), (3, 10)], 2) == Poly([1, 0, 1])

    def test_constant(self):
        assert interpolate([(0, Fraction(7, 3))], 0) == Poly([Fraction(7, 3)])

    def test_inconsistent(self):
        with pytest.raises(ValueError, match="degree bound"):
            interpolate([(1, 1), (2, 2), (3, 4)], 1)

    def test_duplicate_abscissa(self):
        with pytest.raises(ValueError, match="duplicate"):
            interpolate([(1, 1), (1, 2)], 1)

    def test_extra_samples_checked(self):
        # consistent extra point is fine
        assert interpolate([(0, 1), (1, 2), (2, 3)], 1) == Poly([1, 1])


class TestPrimeField:
    def test_bad_modulus(self):
        for p in (-7, 0, 1, 4, 6, 9, 7 * 11, 2**31):
            with pytest.raises(ValueError, match="prime"):
                check_prime(p)

    def test_primes_accepted(self):
        for p in (2, 3, 5, 7, 31, MAX_PRIME):
            check_prime(p)
