import itertools
from collections import Counter
from fractions import Fraction

import pytest

from gltlab.centralizer import BlockConvention
from gltlab.invariants import (ConnectedType, PairString, PairSymbol,
                               _sym_act, all_pair_strings, decompose,
                               dim_graded, dim_match_check, expand_multiset,
                               expand_type, hilbert_series, invariant_rank,
                               leading_symbol_check, realize_string,
                               roundtrip_check, type_multisets,
                               weight_zero_monomials)
from gltlab.linalg import rank_sparse


def chain(k, i, j):
    return ConnectedType("chain", k, i, j)


def cycle(k):
    return ConnectedType("cycle", k)


class TestPairStrings:
    def test_text_roundtrip(self):
        s = PairString.from_text("WcBcWs(2)BcWcBs(1);arcs=(1,2)(4,5)")
        assert PairString.from_text(s.to_text()) == s

    def test_unmatched_circle_rejected(self):
        with pytest.raises(ValueError, match="matched"):
            PairString((PairSymbol(None, None),), frozenset())

    def test_same_color_arc_rejected(self):
        # legs 1 and 3 are both white circles
        with pytest.raises(ValueError, match="white circle"):
            PairString.from_text("WcBcWcBc;arcs=(1,3)(2,4)")
        with pytest.raises(ValueError, match="white circle"):
            PairString((PairSymbol(None, 1), PairSymbol(None, 1)),
                       frozenset({frozenset({1, 3})}))


class TestDecompose:
    def test_single_cycle(self):
        s = PairString.from_text("WcBc;arcs=(1,2)")
        assert decompose(s) == (cycle(1),)

    def test_two_pair_chain(self):
        s = PairString.from_text("Ws(1)BcWcBs(2);arcs=(2,3)")
        assert decompose(s) == (chain(2, 1, 2),)

    def test_pure_small_block_pair(self):
        s = PairString.from_text("Ws(1)Bs(1);arcs=")
        assert decompose(s) == (chain(1, 1, 1),)

    def test_mixed(self):
        s = PairString.from_text("WcBcWs(2)BcWcBs(1);arcs=(1,2)(4,5)")
        assert decompose(s) == tuple(sorted((chain(2, 2, 1), cycle(1))))

    def test_long_cycle(self):
        s = PairString.from_text("WcBcWcBc;arcs=(1,4)(2,3)")
        assert decompose(s) == (cycle(2),)

    def test_degree_preserved(self):
        for s in all_pair_strings(3, 1):
            assert sum(c.k for c in decompose(s)) == 3


class TestDimensions:
    def test_n1_sequence(self):
        assert [dim_graded(m, 1) for m in range(5)] == [1, 2, 5, 10, 20]
        assert hilbert_series(1, 4) == [1, 2, 5, 10, 20]

    def test_n2_sequence(self):
        assert [dim_graded(m, 2) for m in range(4)] == [1, 5, 20, 65]
        assert hilbert_series(2, 3) == [1, 5, 20, 65]

    def test_degree_one_generators(self):
        for n in (1, 2, 3):
            assert hilbert_series(n, 1)[1] == n * n + 1

    def test_m1_n1_enumeration(self):
        assert type_multisets(1, 1) == [(cycle(1),), (chain(1, 1, 1),)] or \
            sorted(type_multisets(1, 1)) == sorted(
                [(cycle(1),), (chain(1, 1, 1),)])


class TestExpansion:
    def test_cycle1_is_block_trace(self):
        conv = BlockConvention(1, 2)
        got = expand_type(cycle(1), conv)
        assert got == {((2, 2),): Fraction(1), ((3, 3),): Fraction(1)}

    def test_chain1_is_matrix_entry(self):
        conv = BlockConvention(2, 2)
        assert expand_type(chain(1, 1, 2), conv) == {((1, 2),): Fraction(1)}

    def test_chain2(self):
        conv = BlockConvention(1, 2)
        got = expand_type(chain(2, 1, 1), conv)
        assert got == {(((1, 2)), ((2, 1))): Fraction(1),
                       (((1, 3)), ((3, 1))): Fraction(1)}


WEIGHT_ZERO_CONFIGS = [(1, 1, 3), (2, 1, 4), (3, 1, 5), (2, 2, 3), (3, 2, 4)]


def filtered_monomials(m, conv):
    """Every sorted degree-m monomial whose large-block row indices balance
    its large-block column indices, i.e. of torus weight 0."""
    gens = sorted((a, b) for a in range(1, conv.M + 1)
                  for b in range(1, conv.M + 1))
    big = set(conv.large_block)
    return [mono for mono in itertools.combinations_with_replacement(gens, m)
            if Counter(a for a, _ in mono if a in big)
            == Counter(b for _, b in mono if b in big)]


def nullity_of_all_operators(m, n, N):
    """Invariant count as the nullity of every off-diagonal E_ab of gl_N on
    the weight-zero monomials."""
    conv = BlockConvention(n, N)
    monos = filtered_monomials(m, conv)
    rows = []
    for mono in monos:
        row = {}
        for a, b in itertools.permutations(conv.large_block, 2):
            for img, c in _sym_act(a, b, mono).items():
                row[(a, b, img)] = Fraction(c)
        rows.append(row)
    return len(monos) - rank_sparse(rows)


class TestWeightZero:
    @pytest.mark.parametrize("m,n,N", WEIGHT_ZERO_CONFIGS + [
        (2, 1, 1), (3, 2, 1), (0, 1, 3), (0, 2, 1)])
    def test_matches_filtered_combinations(self, m, n, N):
        conv = BlockConvention(n, N)
        assert weight_zero_monomials(m, conv) == filtered_monomials(m, conv)

    @pytest.mark.parametrize("m,n,N", WEIGHT_ZERO_CONFIGS + [
        (2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 1), (0, 1, 3)])
    def test_raising_operators_give_full_nullity(self, m, n, N):
        assert invariant_rank(m, n, N) == nullity_of_all_operators(m, n, N)


class TestRankAndMatch:
    def test_invariant_rank_m1(self):
        assert invariant_rank(1, 1, 3) == 2

    @pytest.mark.parametrize("m,n,N", [(1, 1, 3), (2, 1, 4), (1, 2, 3)])
    def test_three_way(self, m, n, N):
        rep = dim_match_check(m, n, N)
        assert rep["pass"], rep

    def test_unstable_range_recorded(self):
        # Below the stable range the realized rank genuinely drops.
        rep = dim_match_check(2, 1, 1)
        assert not rep["pass"]
        assert rep["got"]["rank"] < rep["got"]["types"]


class TestRoundTrip:
    @pytest.mark.parametrize("m", [1, 2])
    def test_expand_decompose(self, m):
        assert roundtrip_check(m, 1, 3)["pass"]

    def test_explicit_string(self):
        conv = BlockConvention(1, 3)
        s = PairString.from_text("WcBcWcBc;arcs=(1,4)(2,3)")
        assert expand_multiset(decompose(s), conv) == realize_string(s, conv)


class TestLeadingSymbols:
    def test_n1(self):
        assert leading_symbol_check(BlockConvention(1, 3), 3)["pass"]

    def test_n2(self):
        assert leading_symbol_check(BlockConvention(2, 2), 2)["pass"]
