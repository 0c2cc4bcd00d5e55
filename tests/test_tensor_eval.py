import itertools
import math
import random
from fractions import Fraction

import pytest

from gltlab.diagrams import (V, VDUAL, BrauerDiagram, Morphism, compose, coev,
                             ev, identity, iter_diagrams, tensor)
from gltlab.tensor_eval import (MAX_LEGS, faithfulness_rank,
                                functoriality_check, functoriality_suite,
                                random_composable_pair, realize,
                                realize_diagram)


def sig(k, l):
    return (V,) * k + (VDUAL,) * l


class TestRealization:
    def test_closed_loop_is_n(self):
        loop = coev(V).then(ev(V))
        for n in (1, 2, 3):
            assert realize(loop, n).entries == {(0, 0): Fraction(n)}

    def test_identity_realizes_to_identity_matrix(self):
        m = realize(identity(sig(1, 1)), 3)
        assert m.entries == {(i, i): Fraction(1) for i in range(9)}

    def test_jones_projection(self):
        e = ev(V).then(coev(V))
        re = realize(e, 2)
        assert re.matmul(re) == realize(e.scale(2), 2)

    def test_leg_cap(self):
        d = BrauerDiagram(sig(3, 2), sig(3, 2),
                          tuple((i, 5 + i) for i in range(5)))
        with pytest.raises(ValueError, match="too many legs"):
            realize_diagram(d, 2)

    def test_monoidality(self):
        f = ev(V)
        g = identity((V,))
        assert realize(tensor(f, g), 3) == realize(f, 3).kron(realize(g, 3))


class TestFunctoriality:
    def test_seeded_random_pairs(self):
        rep = functoriality_suite(25, seed=7, n_values=(2, 3, 4))
        assert rep["pass"], rep

    def test_single_explicit_pair(self):
        f = tensor(coev(V), identity((V,)))
        g = tensor(identity((V,)), ev(VDUAL))
        for n in (1, 2, 3):
            assert functoriality_check(f, g, n)

    def test_every_single_diagram_pair(self):
        # At N = 3 the realization is faithful on words of at most 3
        # letters and 2^loops != 3^loops, so a wrong matching or a wrong
        # loop count in compose changes the realized matrix.
        words = [w for k in range(4)
                 for w in itertools.product((V, VDUAL), repeat=k)]
        homs = {(a, b): [Morphism.single(d) for d in iter_diagrams(a, b)]
                for a in words for b in words}
        pairs = 0
        for (a, b), fs in homs.items():
            for c in words:
                for f in fs:
                    for g in homs[(b, c)]:
                        assert realize(compose(f, g), 3) == \
                            realize(g, 3).matmul(realize(f, 3))
                        pairs += 1
        assert pairs == 2637

    def test_pair_generator_shapes(self):
        rng = random.Random(0)
        for _ in range(10):
            f, g = random_composable_pair(rng)
            assert f.target == g.source
            compose(f, g)  # must not raise


class TestFaithfulness:
    def test_full_rank_at_large_n(self):
        for k, l in [(1, 0), (1, 1), (2, 1)]:
            assert faithfulness_rank(sig(k, l), k + l) == math.factorial(k + l)

    def test_rank_drop_at_small_n(self):
        # End of V V* at N=1: both diagrams realize to the same matrix.
        assert faithfulness_rank(sig(1, 1), 1) == 1
