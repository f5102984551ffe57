import random
from fractions import Fraction

import pytest

from daggeralg.errors import DimensionMismatch, UnsupportedRing
from daggeralg.nonarch import (
    check_adjunction,
    pi_free,
    pi_tensor_check,
)
from daggeralg.normed_core import (
    MAX,
    SUM,
    ModuleMap,
    WeightedFreeModule,
    operator_norm,
)
from daggeralg.scalars import (
    NormValue,
    abs_value,
    integers_archimedean,
    integers_trivial,
    rationals_padic,
)

Z = integers_archimedean()
ZT = integers_trivial()
Q2 = rationals_padic(2)
Q3 = rationals_padic(3)


def qmod(*weights, flavor=SUM):
    return WeightedFreeModule(Q2, tuple(Fraction(w) for w in weights), flavor)


class TestPiFree:
    def test_switches_flavor_keeps_weights(self):
        M = qmod(1, 2)
        R = pi_free(M)
        assert R.flavor == MAX and R.weights == M.weights

    def test_idempotent(self):
        M = qmod(1, 2)
        assert pi_free(pi_free(M)) == pi_free(M)

    def test_rejects_archimedean_ring(self):
        M = WeightedFreeModule(Z, (Fraction(1),), SUM)
        with pytest.raises(UnsupportedRing):
            pi_free(M)


def operator_norms(source, target, matrix):
    """Operator norms of one matrix into the max-flavored target, from the
    sum-flavored and from the max-flavored source."""
    tgt = pi_free(target)
    return [operator_norm(ModuleMap(
        WeightedFreeModule(source.ring, source.weights, flavor), tgt, matrix))
        for flavor in (SUM, MAX)]


class TestAdjunction:
    """check_adjunction only validates; the identity it states (both
    norms are the column maximum max_j |f e_j| / w_j) is pinned here to
    hand-computed values."""

    def test_row_of_ones(self):
        assert check_adjunction(qmod(1, 1), qmod(1)) is None
        assert operator_norms(qmod(1, 1), qmod(1), ((1, 1),)) == \
            [NormValue.exact(1)] * 2

    def test_p_power_entries(self):
        # columns |2|_2 / 1 = 1/2 and |1|_2 / 2 = 1/2; then 2 / 1 and 1/8
        assert operator_norms(qmod(1, 2), qmod(1), ((2, 1),)) == \
            [NormValue.exact(Fraction(1, 2))] * 2
        assert operator_norms(qmod(1, 2), qmod(1), ((Fraction(1, 2), 4),)) \
            == [NormValue.exact(2)] * 2

    def test_zero_map(self):
        assert operator_norms(qmod(1), qmod(1), ((0,),)) == \
            [NormValue.exact(0)] * 2

    def test_random_matrices_always_equal(self):
        rng = random.Random(13)
        for _ in range(100):
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            src = qmod(*[Fraction(2) ** rng.randint(-2, 2) for _ in range(a)])
            tgt = qmod(*[Fraction(1)] * b)
            mat = tuple(
                tuple(Fraction(2) ** rng.randint(-3, 3) * rng.choice([0, 1])
                      for _ in range(a))
                for _ in range(b)
            )
            column_max = max(
                max(abs_value(Q2, row[j]) for row in mat) / w
                for j, w in enumerate(src.weights))
            assert operator_norms(src, tgt, mat) == \
                [NormValue.exact(column_max)] * 2

    def test_trivial_valuation_ring(self):
        M = WeightedFreeModule(ZT, (Fraction(1), Fraction(1)), SUM)
        assert operator_norms(M, M, ((1, 1), (0, 1))) == \
            [NormValue.exact(1)] * 2

    def test_rejects_archimedean(self):
        M = WeightedFreeModule(Z, (Fraction(1),), SUM)
        with pytest.raises(UnsupportedRing):
            check_adjunction(M, M)

    def test_rejects_mixed_rings(self):
        with pytest.raises(DimensionMismatch):
            check_adjunction(qmod(1), WeightedFreeModule(Q3, (Fraction(1),),
                                                         MAX))


class TestTensorIntertwine:
    def test_single_generators(self):
        T = pi_tensor_check(qmod(2), qmod(3))
        assert T.flavor == MAX and T.weights == (Fraction(6),)

    def test_rank_two_factors(self):
        T = pi_tensor_check(qmod(1, 2), qmod(1, 4))
        assert T.weights == tuple(map(Fraction, (1, 4, 2, 8)))

    def test_flavor_of_input_is_irrelevant(self):
        a = pi_tensor_check(qmod(1, 2), qmod(3))
        b = pi_tensor_check(qmod(1, 2, flavor=MAX), qmod(3, flavor=MAX))
        assert a == b

    def test_rejects_archimedean_and_mixed_rings(self):
        M = WeightedFreeModule(Z, (Fraction(1),), SUM)
        with pytest.raises(UnsupportedRing):
            pi_tensor_check(M, M)
        with pytest.raises(DimensionMismatch):
            pi_tensor_check(qmod(1), WeightedFreeModule(Q3, (Fraction(1),),
                                                        SUM))
