from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daggeralg.errors import (
    DimensionMismatch,
    NotStrictlySmaller,
    TailDiverges,
    UnsupportedRing,
)
from daggeralg.scalars import (
    NormValue,
    integers_archimedean,
    rationals_archimedean,
    rationals_padic,
)
from daggeralg.series import (
    DaggerPresentation,
    PolyRadius,
    Tail,
    TruncatedSeries,
    base_change,
    cofinality_constant,
    multiply,
    norm_S,
    norm_T,
    polyradius,
    restrict_T_to_S,
    restrict_arch,
    unit_polydisk,
)

Z = integers_archimedean()
Q2 = rationals_padic(2)
QA = rationals_archimedean()

ONE = polyradius(1)


def poly(ring, *coeffs):
    return TruncatedSeries.from_univariate(ring, [Fraction(c) for c in coeffs])


small_coeffs = st.lists(st.integers(-6, 6), min_size=1, max_size=5)


class TestNormS:
    def test_linear(self):
        assert norm_S(poly(Z, 3, 2), ONE) == NormValue.exact(5)

    def test_radius_scaling(self):
        assert norm_S(poly(Z, 3, 2), polyradius(Fraction(1, 2))) \
            == NormValue.exact(4)

    def test_padic_coefficients(self):
        # |2|_2 = 1/2, |1|_2 = 1
        assert norm_S(poly(Q2, 2, 1), ONE) == NormValue.exact(Fraction(3, 2))

    def test_zero(self):
        assert norm_S(poly(Z, 0), ONE) == NormValue.zero()

    def test_tail_widens_upper(self):
        f = TruncatedSeries(Z, 1, {(0,): Fraction(1)}, 0,
                            Tail(Fraction(1), polyradius(2)))
        nv = norm_S(f, ONE)
        # geometric tail sum over i >= 1 of (1/2)^i = 1
        assert nv.lo == 1 and nv.hi == 2

    def test_padic_scale_grows_tail(self):
        # 1/2 * sum 2^k X^k is a member of 1/2 * (1 + tail(C=1, sigma=2))
        # over Q_2, with norm |1/2|_2 + sum_{k>=1} |2^(k-1)|_2 = 2 + 2
        f = TruncatedSeries(Q2, 1, {(0,): Fraction(1)}, 0,
                            Tail(Fraction(1), polyradius(2)))
        assert norm_S(f.scale(Fraction(1, 2)), ONE).contains(4)

    def test_tail_diverges(self):
        f = TruncatedSeries(Z, 1, {}, 0, Tail(Fraction(1), polyradius(2)))
        with pytest.raises(TailDiverges):
            norm_S(f, polyradius(2))

    def test_arity_mismatch(self):
        with pytest.raises(DimensionMismatch):
            norm_S(poly(Z, 1), polyradius(1, 1))


class TestNormT:
    def test_gauss_padic(self):
        assert norm_T(poly(Q2, 2, 1), ONE) == NormValue.exact(1)

    def test_gauss_scaled_radius(self):
        assert norm_T(poly(Q2, 2, 1), polyradius(Fraction(1, 4))) \
            == NormValue.exact(Fraction(1, 2))

    def test_arch_one_plus_x(self):
        nv = norm_T(poly(QA, 1, 1), ONE)
        assert nv.lo == nv.hi == 2

    def test_arch_bracket_sound(self):
        nv = norm_T(poly(QA, 1, -3, 0, 1), ONE)
        assert 0 < nv.lo <= nv.hi
        assert nv.hi == 5

    def test_T_never_exceeds_S(self):
        for ring in (Q2, QA):
            f = poly(ring, 1, -2, 3)
            assert norm_T(f, ONE).hi <= norm_S(f, ONE).hi

    @given(small_coeffs)
    @settings(max_examples=50, deadline=None)
    def test_gauss_max_formula(self, coeffs):
        f = poly(Q2, *coeffs)
        expect = max(
            (Fraction(1, 2) ** _val2(c) for c in coeffs if c),
            default=Fraction(0),
        )
        assert norm_T(f, ONE) == NormValue(expect, expect)


def _val2(c: int) -> int:
    v = 0
    while c % 2 == 0:
        c //= 2
        v += 1
    return v


class TestMultiply:
    def test_difference_of_squares(self):
        f = multiply(poly(Z, 1, 1), poly(Z, 1, -1), D=2)
        assert f.coeffs == {(0,): Fraction(1), (2,): Fraction(-1)}
        assert f.tail is None

    def test_square_norm(self):
        f = multiply(poly(Z, 1, 1), poly(Z, 1, 1))
        assert norm_S(f, ONE) == NormValue.exact(4)

    def test_zero_annihilates(self):
        f = multiply(poly(Z, 0), poly(Z, 1, 2, 3))
        assert f.is_zero()

    def test_truncation_records_tail(self):
        f = multiply(poly(Z, 1, 1), poly(Z, 1, 1), D=1)
        assert f.tail is not None and f.tail.C > 0
        # the true product norm at radius 1 is still inside the bracket
        assert norm_S(f, ONE).hi >= 4

    def test_discarded_term_tail_uses_ring_abs(self):
        # X/4 is cut off at D = 0; over Q_2 its size is |1/4|_2 = 4
        x_quarter = TruncatedSeries.monomial(Q2, (1,), Fraction(1, 4))
        f = multiply(x_quarter, poly(Q2, 1), D=0)
        assert norm_S(f, ONE).contains(4)

    @given(small_coeffs, small_coeffs)
    @settings(max_examples=40, deadline=None)
    def test_norm_S_submultiplicative(self, a, b):
        f, g = poly(Z, *a), poly(Z, *b)
        assert norm_S(multiply(f, g), ONE).hi <= \
            norm_S(f, ONE).hi * norm_S(g, ONE).hi

    @given(small_coeffs, small_coeffs)
    @settings(max_examples=40, deadline=None)
    def test_gauss_multiplicative(self, a, b):
        f, g = poly(Q2, *a), poly(Q2, *b)
        lhs = norm_T(multiply(f, g), ONE)
        rhs = norm_T(f, ONE).hi * norm_T(g, ONE).hi
        assert lhs.lo == lhs.hi == rhs


class TestCofinality:
    def test_univariate(self):
        assert cofinality_constant(polyradius(1), polyradius(2)) == 2

    def test_bivariate(self):
        assert cofinality_constant(polyradius(1, 1), polyradius(2, 3)) == 2

    def test_large_outer_radius_near_one(self):
        K = cofinality_constant(polyradius(1), polyradius(100))
        assert K == Fraction(100, 99)

    def test_requires_strict_inequality(self):
        with pytest.raises(NotStrictlySmaller):
            cofinality_constant(polyradius(1, 1), polyradius(2, 1))


class TestRestriction:
    def test_padic_geometric_sum(self):
        f = poly(Q2, 1, 1, 1, 1, 1, 1)
        _, cert = restrict_T_to_S(f, polyradius(2), polyradius(1))
        assert cert.constant == 2
        assert cert.lhs == 6
        assert cert.rhs == 64
        assert cert.holds

    def test_padic_requires_nonarch(self):
        with pytest.raises(UnsupportedRing):
            restrict_T_to_S(poly(QA, 1), polyradius(2), polyradius(1))

    def test_arch_cauchy(self):
        cert = restrict_arch(poly(QA, 1, 1), polyradius(1),
                             polyradius(Fraction(1, 2)))
        assert cert.constant == 2
        assert cert.lhs == Fraction(3, 2)
        assert cert.holds

    def test_arch_requires_strict(self):
        with pytest.raises(NotStrictlySmaller):
            restrict_arch(poly(QA, 1), polyradius(1), polyradius(1))

    @given(small_coeffs)
    @settings(max_examples=40, deadline=None)
    def test_padic_certificate_always_holds(self, coeffs):
        f = poly(Q2, *coeffs)
        _, cert = restrict_T_to_S(f, polyradius(3), polyradius(1))
        assert cert.holds


class TestBaseChange:
    def test_to_padic(self):
        g = base_change(poly(Z, 0, 2), Q2)
        assert norm_T(g, ONE) == NormValue.exact(Fraction(1, 2))

    def test_to_arch(self):
        g = base_change(poly(Z, 1, 1), QA)
        assert norm_T(g, ONE) == NormValue.exact(2)

    def test_source_must_be_integers(self):
        with pytest.raises(UnsupportedRing):
            base_change(poly(Q2, 1), QA)


class TestSeriesStructure:
    def test_monomial(self):
        f = TruncatedSeries.monomial(Z, (2, 1), 3)
        assert f.n == 2 and f.coefficient((2, 1)) == 3

    def test_add_cancels(self):
        f = poly(Z, 1, 2).add(poly(Z, -1, -2))
        assert f.is_zero()

    def test_embed(self):
        f = poly(Z, 0, 1).embed(2, offset=1)
        assert f.coefficient((0, 1)) == 1

    def test_json_round_trip(self):
        f = TruncatedSeries(Z, 1, {(0,): Fraction(2), (3,): Fraction(-5)}, 4,
                            Tail(Fraction(7, 2), polyradius(3)))
        g = TruncatedSeries.from_json(f.to_json(), Z)
        assert g == f

    def test_unit_polydisk_presentation(self):
        A = unit_polydisk(Q2, 2)
        assert A.n == 2 and A.rho == polyradius(1, 1)
        B = DaggerPresentation.from_json(A.to_json())
        assert B == A
