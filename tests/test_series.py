import itertools
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
    abs_value,
    integers_archimedean,
    integers_trivial,
    nth_root_interval,
    rationals_archimedean,
    rationals_padic,
)
from daggeralg.series import (
    DEFAULT_DISCARD_SIGMA,
    DaggerPresentation,
    PolyRadius,
    Tail,
    TruncatedSeries,
    _global_majorant_constant,
    _poly_growth_constant,
    _torus_lower_bound,
    _unit_circle_points,
    base_change,
    cofinality_constant,
    evaluate_complex,
    multiply,
    norm_S,
    norm_T,
    polyradius,
    unit_polydisk,
)

Z = integers_archimedean()
ZT = integers_trivial()
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

    def test_arch_tail_lower_bound_is_cauchy(self):
        # 1 + X with tail(C=100, sigma=2) has the member
        # 1 + z - (9/20) z^2 + (3/20) z^3, whose sup on |z| = 1 is about
        # 1.70 (tests/test_members.py): the tail can cancel the known
        # terms, so only the Cauchy bound max |a_I| rho^I = 1 is certified
        f = TruncatedSeries(QA, 1, {(0,): Fraction(1), (1,): Fraction(1)}, 1,
                            Tail(Fraction(100), polyradius(2)))
        assert norm_T(f, ONE) == NormValue(Fraction(1), Fraction(52))

    def test_arch_zero_tail_keeps_torus_samples(self):
        f = TruncatedSeries(QA, 1, {(0,): Fraction(1), (1,): Fraction(1)}, 1,
                            Tail(Fraction(0), polyradius(2)))
        assert norm_T(f, ONE) == NormValue.exact(2)

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

    def test_tailed_factor_stops_exact_part(self):
        # 1 - X/2 is a member of 1 + tail(C=1, sigma=2); its product with
        # 1 + X is 1 + X/2 - X^2/2, of norm 11/8 at radius 1/2
        f = TruncatedSeries(QA, 1, {(0,): Fraction(1)}, 0,
                            Tail(Fraction(1), polyradius(2)))
        prod = multiply(f, poly(QA, 1, 1))
        assert norm_S(prod, polyradius(Fraction(1, 2))).contains(
            Fraction(11, 8))
        assert prod.degree_bound == 0

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

    def test_add_records_dropped_coefficients(self):
        # 1 + sum_{k>=1} X^k / 2^k is a member of 1 + tail(C=1, sigma=2);
        # adding X^3 gives norm 1 + 1 + 1 = 3 at radius 1
        f = TruncatedSeries(QA, 1, {(0,): Fraction(1)}, 0,
                            Tail(Fraction(1), polyradius(2)))
        total = f.add(TruncatedSeries.monomial(QA, (3,)))
        assert norm_S(total, ONE).contains(3)

    def test_add_keeps_coefficients_of_the_tailed_operand(self):
        # 1 + X + tail(C=1, sigma=4) with D=1 holds 1 + X, so the sum with
        # the untailed constant 1 holds 2 + X, of norm 3 at radius 1; the
        # exact X must not be folded into the tail
        f = TruncatedSeries(QA, 1, {(0,): Fraction(1), (1,): Fraction(1)}, 1,
                            Tail(Fraction(1), polyradius(4)))
        total = TruncatedSeries.constant(QA, 1).add(f)
        assert total.degree_bound == 1
        nv = norm_S(total, ONE)
        assert nv.contains(3) and nv.lo == 3

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


# ---------------------------------------------------------------------------
# integer kernels against the Fraction loops they replaced


def fraction_multiply(f, g, D=None):
    """Fraction convolution with the tail rules of ``multiply``."""
    if D is None:
        D = f.degree_bound + g.degree_bound
    conv = {}
    for I, a in f.coeffs.items():
        for J, b in g.coeffs.items():
            K = tuple(i + j for i, j in zip(I, J))
            conv[K] = conv.get(K, Fraction(0)) + a * b
    tailed = [h.degree_bound for h in (f, g) if h.tail is not None]
    E = min([D] + tailed)
    kept = {K: c for K, c in conv.items() if sum(K) <= E and c != 0}
    discarded = {K: c for K, c in conv.items() if sum(K) > E and c != 0}
    tail = None
    if tailed:
        sigma_min = tuple(
            min(f.tail.sigma[i] if f.tail else DEFAULT_DISCARD_SIGMA,
                g.tail.sigma[i] if g.tail else DEFAULT_DISCARD_SIGMA)
            for i in range(f.n)
        )
        mu = Fraction(3, 4)
        C = (_global_majorant_constant(f, sigma_min)
             * _global_majorant_constant(g, sigma_min)
             * _poly_growth_constant(f.n, mu))
        tail = Tail(C, PolyRadius(tuple(s * mu for s in sigma_min)))
    elif discarded:
        sigma = PolyRadius((DEFAULT_DISCARD_SIGMA,) * f.n)
        C = max(abs_value(f.ring, c) * sigma.power(K)
                for K, c in discarded.items())
        tail = Tail(C, sigma)
    return TruncatedSeries(f.ring, f.n, kept, E, tail)


def fraction_evaluate(f, points):
    re_total, im_total = Fraction(0), Fraction(0)
    for I, a in f.coeffs.items():
        re, im = Fraction(1), Fraction(0)
        for (zr, zi), e in zip(points, I):
            for _ in range(e):
                re, im = re * zr - im * zi, re * zi + im * zr
        re_total += a * re
        im_total += a * im
    return re_total, im_total


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def series(draw, ring, n, tails=True):
    D = draw(st.integers(0, 4))
    coeff = st.integers(-9, 9).map(Fraction) if ring.integral else rationals
    entries = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, D)] * n), coeff), max_size=6))
    coeffs = {I: c for I, c in entries if sum(I) <= D}
    tail = None
    if tails and draw(st.booleans()):
        sigma = draw(st.lists(st.sampled_from([Fraction(3, 2), Fraction(2),
                                               Fraction(3)]),
                              min_size=n, max_size=n))
        C = draw(st.fractions(min_value=0, max_value=5, max_denominator=4))
        tail = Tail(C, PolyRadius(tuple(sigma)))
    return TruncatedSeries(ring, n, coeffs, D, tail)


@st.composite
def series_pairs(draw):
    ring = draw(st.sampled_from([Z, ZT, Q2, QA]))
    n = draw(st.integers(1, 3))
    f = draw(series(ring, n))
    g = draw(series(ring, n))
    D = draw(st.integers(0, f.degree_bound + g.degree_bound))
    return f, g, D


class TestIntegerKernels:
    @given(series_pairs())
    @settings(max_examples=150, deadline=None)
    def test_multiply_matches_fraction_loop(self, pair):
        f, g, D = pair
        assert multiply(f, g, D) == fraction_multiply(f, g, D)
        assert multiply(f, g) == fraction_multiply(f, g)

    def test_multiply_rational_coefficients(self):
        f = poly(QA, Fraction(1, 3), Fraction(-5, 6), Fraction(7, 4))
        g = poly(QA, Fraction(2, 9), Fraction(3, 10))
        for D in range(4):
            assert multiply(f, g, D) == fraction_multiply(f, g, D)

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        series(QA, n, tails=False),
        st.lists(st.tuples(rationals, rationals), min_size=n, max_size=n))))
    @settings(max_examples=150, deadline=None)
    def test_evaluate_complex_matches_fraction_loop(self, case):
        f, points = case
        assert evaluate_complex(f, points) == fraction_evaluate(f, points)

    def test_evaluate_complex_distinct_denominators(self):
        f = TruncatedSeries(QA, 2, {(0, 0): Fraction(1, 2),
                                    (3, 1): Fraction(-4, 3),
                                    (1, 2): Fraction(5)}, 4)
        points = [(Fraction(3, 5), Fraction(-4, 7)),
                  (Fraction(1, 11), Fraction(2))]
        value = evaluate_complex(f, points)
        assert value == fraction_evaluate(f, points)
        assert all(isinstance(x, Fraction) for x in value)

    @given(st.integers(1, 2).flatmap(lambda n: st.tuples(
        series(QA, n, tails=False),
        st.lists(st.sampled_from([Fraction(1, 2), Fraction(1),
                                  Fraction(5, 3)]),
                 min_size=n, max_size=n))))
    @settings(max_examples=40, deadline=None)
    def test_torus_lower_bound_matches_fraction_loop(self, case):
        f, rho = case
        circle = _unit_circle_points(8)
        best_sq = Fraction(0)
        for combo in itertools.product(circle, repeat=f.n):
            z = [(r * c, r * s) for r, (c, s) in zip(rho, combo)]
            re, im = fraction_evaluate(f, z)
            best_sq = max(best_sq, re * re + im * im)
        lo = nth_root_interval(NormValue.exact(best_sq), 2,
                               Fraction(1, 10**9)).lo
        for I, a in f.coeffs.items():
            lo = max(lo, abs(a) * PolyRadius(tuple(rho)).power(I))
        assert _torus_lower_bound(f, PolyRadius(tuple(rho)), 8) == lo

    @staticmethod
    def per_point_torus_bound(f, rho, points_per_var):
        """One ``evaluate_complex`` call per torus point."""
        circle = _unit_circle_points(points_per_var)
        best_sq = Fraction(0)
        for combo in itertools.product(circle, repeat=f.n):
            z = [(r * c, r * s) for r, (c, s) in zip(rho, combo)]
            re, im = evaluate_complex(f, z)
            best_sq = max(best_sq, re * re + im * im)
        lo = nth_root_interval(NormValue.exact(best_sq), 2,
                               Fraction(1, 10**9)).lo
        for I, a in f.coeffs.items():
            lo = max(lo, abs(a) * rho.power(I))
        return lo

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        series(QA, n, tails=False),
        st.lists(st.sampled_from([Fraction(1, 2), Fraction(2, 3),
                                  Fraction(5, 7), Fraction(1),
                                  Fraction(9, 4)]),
                 min_size=n, max_size=n),
        st.sampled_from([8, 9, 16] if n < 3 else [8]))))
    @settings(max_examples=40, deadline=None)
    def test_torus_lower_bound_matches_per_point_evaluation(self, case):
        f, rho, points_per_var = case
        rho = PolyRadius(tuple(rho))
        assert _torus_lower_bound(f, rho, points_per_var) == \
            self.per_point_torus_bound(f, rho, points_per_var)

    def test_torus_lower_bound_distinct_axis_denominators(self):
        for n, coeffs in (
            (1, {(0,): Fraction(1, 2), (2,): Fraction(-4, 3),
                 (5,): Fraction(7)}),
            (2, {(0, 0): Fraction(1, 2), (3, 1): Fraction(-4, 3),
                 (1, 2): Fraction(5)}),
            (3, {(0, 0, 1): Fraction(3), (1, 1, 0): Fraction(-2, 5),
                 (2, 0, 2): Fraction(1, 6)}),
        ):
            f = TruncatedSeries(QA, n, coeffs, 5)
            rho = PolyRadius((Fraction(2, 3), Fraction(5, 7),
                              Fraction(9, 4))[:n])
            assert _torus_lower_bound(f, rho, 16) == \
                self.per_point_torus_bound(f, rho, 16)
