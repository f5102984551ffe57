import itertools
import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
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
    integers_trivial,
    nth_root_interval,
    rationals_archimedean,
    rationals_padic,
)
from daggeralg.series import (
    DEFAULT_DISCARD_SIGMA,
    MAX_DEGREE,
    DaggerPresentation,
    PolyRadius,
    Tail,
    TruncatedSeries,
    _axis_powers,
    _circle_axis,
    _gauss_norm,
    _pack,
    _packed_sum,
    _poly_growth_constant,
    _ranked_rows,
    _scaled_ints,
    _sizes,
    _tail_max_bound,
    _tail_sum_bound,
    _torus_lower_bound,
    _torus_max_sq,
    _unit_circle_points,
    _weighted_ints,
    base_change,
    cofinality_constant,
    evaluate_complex,
    multiply,
    norm_S,
    norm_T,
    polyradius,
    unit_polydisk,
)
from daggeralg import series as series_module
from intervals import contains
from loops import (
    float_magnitudes_loop,
    gauss_loop,
    is_zero,
    rho_power,
    sum_loop,
)

Z = integers_archimedean()
ZT = integers_trivial()
Q2 = rationals_padic(2)
Q3 = rationals_padic(3)
QA = rationals_archimedean()

ONE = polyradius(1)


def poly(ring, *coeffs):
    return TruncatedSeries.from_univariate(ring, [Fraction(c) for c in coeffs])


def torus_lower_bound(f, rho, points_per_var=None):
    return _torus_lower_bound(f, *_weighted_ints(*_scaled_ints(f.coeffs), rho),
                              points_per_var)


def torus_max_sq(f, rho, points_per_var=None):
    """The sampler's exact maximum of |f(z)|^2, before the root bracket."""
    weighted, den = _weighted_ints(*_scaled_ints(f.coeffs), rho)
    return _torus_max_sq(f, weighted, points_per_var) / (den * den)


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
        assert norm_S(poly(Z, 0), ONE) == NormValue.exact(0)

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
        assert contains(norm_S(f.scale(Fraction(1, 2)), ONE), 4)

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


class TestClosedFormSups:
    """Sups that are irrational and attained at a torus sample, compared
    on squares, so that a lower bound rounded up by any amount fails.
    For z = e^(it), |1 + kz - z^2| = |k - 2i sin t|, at most sqrt(k^2 + 4)
    and attained at the sample z = i."""

    @staticmethod
    def assert_root(nv, square):
        assert nv.lo ** 2 <= square <= nv.hi ** 2
        assert (nv.lo + Fraction(1, 10**9)) ** 2 >= square

    @pytest.mark.parametrize("ring", [Z, QA], ids=["Z", "R"])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_one_variable(self, ring, k):
        self.assert_root(norm_T(poly(ring, 1, k, -1), ONE), k * k + 4)

    @pytest.mark.parametrize("ring", [Z, QA], ids=["Z", "R"])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_times_a_second_variable(self, ring, k):
        # w * (1 + kz - z^2), with |w| = 1 on the torus
        f = TruncatedSeries(ring, 2, {(1, 0): 1, (1, 1): k, (1, 2): -1}, 3)
        self.assert_root(norm_T(f, polyradius(1, 1)), k * k + 4)


class TestProductSups:
    """Products of binomials prod_i (1 + e_i z_i^(a_i)), e_i = +-1 and
    a_i in 1..3, whose sup on the polydisk, prod_i (1 + r_i^(a_i)), is
    attained at a torus sample: z_i = r_i w_i with w_i^(a_i) = e_i, and
    such a w_i is one of 1, -1 and i.  The sup is rational, so ``norm_T``
    is exactly [v, v], compared on squares: the torus sampler must
    evaluate the maximising sample exactly, wherever its row lies."""

    @staticmethod
    def check(signs, powers, rho):
        coeffs = {}
        for chosen in itertools.product((0, 1), repeat=len(signs)):
            coeffs[tuple(a * c for a, c in zip(powers, chosen))] = \
                math.prod(e for e, c in zip(signs, chosen) if c)
        f = TruncatedSeries(Z, len(signs), coeffs, sum(powers))
        v = math.prod(1 + r**a for r, a in zip(rho, powers))
        nv = norm_T(f, PolyRadius(tuple(rho)))
        assert (nv.lo ** 2, nv.hi ** 2) == (v ** 2, v ** 2)

    @pytest.mark.parametrize("rho", [(1, 1), (Fraction(1, 2), 1),
                                     (Fraction(2, 3), Fraction(5, 4))],
                             ids=["1,1", "1/2,1", "2/3,5/4"])
    @pytest.mark.parametrize("signs", list(itertools.product((1, -1),
                                                             repeat=2)))
    def test_two_variables(self, signs, rho):
        for powers in itertools.product(range(1, 4), repeat=2):
            self.check(signs, powers, [Fraction(r) for r in rho])

    @pytest.mark.parametrize("rho", [(1, 1, 1), (Fraction(1, 2), 1, 1),
                                     (Fraction(2, 3), Fraction(5, 4),
                                      Fraction(3, 7))],
                             ids=["1,1,1", "1/2,1,1", "2/3,5/4,3/7"])
    @pytest.mark.parametrize("signs", list(itertools.product((1, -1),
                                                             repeat=3)))
    def test_three_variables(self, signs, rho):
        for powers in itertools.product(range(1, 4), repeat=3):
            self.check(signs, powers, [Fraction(r) for r in rho])


class TestTorusShortcuts:
    """The Archimedean ``norm_T`` evaluates no torus sample that cannot
    change its result: none when the Cauchy bound equals the coefficient
    sum, and only the point 1 on the axis of a variable no term uses."""

    # the series of slow tied samples, with their brackets before the
    # shortcuts, and two series that omit a variable, whose lower bound
    # is a torus sample
    SERIES = [
        (Z, 2, 6, {(3, 3): 1}, "2/3,3/2", NormValue.exact(1)),
        (Z, 2, 6, {(0, 6): 1}, "1,3/2", NormValue.exact(Fraction(729, 64))),
        (Z, 3, 4, {(1, 1, 2): 1}, "1/2,1,3/2",
         NormValue.exact(Fraction(9, 8))),
        (Z, 4, 1, {(1, 0, 0, 0): 1}, "3/2,1,1,1",
         NormValue.exact(Fraction(3, 2))),
        (Z, 4, 1, {(0, 0, 0, 0): 5}, "1,1,1,1", NormValue.exact(5)),
        (Z, 4, 1, {(1, 0, 0, 0): 1, (0, 0, 0, 0): 1}, "2/3,1,2,1",
         NormValue.exact(Fraction(5, 3))),
        (Z, 2, 3, {(0, 0): 1, (1, 0): -2, (3, 0): 5}, "1,3/2",
         NormValue(Fraction(3704184547, 500000000), Fraction(8))),
        (QA, 4, 3, {(0, 0, 0, 0): Fraction(1, 2), (0, 0, 1, 0): -2,
                    (0, 0, 3, 0): Fraction(3, 4)}, "9/4,1,4/3,1/2",
         NormValue(Fraction(4472481013, 1000000000), Fraction(89, 18))),
    ]

    @staticmethod
    def exact_samples(monkeypatch):
        """The points of every exact torus evaluation from now on."""
        samples = []
        evaluate = series_module._gaussian_value

        def counted(terms, points):
            samples.append(points)
            return evaluate(terms, points)

        monkeypatch.setattr(series_module, "_gaussian_value", counted)
        return samples

    IDS = ["X3Y3", "Y6", "XYZ2", "X1-of-4", "5-of-4", "X1+1-of-4",
           "1-2X+5X3-of-2", "X3-of-4-over-R"]

    @pytest.mark.parametrize("ring,n,D,coeffs,rho,expected", SERIES, ids=IDS)
    def test_brackets_unchanged(self, ring, n, D, coeffs, rho, expected):
        f = TruncatedSeries(ring, n, coeffs, D)
        assert norm_T(f, PolyRadius.from_json(rho.split(","))) == expected

    @pytest.mark.parametrize("I,c", [((0,), 7), ((5,), -3), ((3, 3), 1),
                                     ((0, 6), 2), ((1, 1, 2), -1),
                                     ((0, 0, 0, 0), 5), ((0, 1, 0, 0), 9)])
    def test_one_term_takes_no_sample(self, monkeypatch, I, c):
        samples = self.exact_samples(monkeypatch)
        for ring in (Z, QA):
            f = TruncatedSeries.monomial(ring, I, c, degree_bound=sum(I) + 1)
            rho = PolyRadius((Fraction(2, 3),) * len(I))
            cauchy = abs(Fraction(c)) * Fraction(2, 3) ** sum(I)
            assert norm_T(f, rho) == NormValue.exact(cauchy)
        assert samples == []

    @pytest.mark.parametrize("ring,n,D,coeffs,rho,expected", SERIES[5:],
                             ids=IDS[5:])
    def test_unused_axis_takes_one_point(self, monkeypatch, ring, n, D,
                                         coeffs, rho, expected):
        samples = self.exact_samples(monkeypatch)
        f = TruncatedSeries(ring, n, coeffs, D)
        norm_T(f, PolyRadius.from_json(rho.split(",")))
        used = [i for i in range(n) if any(I[i] for I in coeffs)]
        assert samples
        for points in samples:
            assert all(points[i] == (1, 0) for i in range(n)
                       if i not in used)
        # and only the samples of the first used axis's upper half
        assert len(samples) <= len(_circle_axis(8 * (D + 1) if n <= 2
                                                else 8, True)[0])


def _val2(c: int) -> int:
    v = 0
    while c % 2 == 0:
        c //= 2
        v += 1
    return v


class TestMultiply:
    def test_difference_of_squares(self):
        f = multiply(poly(Z, 1, 1), poly(Z, 1, -1))
        assert f.coeffs == {(0,): Fraction(1), (2,): Fraction(-1)}
        assert f.tail is None

    def test_square_norm(self):
        f = multiply(poly(Z, 1, 1), poly(Z, 1, 1))
        assert norm_S(f, ONE) == NormValue.exact(4)

    def test_zero_annihilates(self):
        f = multiply(poly(Z, 0), poly(Z, 1, 2, 3))
        assert is_zero(f)

    def test_tailed_factor_stops_exact_part(self):
        # 1 - X/2 is a member of 1 + tail(C=1, sigma=2); its product with
        # 1 + X is 1 + X/2 - X^2/2, of norm 11/8 at radius 1/2
        f = TruncatedSeries(QA, 1, {(0,): Fraction(1)}, 0,
                            Tail(Fraction(1), polyradius(2)))
        prod = multiply(f, poly(QA, 1, 1))
        assert contains(norm_S(prod, polyradius(Fraction(1, 2))),
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


    @pytest.mark.parametrize("n,value", [
        (1, Fraction(27, 16)),  # a tie: 3 (3/4)^2 = 4 (3/4)^3
        (2, Fraction(35721, 4096)),
        (3, Fraction(2460375, 32768)),
        (4, Fraction(3827969523, 4194304)),
    ])
    def test_poly_growth_constant(self, n, value):
        """max over m of (m+1)^n (3/4)^m, pinned for n = 1..4."""
        assert _poly_growth_constant(n) == value
        assert value == max((m + 1) ** n * Fraction(3, 4) ** m
                            for m in range(64))


def extremal_series(p, rho_prime, D):
    """The series over Q_p of total degree up to D with a_I = p^v_I, v_I
    the least integer with rho'^I <= p^v_I.  Each term of its Gauss norm
    at rho' is at most 1, and the constant term is 1, so |f|_T,rho' = 1,
    while each |a_I| is within a factor p of Cauchy's bound rho'^-I."""
    coeffs = {}
    for I in itertools.product(range(D + 1), repeat=len(rho_prime)):
        if sum(I) <= D:
            r = math.prod(rp ** i for rp, i in zip(rho_prime, I))
            v = 0
            while Fraction(p) ** v < r:
                v += 1
            while Fraction(p) ** (v - 1) >= r:
                v -= 1
            coeffs[I] = Fraction(p) ** v
    return TruncatedSeries(rationals_padic(p), len(rho_prime), coeffs, D)


radius = st.fractions(min_value=Fraction(1, 4), max_value=4,
                      max_denominator=4)


class TestCofinality:
    def test_univariate(self):
        assert cofinality_constant(polyradius(1), polyradius(2)) == 2

    def test_bivariate(self):
        # the product 2 * 3/2 of the factors, not their max 2
        assert cofinality_constant(polyradius(1, 1), polyradius(2, 3)) == 3

    @given(st.sampled_from((2, 3, 5)),
           st.lists(st.tuples(radius, radius), min_size=1, max_size=3),
           st.integers(0, 12))
    @example(2, [(1, 1), (1, 2)], 12)
    @example(3, [(1, 1), (1, 2)], 12)
    @settings(max_examples=60, deadline=None)
    def test_extremal_gauss_norm_series(self, p, radii, D):
        """|f|_S,rho <= K |f|_T,rho' on the series that meets every Cauchy
        bound up to the value group of Q_p; at rho = (1, 1) and
        rho' = (2, 3) its S-norm is 2.713 over Q_2 and 2.438 over Q_3,
        above the max 2 of the per-variable factors."""
        rho = polyradius(*[r for r, _ in radii])
        rho_prime = polyradius(*[r + gap for r, gap in radii])
        f = extremal_series(p, rho_prime, D)
        assert norm_T(f, rho_prime) == NormValue.exact(1)
        assert norm_S(f, rho).hi <= cofinality_constant(rho, rho_prime)

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

    @pytest.mark.parametrize("index", [(1.9,), (True,), ("1",)])
    def test_exponents_must_be_integers(self, index):
        # int() once read (1.9,) and (True,) as (1,), so that one
        # coefficient overwrote the other
        with pytest.raises(ValueError, match="exponents must be integers"):
            TruncatedSeries(Z, 1, {index: 1}, 2)

    def test_add_cancels(self):
        f = poly(Z, 1, 2).add(poly(Z, -1, -2))
        assert is_zero(f)

    def test_add_records_dropped_coefficients(self):
        # 1 + sum_{k>=1} X^k / 2^k is a member of 1 + tail(C=1, sigma=2);
        # adding X^3 gives norm 1 + 1 + 1 = 3 at radius 1
        f = TruncatedSeries(QA, 1, {(0,): Fraction(1)}, 0,
                            Tail(Fraction(1), polyradius(2)))
        total = f.add(TruncatedSeries.monomial(QA, (3,)))
        assert contains(norm_S(total, ONE), 3)

    def test_add_keeps_coefficients_of_the_tailed_operand(self):
        # 1 + X + tail(C=1, sigma=4) with D=1 holds 1 + X, so the sum with
        # the untailed constant 1 holds 2 + X, of norm 3 at radius 1; the
        # exact X must not be folded into the tail
        f = TruncatedSeries(QA, 1, {(0,): Fraction(1), (1,): Fraction(1)}, 1,
                            Tail(Fraction(1), polyradius(4)))
        total = TruncatedSeries.constant(QA, 1).add(f)
        assert total.degree_bound == 1
        nv = norm_S(total, ONE)
        assert contains(nv, 3) and nv.lo == 3

    def test_embed(self):
        f = poly(Z, 0, 1).embed(2)
        assert f.n == 2 and f.coeffs == {(1, 0): 1}
        tailed = TruncatedSeries(Z, 1, {}, 0, Tail(1, polyradius(3)))
        assert tailed.embed(2).tail == Tail(1, polyradius(3, 2))

    def test_json_round_trip(self):
        f = TruncatedSeries(Z, 1, {(0,): Fraction(2), (3,): Fraction(-5)}, 4,
                            Tail(Fraction(7, 2), polyradius(3)))
        g = TruncatedSeries.from_json(f.to_json(), Z)
        assert g == f
        # an algebra over a p-adic ring whose relation has a tail
        A = DaggerPresentation(Q2, 1, polyradius(Fraction(1, 2)),
                               (f.with_ring(Q2),))
        assert DaggerPresentation.from_json(A.to_json()) == A

    def test_unit_polydisk_presentation(self):
        A = unit_polydisk(Q2, 2)
        assert A.n == 2 and A.rho == polyradius(1, 1)
        B = DaggerPresentation.from_json(A.to_json())
        assert B == A


# ---------------------------------------------------------------------------
# integer kernels against the Fraction loops they replaced


def fraction_multiply(f, g):
    """Fraction convolution with the tail rules of ``multiply``."""
    conv = {}
    for I, a in f.coeffs.items():
        for J, b in g.coeffs.items():
            K = tuple(i + j for i, j in zip(I, J))
            conv[K] = conv.get(K, Fraction(0)) + a * b
    tailed = [h.degree_bound for h in (f, g) if h.tail is not None]
    E = min([f.degree_bound + g.degree_bound] + tailed)
    kept = {K: c for K, c in conv.items() if sum(K) <= E and c != 0}
    tail = None
    if tailed:
        sigma_min = tuple(
            min(f.tail.sigma[i] if f.tail else DEFAULT_DISCARD_SIGMA,
                g.tail.sigma[i] if g.tail else DEFAULT_DISCARD_SIGMA)
            for i in range(f.n)
        )
        mu = Fraction(3, 4)
        C = (majorant_loop(f, sigma_min) * majorant_loop(g, sigma_min)
             * _poly_growth_constant(f.n))
        tail = Tail(C, PolyRadius(tuple(s * mu for s in sigma_min)))
    return TruncatedSeries(f.ring, f.n, kept, E, tail)


def majorant_loop(f, sigma):
    """The smallest C with |a_I| <= C sigma^-I for the known coefficients
    and the tail of f."""
    C = f.tail.C if f.tail is not None else Fraction(0)
    return max(C, gauss_loop(f.ring, f.coeffs, sigma))


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
    return f, draw(series(ring, n))


def series_at_radius(rings):
    """A series over one of the rings, n = 1..3, and a radius inside
    every drawn tail radius."""
    return st.sampled_from(rings).flatmap(lambda ring: st.integers(1, 3)
                                          .flatmap(lambda n: st.tuples(
        series(ring, n),
        st.lists(st.sampled_from([Fraction(1, 2), Fraction(2, 3),
                                  Fraction(1), Fraction(5, 4)]),
                 min_size=n, max_size=n))))


BITS64 = 2**64 - 1


@st.composite
def tables(draw):
    """A ring, a coefficient table (possibly empty) in n = 1..4
    variables with 64-bit numerators and denominators (over Q_2 also
    times powers of 2) and a polyradius of 64-bit components."""
    ring = draw(st.sampled_from([Z, ZT, Q2, QA]))
    n = draw(st.integers(1, 4))
    num = st.integers(-BITS64, BITS64).filter(bool)
    if ring.integral:
        coeff = num.map(Fraction)
    else:
        coeff = st.builds(lambda a, b, k: Fraction(a, b) * Fraction(2) ** k,
                          num, st.integers(1, BITS64),
                          st.integers(-3, 3) if ring == Q2 else st.just(0))
    # long single-variable columns reach the halving path of the fold
    top = 40 if n == 1 else 6
    coeffs = draw(st.dictionaries(st.tuples(*[st.integers(0, top)] * n),
                                  coeff, max_size=8))
    radius = st.builds(Fraction, st.integers(1, BITS64),
                       st.integers(1, BITS64))
    rho = draw(st.lists(radius, min_size=n, max_size=n))
    return ring, coeffs, PolyRadius(tuple(rho))


def tail_sum_loop(f, rho) -> Fraction:
    """C * (prod 1/(1 - q_i) - sum over |I| <= D of q^I), q_i =
    rho_i / sigma_i, with the partial sum one multi-index at a time."""
    if f.tail is None:
        return Fraction(0)
    q = [Fraction(r) / s for r, s in zip(rho, f.tail.sigma)]
    full = math.prod(1 / (1 - x) for x in q)
    D = f.degree_bound
    partial = sum((rho_power(q, I) for I in itertools.product(
        range(D + 1), repeat=f.n) if sum(I) <= D), Fraction(0))
    return f.tail.C * (full - partial)


class TestSizeKernels:
    """The size table ``_sizes``, whose max is the Gauss norm and whose
    sum is the known part of ``norm_S``, against the ``Fraction`` loops
    they replaced; the packed fold of the power chain; and the tail's
    partial sum against its own loop."""

    @given(tables())
    @example((Q2, {}, polyradius(3)))
    @settings(max_examples=200, deadline=None)
    def test_gauss_norm_matches_fraction_loop(self, case):
        ring, coeffs, rho = case
        sizes, den = _sizes(ring, coeffs, rho)
        assert Fraction(max(sizes, default=0), den) == \
            _gauss_norm(ring, coeffs, rho) == gauss_loop(ring, coeffs, rho)

    @given(tables())
    @example((Z, {}, polyradius(3)))
    @settings(max_examples=200, deadline=None)
    def test_sum_norm_matches_fraction_loop(self, case):
        ring, coeffs, rho = case
        sizes, den = _sizes(ring, coeffs, rho)
        assert Fraction(sum(sizes), den) == sum_loop(ring, coeffs, rho)
        f = TruncatedSeries(ring, len(rho), coeffs,
                            max(map(sum, coeffs), default=0))
        assert norm_S(f, rho) == NormValue.exact(sum_loop(ring, coeffs, rho))

    @given(tables(), st.integers(0, 2**70))
    @settings(max_examples=100, deadline=None)
    def test_packed_sum_of_given_sizes(self, case, size):
        # sizes other than the coefficients' own, of up to 70 bits, packed
        # in the radices of a chain of three powers, 3E + 1, and folded
        # over columns as wide as its second power's, 2E + 1
        _, coeffs, rho = case
        sizes = [(I, size >> k) for k, I in enumerate(coeffs)]
        expected = sum((s * rho_power(rho, I) for I, s in sizes), Fraction(0))
        exps = [max([I[i] for I in coeffs], default=0)
                for i in range(len(rho))]
        radices = [3 * E + 1 for E in exps]
        packed = list(zip(_pack(list(coeffs), radices),
                          [s for _, s in sizes]))
        S, Q = _packed_sum(packed, rho, radices, [2 * E for E in exps])
        assert Fraction(S, Q) == expected

    def test_empty_tables(self):
        for ring in (Z, ZT, Q2, QA):
            assert _gauss_norm(ring, {}, ONE) == 0
            assert _sizes(ring, {}, polyradius(2, 3)) == ([], 1)
        assert _packed_sum([], polyradius(2, 3), [1, 1], [0, 0]) == (0, 1)

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.integers(0, MAX_DEGREE[n]),
        st.fractions(0, 9, max_denominator=16),
        st.lists(st.tuples(st.integers(1, BITS64), st.integers(1, BITS64),
                           st.integers(1, BITS64), st.integers(1, BITS64)),
                 min_size=n, max_size=n))))
    @example((48, Fraction(3, 7),
              [(BITS64, BITS64 - 2, 2**63 + 1, 2**63 - 1)]))
    @example((1, Fraction(1), [(2, 3, 5, 7)] * 4))
    @settings(max_examples=100, deadline=None)
    def test_tail_sum_bound_matches_fraction_loop(self, case):
        # 64-bit rho_i and sigma_i, the larger of the two ratios a/b and
        # c/d the tail radius
        D, C, pairs = case
        ratios = [sorted((Fraction(a, b), Fraction(c, d)))
                  for a, b, c, d in pairs]
        assume(all(r < s for r, s in ratios))
        rho = PolyRadius(tuple(r for r, _ in ratios))
        f = TruncatedSeries(Z, len(ratios), {}, D,
                            Tail(C, PolyRadius(tuple(s for _, s in ratios))))
        assert _tail_sum_bound(f, rho) == tail_sum_loop(f, rho)
        assert norm_S(f, rho) == NormValue(0, tail_sum_loop(f, rho))


class TestIntegerKernels:
    @given(series_pairs())
    @settings(max_examples=150, deadline=None)
    def test_multiply_matches_fraction_loop(self, pair):
        f, g = pair
        assert multiply(f, g) == fraction_multiply(f, g)

    def test_multiply_rational_coefficients(self):
        f = poly(QA, Fraction(1, 3), Fraction(-5, 6), Fraction(7, 4))
        g = poly(QA, Fraction(2, 9), Fraction(3, 10))
        assert multiply(f, g) == fraction_multiply(f, g)

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
        lo = nth_root_interval(best_sq, 2, Fraction(1, 10**9)).lo
        for I, a in f.coeffs.items():
            lo = max(lo, abs(a) * rho_power(rho, I))
        assert torus_lower_bound(f, PolyRadius(tuple(rho)), 8) == lo

    @staticmethod
    def per_point_torus_max_sq(f, rho, points_per_var):
        """Largest |f(z)|^2, one ``evaluate_complex`` call per point of
        the whole torus sample."""
        circle = _unit_circle_points(points_per_var)
        best_sq = Fraction(0)
        for combo in itertools.product(circle, repeat=f.n):
            z = [(r * c, r * s) for r, (c, s) in zip(rho, combo)]
            re, im = evaluate_complex(f, z)
            best_sq = max(best_sq, re * re + im * im)
        return best_sq

    @classmethod
    def per_point_torus_bound(cls, f, rho, points_per_var):
        best_sq = cls.per_point_torus_max_sq(f, rho, points_per_var)
        lo = nth_root_interval(best_sq, 2, Fraction(1, 10**9)).lo
        for I, a in f.coeffs.items():
            lo = max(lo, abs(a) * rho_power(rho, I))
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
        assert torus_max_sq(f, rho, points_per_var) == \
            self.per_point_torus_max_sq(f, rho, points_per_var)
        assert torus_lower_bound(f, rho, points_per_var) == \
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
            assert torus_lower_bound(f, rho, 16) == \
                self.per_point_torus_bound(f, rho, 16)

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(st.tuples(*[st.integers(0, 6)] * n), max_size=6),
        st.lists(st.fractions(min_value=Fraction(1, 9), max_value=9,
                              max_denominator=9), min_size=n, max_size=n))))
    @settings(max_examples=100, deadline=None)
    def test_radius_powers_match_power(self, case):
        indices, rho = case
        rho = PolyRadius(tuple(rho))
        nums, den = rho.powers(indices)
        assert [Fraction(P, den) for P in nums] == \
            [rho_power(rho, I) for I in indices]

    @given(series_at_radius([Z, ZT, Q2, Q3, QA]))
    @settings(max_examples=200, deadline=None)
    def test_norm_S_matches_fraction_loop(self, case):
        # every drawn tail radius is at least 3/2, beyond each drawn rho
        f, rho = case
        rho = PolyRadius(tuple(rho))
        poly_sum = sum_loop(f.ring, f.coeffs, rho)
        assert norm_S(f, rho) == \
            NormValue(poly_sum, poly_sum + tail_sum_loop(f, rho))

    @given(series_at_radius([ZT, Q2, Q3]))
    @settings(max_examples=150, deadline=None)
    def test_gauss_norm_T_matches_fraction_loop(self, case):
        f, rho = case
        rho = PolyRadius(tuple(rho))
        gauss = gauss_loop(f.ring, f.coeffs, rho)
        assert norm_T(f, rho) == \
            NormValue(gauss, max(gauss, _tail_max_bound(f, rho)))

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        series(QA, n, tails=False),
        st.lists(st.sampled_from([Fraction(1, 2), Fraction(5, 7),
                                  Fraction(1), Fraction(9, 4)]),
                 min_size=n, max_size=n))))
    # the maximum needs z_1 and z_2 in opposite half-planes
    @example((TruncatedSeries(QA, 2, {(1, 0): Fraction(2), (2, 1): Fraction(1),
                                      (0, 1): Fraction(-3)}, 3),
              [Fraction(1), Fraction(1)]))
    @settings(max_examples=30, deadline=None)
    def test_torus_lower_bound_is_the_full_circle_maximum(self, case):
        # the default sampler, with every point of the first axis's
        # circle evaluated: the conjugate half adds nothing
        f, rho = case
        rho = PolyRadius(tuple(rho))
        circle = _unit_circle_points(8 * (f.degree_bound + 1)
                                     if f.n <= 2 else 8)
        best_sq = Fraction(0)
        for combo in itertools.product(circle, repeat=f.n):
            re, im = evaluate_complex(
                f, [(r * c, r * s) for r, (c, s) in zip(rho, combo)])
            best_sq = max(best_sq, re * re + im * im)
        assert torus_lower_bound(f, rho) == \
            nth_root_interval(best_sq, 2, Fraction(1, 10**9)).lo

    def test_unit_circle_points_closed_under_conjugation(self):
        for count in (8, 9, 16, 56, 392):
            circle = _unit_circle_points(count)
            assert {(c, -s) for c, s in circle} == set(circle)


@st.composite
def ranked_terms(draw):
    """(weighted, count): up to 8 distinct (I, w_I) terms in n = 1 to 3
    variables with nonzero integers w_I, as ``_weighted_ints`` gives
    them, and a circle point count."""
    n = draw(st.integers(1, 3))
    D = draw(st.integers(0, (6, 3, 2)[n - 1]))
    indices = draw(st.lists(
        st.tuples(*[st.integers(0, D)] * n).filter(lambda I: sum(I) <= D),
        min_size=1, max_size=8, unique=True))
    weights = draw(st.lists(st.integers(-2**70, 2**70).filter(bool),
                            min_size=len(indices), max_size=len(indices)))
    count = draw(st.sampled_from([8, 9, 16, 8 * (D + 1)]))
    return list(zip(indices, weights)), count


def ranking_delta(weighted, n):
    """The float error bound delta of ``_torus_max_sq`` for these terms."""
    D = max(sum(I) for I, _ in weighted)
    return (len(weighted) + n * (D + 1) + 4) * 2.0**-50


class TestColumnRanking:
    """The float magnitudes of every row that the row cut visits, one
    exponent column at a time over the cached circle powers, are those of
    the per-sample loop to the bit, and every row it skips holds no
    sample within 2*delta of the loop's maximum."""

    @given(ranked_terms())
    # monomials, and a row (z = -1) whose folded coefficients all cancel
    @example(([((3,), 5)], 32))
    @example(([((0, 2), -7)], 16))
    @example(([((0, 1), 3), ((1, 1), 3)], 16))
    @example(([((0, 0, 1), 1), ((1, 0, 1), 1), ((0, 1, 0), 2)], 8))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_sample_loop(self, case):
        weighted, count = case
        n = len(weighted[0][0])
        exps = [max(I[i] for I, _ in weighted) for i in range(n)]
        circle = _unit_circle_points(count)
        points = [[p for p in circle if i or p[1] >= 0] for i in range(n)]
        axes = [_circle_axis(count, not i) for i in range(n)]
        assert [list(a[0]) for a in axes] == points
        loop = float_magnitudes_loop(weighted, points, exps)
        width, delta = len(points[-1]), ranking_delta(weighted, n)
        rows = _ranked_rows(weighted, [_axis_powers(powers, E) for
                                       (_, powers), E in zip(axes, exps)],
                            delta)
        assert len({i for i, _ in rows}) == len(rows)
        for i, mags in rows:
            assert list(map(float.hex, mags)) == \
                list(map(float.hex, loop[i * width:(i + 1) * width]))
        visited = {i for i, _ in rows}
        cutoff = max(loop) - 2 * delta
        assert all(m < cutoff for k, m in enumerate(loop)
                   if k // width not in visited)

    def test_cached_axes_are_bounded_tuples(self):
        points, powers = _circle_axis(392, True)
        assert len(points) == 195
        assert type(points) is tuple
        assert powers[0][1] == tuple(complex(float(c), float(s))
                                     for c, s in points)
        assert _circle_axis(392, True) is _circle_axis(392, True)
        # every (count, first axis or not) the sampler asks for under the
        # series caps fits at once
        keys = {(8 * (D + 1), i == 0) for n in (1, 2) for i in range(n)
                for D in range(MAX_DEGREE[n] + 1)} | {(8, True), (8, False)}
        assert len(keys) == 56
        assert len(keys) <= _circle_axis.cache_info().maxsize == 64

    def test_cached_powers_grow_to_the_largest_exponent_asked(self):
        # a private table, so that the shared cache keeps what it holds
        points, powers = _circle_axis(56, False)
        powers = [powers[0][:2]]
        us = [complex(float(c), float(s)) for c, s in points]
        for E, length in ((1, 2), (4, 5), (2, 5), (6, 7), (0, 7)):
            columns = _axis_powers(powers, E)
            assert columns is powers[0] and len(columns) == length
            assert type(columns) is tuple
            assert all(type(c) is tuple and len(c) == len(us)
                       for c in columns)
        # u^e = u^(e-1) * u, left to right, as the loop computes it
        expected = [(1 + 0j,) * len(us)]
        for _ in range(6):
            expected.append(tuple(x * u for x, u in zip(expected[-1], us)))
        assert powers[0] == tuple(expected)
        # under the series caps the sampler asks an axis of count 8(D + 1)
        # (n <= 2) for exponents up to D, and one of count 8 (n >= 3) up
        # to MAX_DEGREE[3]: all 56 keys hold at most 160,811 complex floats
        largest = {(8, True): MAX_DEGREE[3], (8, False): MAX_DEGREE[3]}
        for n in (1, 2):
            for D in range(1, MAX_DEGREE[n] + 1):
                for upper in (True, False)[:n]:
                    largest[8 * (D + 1), upper] = D
        assert len(largest) == 56
        assert sum(len(_circle_axis(*key)[0]) * (E + 1)
                   for key, E in largest.items()) == 160_811

    def test_concurrent_growth_stores_a_correct_prefix(self):
        points, powers = _circle_axis(24, True)
        reference = _axis_powers([powers[0]], 40)
        shared, errors = [powers[0][:2]], []

        def grow(seed):
            for E in [(seed * 7 + k * 13) % 40 + 1 for k in range(60)]:
                columns = _axis_powers(shared, E)
                if len(columns) <= E or columns != reference[:len(columns)]:
                    errors.append(E)
                if shared[0] != reference[:len(shared[0])]:
                    errors.append(-E)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(s,))
                       for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


RANKING_RADII = [Fraction(1, 2**64), Fraction(2, 3), Fraction(1),
                 Fraction(2**40)]
RANKING_EPSILONS = [Fraction(1, 10**k) for k in range(8, 41)]


@st.composite
def ranking_series(draw):
    """(f, rho): a series over Q in n = 1 to 4 variables at a radius of
    ``RANKING_RADII``, either with up to 8 random terms of 64-bit
    numerators and denominators, or of the tie families of
    ``TestTorusRanking``: 1 + c z^I (|I| = D, c = +-B or B + 1 for B up
    to 2^63) plus +-eps z_i for one or two variables z_i."""
    n = draw(st.integers(1, 4))
    D = draw(st.integers(1, (8, 4, 2, 1)[n - 1]))
    if draw(st.booleans()):
        big = draw(st.sampled_from([1, 2**63 - 1, 2**63]))
        top = draw(st.tuples(*[st.integers(0, D)] * n).filter(
            lambda I: sum(I) == D))
        coeffs = {(0,) * n: Fraction(big),
                  top: Fraction(draw(st.sampled_from([big, -big, big + 1])))}
        eps = draw(st.sampled_from(RANKING_EPSILONS))
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=2, unique=True)):
            e = tuple(int(j == i) for j in range(n))
            coeffs[e] = coeffs.get(e, 0) + draw(st.sampled_from([eps, -eps]))
    else:
        indices = draw(st.lists(st.tuples(*[st.integers(0, D)] * n).filter(
            lambda I: sum(I) <= D), min_size=1, max_size=8, unique=True))
        coeffs = {I: Fraction(draw(st.integers(-2**64, 2**64)),
                              draw(st.integers(1, 2**64)))
                  for I in indices}
    rho = draw(st.lists(st.sampled_from(RANKING_RADII), min_size=n,
                        max_size=n))
    return TruncatedSeries(QA, n, coeffs, D), PolyRadius(tuple(rho))


class TestTorusRanking:
    """Floats rank the torus samples and only those near the float
    maximum are evaluated exactly.  The sampler's exact maximum of
    |f|^2, taken before the root bracket (which would hide a near-tie
    error), equals the exhaustive exact scan on families whose largest
    samples tie to within float rounding."""

    RADII = RANKING_RADII
    EPSILONS = RANKING_EPSILONS

    @staticmethod
    def check(f, rho):
        rho = PolyRadius(tuple(rho))
        points = 8 * (f.degree_bound + 1) if f.n <= 2 else 8
        assert torus_max_sq(f, rho) == \
            TestIntegerKernels.per_point_torus_max_sq(f, rho, points)

    def cases(self):
        """Each radius with every epsilon at radius 1 and every eighth
        elsewhere."""
        for r in self.RADII:
            for eps in self.EPSILONS[::1 if r == 1 else 8]:
                yield r, eps

    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_plus_z8(self, sign):
        # |1 + z^8| = 2 at the samples 1, -1, i and -i, and eps*z decides
        # among them: the maximum is at 1 or at -1, by the sign
        for r, eps in self.cases():
            f = TruncatedSeries(QA, 1, {(0,): 1, (8,): 1, (1,): sign * eps}, 8)
            self.check(f, [r])

    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_plus_z2w2(self, sign):
        # |1 + z^2 w^2| = 2 wherever zw = 1 or zw = -1, on many samples
        for r, eps in self.cases():
            f = TruncatedSeries(QA, 2, {(0, 0): 1, (2, 2): 1,
                                        (1, 0): sign * eps,
                                        (0, 1): -sign * eps}, 4)
            self.check(f, [r, r])

    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_plus_z2w_along_tied_rows(self, sign):
        # |1 + z^2 w| is largest wherever u^2 v = 1, for z = r_1 u and
        # w = r_2 v: in many rows (u fixed) at once, whose bounds and
        # maxima agree to within float rounding, and eps*z or eps*w
        # decides among them
        for r1, r2 in ((Fraction(2**40), Fraction(2, 3)),
                       (Fraction(9, 4), Fraction(2**40))):
            for eps in self.EPSILONS[4:23:3]:
                for e in ((1, 0), (0, 1)):
                    f = TruncatedSeries(QA, 2, {(0, 0): 1, (2, 1): 1,
                                                e: sign * eps}, 3)
                    self.check(f, [r1, r2])

    def test_high_degree_at_every_radius(self):
        # at radius 2^40 the term z^48 is 2^1920, past the float range
        for r in self.RADII:
            for eps in self.EPSILONS[::8]:
                f = TruncatedSeries(QA, 1, {(0,): 1, (48,): 1, (1,): eps},
                                    48)
                self.check(f, [r])

    @pytest.mark.parametrize("r", RADII)
    def test_coefficients_of_2_to_the_63(self, r):
        big = 2**63
        for coeffs, D in (
            ({(0,): big - 1, (8,): big - 1, (1,): 1}, 8),
            ({(0,): big - 1, (8,): big - 1, (1,): -1}, 8),
            ({(0,): big, (5,): -big - 1, (3,): big - 1}, 5),
        ):
            self.check(TruncatedSeries(Z, 1, coeffs, D), [r])
        f = TruncatedSeries(Z, 2, {(0, 0): big, (2, 2): big + 1,
                                   (1, 0): 1, (0, 1): -1}, 4)
        self.check(f, [r, r])

    def test_monomials_tie_at_every_sample(self):
        for f, rho in (
            (TruncatedSeries(Z, 1, {(5,): 7}, 5), [Fraction(2, 3)]),
            (TruncatedSeries(QA, 2, {(2, 1): Fraction(-3, 4)}, 3),
             [Fraction(2, 3), Fraction(5, 4)]),
            (TruncatedSeries(Z, 3, {(1, 0, 2): 5}, 3),
             [Fraction(1, 2**64), Fraction(1), Fraction(2**40)]),
        ):
            self.check(f, rho)

    @given(st.integers(1, 2).flatmap(lambda n: st.tuples(
        series(QA, n, tails=False),
        st.lists(st.sampled_from(RANKING_RADII), min_size=n, max_size=n))))
    @settings(max_examples=30, deadline=None)
    def test_exact_scan_when_ranking_is_off(self, case):
        # with the float ranking switched off every sample is evaluated
        f, rho = case
        rho = PolyRadius(tuple(rho))
        ranked = torus_max_sq(f, rho)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("daggeralg.series.MAX_RANKING_ERROR", -1.0)
            assert torus_max_sq(f, rho) == ranked

    @given(ranking_series())
    @settings(max_examples=150, deadline=None)
    def test_exact_samples_are_those_near_the_float_maximum(self, case):
        # the samples evaluated exactly, in order, are those whose float
        # magnitude in the per-sample loop is within 2*delta of its
        # maximum: the row cut skips none of them
        f, rho = case
        weighted, _ = _weighted_ints(*_scaled_ints(f.coeffs), rho)
        assume(weighted)
        samples = []
        evaluate = series_module._gaussian_value

        def counted(terms, points):
            samples.append(list(points))
            return evaluate(terms, points)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series_module, "_gaussian_value", counted)
            _torus_max_sq(f, weighted)
        exps = [max(I[i] for I, _ in weighted) for i in range(f.n)]
        first = next((i for i, E in enumerate(exps) if E), None)
        circle = _unit_circle_points(8 * (f.degree_bound + 1)
                                     if f.n <= 2 else 8)
        points = [[p for p in circle if i != first or p[1] >= 0]
                  if E else [(1, 0)] for i, E in enumerate(exps)]
        loop = float_magnitudes_loop(weighted, points, exps)
        cutoff = max(loop) - 2 * ranking_delta(weighted, f.n)
        assert samples == [list(p) for p, m in
                           zip(itertools.product(*points), loop)
                           if m >= cutoff]
