import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daggeralg.errors import CoordinateOutOfDisk, DimensionMismatch
from daggeralg.scalars import (
    NormValue,
    integers_archimedean,
    rationals_archimedean,
)
from daggeralg.series import (
    PolyRadius,
    Tail,
    TruncatedSeries,
    multiply,
    polyradius,
)
from daggeralg.spectrum import (
    ARCHIMEDEAN,
    PADIC,
    TRIVIAL,
    Place,
    SpectrumPoint,
    enumerate_places,
    evaluate_seminorm,
    fiber_sup,
    global_sup,
    global_sup_report,
    shilov_check,
    spectral_via_powers,
)
from intervals import contains, scale

Z = integers_archimedean()
ONE = polyradius(1)
ORACLE_PLACES = [Place(TRIVIAL)] + [
    place
    for eps in (Fraction(1, 2), Fraction(2, 3), Fraction(1))
    for place in (Place(ARCHIMEDEAN, eps), Place(PADIC, eps, 2),
                  Place(PADIC, eps, 3))
]


def zpoly(*coeffs):
    return TruncatedSeries.from_univariate(Z, [Fraction(c) for c in coeffs])


class TestPlaces:
    def test_enumeration_count_and_labels(self):
        places = enumerate_places(3, 2)
        # trivial + 2 archimedean + 2 primes x 2 exponents
        assert len(places) == 7
        labels = [p.label() for p in places]
        assert labels[0] == "trivial"
        assert "arch^1" in labels
        assert "2-adic^1/2" in labels and "3-adic^1" in labels

    def test_small_grid(self):
        assert len(enumerate_places(2, 1)) == 3

    def test_padic_abs(self):
        assert Place(PADIC, 1, 2).abs_value(6) \
            == NormValue.exact(Fraction(1, 2))

    def test_trivial_abs(self):
        assert Place(TRIVIAL).abs_value(-17) == NormValue.exact(1)

    def test_arch_fractional_exponent_brackets(self):
        nv = Place(ARCHIMEDEAN, Fraction(1, 2)).abs_value(4)
        assert nv.lo <= 2 <= nv.hi

    def test_exponent_range_enforced(self):
        with pytest.raises(ValueError):
            Place(ARCHIMEDEAN, 2)
        with pytest.raises(ValueError):
            Place(PADIC, 1)


class TestPoints:
    def test_arch_coordinate_bound(self):
        with pytest.raises(CoordinateOutOfDisk):
            SpectrumPoint(Place(ARCHIMEDEAN, 1), (2,), ONE)

    def test_fractional_exponent_shrinks_small_disk(self):
        # |1/2|^(1/2) > 1/2, so 1/2 lies outside the disk at arch^(1/2)
        half = Fraction(1, 2)
        with pytest.raises(CoordinateOutOfDisk):
            SpectrumPoint(Place(ARCHIMEDEAN, half), (half,), polyradius(half))
        SpectrumPoint(Place(ARCHIMEDEAN, half), (Fraction(1, 4),),
                      polyradius(half))

    def test_fractional_exponent_widens_large_disk(self):
        # |4|^(1/2) = 2 and |1/2|_2^(1/2) = 2^(1/2) <= 3/2
        SpectrumPoint(Place(ARCHIMEDEAN, Fraction(1, 2)), (4,), polyradius(2))
        SpectrumPoint(Place(PADIC, Fraction(1, 2), 2), (Fraction(1, 2),),
                      polyradius(Fraction(3, 2)))
        with pytest.raises(CoordinateOutOfDisk):
            SpectrumPoint(Place(ARCHIMEDEAN, Fraction(2, 3)), (3,),
                          polyradius(2))

    def test_padic_large_integer_is_small(self):
        pt = SpectrumPoint(Place(PADIC, 1, 2), (8,), ONE)
        assert evaluate_seminorm(zpoly(0, 1), pt) \
            == NormValue.exact(Fraction(1, 8))

    def test_evaluation(self):
        pt = SpectrumPoint(Place(ARCHIMEDEAN, 1), (Fraction(1, 2),), ONE)
        assert evaluate_seminorm(zpoly(1, 2), pt) == NormValue.exact(2)

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-4, 4))
    @settings(max_examples=50, deadline=None)
    def test_multiplicative_on_products(self, a, b, c):
        pt = SpectrumPoint(Place(PADIC, 1, 3), (Fraction(3) * c,),
                           polyradius(1))
        f, g = zpoly(a, 1), zpoly(b, 1)
        lhs = evaluate_seminorm(multiply(f, g), pt)
        rhs = evaluate_seminorm(f, pt).hi * evaluate_seminorm(g, pt).hi
        assert lhs.lo == lhs.hi == rhs


class TestFiberSup:
    def test_padic_gauss(self):
        assert fiber_sup(zpoly(2, 1), Place(PADIC, 1, 2), ONE) \
            == NormValue.exact(1)

    def test_trivial_indicator(self):
        assert fiber_sup(zpoly(0, 0, 5), Place(TRIVIAL), polyradius(2)) \
            == NormValue.exact(4)

    def test_arch_one_plus_x(self):
        nv = fiber_sup(zpoly(1, 1), Place(ARCHIMEDEAN, 1), ONE)
        assert nv.lo == nv.hi == 2

    def test_arch_fractional_exponent_takes_the_root_radius(self):
        # |z|^eps <= rho means |z| <= rho^(1/eps): the sup of |X|^(1/2)
        # is (rho^2)^(1/2) = rho, and that of |1 + X|^(2/3) at rho = 4 is
        # (1 + 4^(3/2))^(2/3) = 81^(1/3)
        half = Fraction(1, 2)
        for rho in (half, Fraction(2)):
            nv = fiber_sup(zpoly(0, 1), Place(ARCHIMEDEAN, half),
                           polyradius(rho))
            assert nv == NormValue.exact(rho)
        nv = fiber_sup(zpoly(1, 1), Place(ARCHIMEDEAN, Fraction(2, 3)),
                       polyradius(4))
        assert nv.lo**3 <= 81 <= nv.hi**3
        # rho^(3/2) is far below the root precision: the bracket stays
        # positive and the interval still holds the sup, rho
        tiny = Fraction(2, 10**20)
        nv = fiber_sup(zpoly(0, 1), Place(ARCHIMEDEAN, Fraction(2, 3)),
                       polyradius(tiny))
        assert contains(nv, tiny)

    def test_arch_root_radius_beyond_the_tail_is_open(self):
        # at arch^(1/2) the disk rho = 3/2 reaches |z| = 9/4, past the
        # tail radius 2; the Cauchy bound (|a_1| 9/4)^(1/2) still holds
        f = TruncatedSeries(Z, 1, {(0,): Fraction(1), (1,): Fraction(1)}, 1,
                            Tail(Fraction(100), polyradius(2)))
        nv = fiber_sup(f, Place(ARCHIMEDEAN, Fraction(1, 2)),
                       polyradius(Fraction(3, 2)))
        assert nv == NormValue(Fraction(3, 2), None)

    def test_arch_tail_lower_bound_is_cauchy(self):
        # members of 1 + X + tail(C=100, sigma=2) can cancel 1 + X on the
        # torus, so at eps = 1 and in the inner bracket at eps = 1/2 (the
        # radius 1^2 = 1) only the Cauchy bound 1 is certified below
        f = TruncatedSeries(Z, 1, {(0,): Fraction(1), (1,): Fraction(1)}, 1,
                            Tail(Fraction(100), polyradius(2)))
        assert fiber_sup(f, Place(ARCHIMEDEAN, 1), ONE).lo == 1
        assert fiber_sup(f, Place(ARCHIMEDEAN, Fraction(1, 2)), ONE).lo == 1

    def test_zero_series(self):
        assert fiber_sup(zpoly(0), Place(TRIVIAL), ONE) == NormValue.zero()

    def test_tail_leaves_upper_bound_open(self):
        # 1 + tail(C=100, sigma=2) has the member 1 + X, whose sup at
        # rho = 3/2 is 3/2 at the trivial and the 3-adic place
        f = TruncatedSeries(Z, 1, {(0,): Fraction(1)}, 0,
                            Tail(Fraction(100), polyradius(2)))
        rho = polyradius(Fraction(3, 2))
        member = zpoly(1, 1)
        for place in (Place(TRIVIAL), Place(PADIC, 1, 3)):
            nv = fiber_sup(f, place, rho)
            assert nv == NormValue(Fraction(1), None)
            assert contains(nv, fiber_sup(member, place, rho).hi)

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=4),
           st.sampled_from(ORACLE_PLACES), st.integers(1, 4),
           st.integers(1, 4), st.integers(-16, 16), st.integers(1, 8))
    @example([0, 1], Place(ARCHIMEDEAN, Fraction(1, 2)), 1, 2, 1, 2)
    @settings(max_examples=150, deadline=None)
    def test_every_point_below_fiber_sup(self, coeffs, place, rn, rd, cn,
                                         cd):
        # the point lies over the disk exactly when |c|^eps <= rho, that
        # is |c|^a <= rho^b for eps = a/b; its seminorm is below the sup
        f, rho, c = zpoly(*coeffs), polyradius(Fraction(rn, rd)), \
            Fraction(cn, cd)
        a, b = place.eps.numerator, place.eps.denominator
        if place.size(c)**a > rho[0]**b:
            with pytest.raises(CoordinateOutOfDisk):
                SpectrumPoint(place, (c,), rho)
            return
        pt = SpectrumPoint(place, (c,), rho)
        assert evaluate_seminorm(f, pt).lo <= fiber_sup(f, place, rho).hi

    def test_point_seminorm_below_fiber_sup(self):
        rng = random.Random(2)
        for _ in range(25):
            f = zpoly(*[rng.randint(-4, 4) for _ in range(4)])
            place = Place(PADIC, 1, 3)
            pt = SpectrumPoint(place, (Fraction(3 * rng.randint(-2, 2)),),
                               ONE)
            assert evaluate_seminorm(f, pt).hi <= \
                fiber_sup(f, place, ONE).hi


def gauss_fiber_loop(f, place, rho):
    """The p-adic and trivial fiber sup as one certified root bracket
    per coefficient, joined coefficient by coefficient."""
    if place.kind == PADIC:
        known = NormValue.zero()
        for I, a in f.coeffs.items():
            known = known.join_max(scale(place.abs_value(a), rho.power(I)))
    else:
        known = NormValue.exact(
            max((rho.power(I) for I in f.coeffs), default=Fraction(0)))
    if f.tail is not None and f.tail.C:
        return NormValue(known.lo, None)
    return known


@st.composite
def padic_cases(draw):
    """A rational series whose coefficients carry powers of p in the
    numerator and the denominator, and a p-adic or trivial place."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 2))
    D = draw(st.integers(0, 4))
    coeff = st.builds(lambda k, m, j, d: Fraction(p**k * m, p**j * d),
                      st.integers(0, 3), st.integers(-9, 9),
                      st.integers(0, 3), st.integers(1, 9))
    entries = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, D)] * n),
                                      coeff), max_size=6))
    tail = draw(st.sampled_from([None, Tail(0, polyradius(*[2] * n)),
                                 Tail(3, polyradius(*[2] * n))]))
    f = TruncatedSeries(rationals_archimedean(), n,
                        {I: a for I, a in entries if sum(I) <= D}, D, tail)
    eps = draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(1),
                                Fraction(2)]))
    place = draw(st.sampled_from([Place(PADIC, eps, p), Place(TRIVIAL)]))
    rho = draw(st.lists(st.sampled_from([Fraction(1, 3), Fraction(1),
                                         Fraction(7, 4)]),
                        min_size=n, max_size=n))
    return f, place, PolyRadius(tuple(rho))


class TestGaussFibers:
    @given(padic_cases())
    @settings(max_examples=200, deadline=None)
    def test_fiber_sup_matches_per_coefficient_loop(self, case):
        f, place, rho = case
        assert fiber_sup(f, place, rho) == gauss_fiber_loop(f, place, rho)

    def test_units_and_non_units_at_a_fractional_exponent(self):
        # 3 and 5/7 are 2-adic units; |1/2|_2^(2/3) = 4^(1/3) is bracketed
        f = TruncatedSeries(rationals_archimedean(), 1,
                            {(0,): Fraction(3), (1,): Fraction(1, 2),
                             (2,): Fraction(5, 7)}, 2)
        place = Place(PADIC, Fraction(2, 3), 2)
        nv = fiber_sup(f, place, ONE)
        assert nv.lo < nv.hi and nv.lo**3 <= 4 <= nv.hi**3
        assert fiber_sup(f, place, polyradius(Fraction(1, 2))) \
            == NormValue.exact(1)
        assert fiber_sup(f, place, polyradius(2)) == NormValue.exact(4)


class TestGlobalSup:
    def test_one_plus_x(self):
        assert global_sup(zpoly(1, 1), ONE) == NormValue(2, 2)

    def test_report_contents(self):
        rep = global_sup_report(zpoly(1, 1), ONE, 3, 1)
        labels = dict(rep.per_place)
        assert labels["arch^1"] == NormValue(2, 2)
        assert labels["2-adic^1"] == NormValue.exact(1)
        assert rep.unlisted_primes_bounded_by == 1

    def test_tail_leaves_unlisted_primes_open(self):
        # the member 1 + X of 1 + tail(C=100, sigma=2) reaches 3/2 at
        # every prime, so no bound from the known coefficients holds
        f = TruncatedSeries(Z, 1, {(0,): Fraction(1)}, 0,
                            Tail(Fraction(100), polyradius(2)))
        rep = global_sup_report(f, polyradius(Fraction(3, 2)), 3, 1)
        assert rep.unlisted_primes_bounded_by is None

    def test_every_fiber_below_global(self):
        f = zpoly(3, -2, 0, 5)
        rep = global_sup_report(f, ONE, 20, 2)
        for _, nv in rep.per_place:
            assert nv.hi <= rep.value.hi


class TestPowers:
    def test_upper_estimates_bound_global_sup(self):
        f = zpoly(1, 1)
        powers = spectral_via_powers(f, ONE, 8)
        g = global_sup(f, ONE)
        for nv in powers:
            assert nv.hi >= g.lo

    def test_one_plus_x_stabilizes_at_two(self):
        powers = spectral_via_powers(zpoly(1, 1), ONE, 6)
        # norm of (1+X)^n is 2^n, so every root estimate contains 2
        for nv in powers:
            assert nv.lo <= 2 <= nv.hi

    def test_needs_a_power(self):
        with pytest.raises(ValueError):
            spectral_via_powers(zpoly(1), ONE, 0)

    @given(st.integers(0, 2),
           st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any),
           st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
    @example(1, [1], 1, 2, 2)
    @settings(max_examples=60, deadline=None)
    def test_global_sup_below_every_power_estimate(self, shift, coeffs, rn,
                                                   rd, grid):
        # every point of the spectrum is bounded by the norm, so the
        # global sup never exceeds any estimate norm(f^n)^(1/n)
        f = zpoly(*[0] * shift, *coeffs)
        rho = polyradius(Fraction(rn, rd))
        lo = global_sup(f, rho, 7, grid).lo
        for nv in spectral_via_powers(f, rho, 4):
            assert lo <= nv.hi


class TestShilov:
    def test_confirmed_for_one_plus_x(self):
        v = shilov_check(zpoly(1, 1), ONE)
        assert v.confirmed
        assert v.archimedean_sup.lo >= v.max_other.hi
        assert v.monomial_floor == 1

    def test_confirmed_at_larger_radius(self):
        v = shilov_check(zpoly(1, 0, 3), polyradius(2))
        assert v.confirmed and v.monomial_floor == 4

    def test_radius_below_one_rejected(self):
        with pytest.raises(ValueError):
            shilov_check(zpoly(1), polyradius(Fraction(1, 2)))

    def test_zero_series_rejected(self):
        with pytest.raises(ValueError):
            shilov_check(zpoly(0), ONE)

    def test_random_integer_polys_confirmed(self):
        rng = random.Random(4)
        for _ in range(20):
            coeffs = [rng.randint(-6, 6) for _ in range(4)]
            if not any(coeffs):
                coeffs[0] = 1
            assert shilov_check(zpoly(*coeffs), ONE, 20).confirmed
