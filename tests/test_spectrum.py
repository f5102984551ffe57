import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daggeralg.errors import CoordinateOutOfDisk, DimensionMismatch
from daggeralg.scalars import NormValue, integers_archimedean
from daggeralg.series import Tail, TruncatedSeries, multiply, polyradius
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

Z = integers_archimedean()
ONE = polyradius(1)


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

    def test_json_round_trip(self):
        for place in enumerate_places(3, 2):
            assert Place.from_json(place.to_json()) == place


class TestPoints:
    def test_arch_coordinate_bound(self):
        with pytest.raises(CoordinateOutOfDisk):
            SpectrumPoint(Place(ARCHIMEDEAN, 1), (2,), ONE)

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
            assert nv.contains(fiber_sup(member, place, rho).hi)

    def test_point_seminorm_below_fiber_sup(self):
        rng = random.Random(2)
        for _ in range(25):
            f = zpoly(*[rng.randint(-4, 4) for _ in range(4)])
            place = Place(PADIC, 1, 3)
            pt = SpectrumPoint(place, (Fraction(3 * rng.randint(-2, 2)),),
                               ONE)
            assert evaluate_seminorm(f, pt).hi <= \
                fiber_sup(f, place, ONE).hi


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
