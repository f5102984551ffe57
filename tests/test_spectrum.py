import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daggeralg import spectrum
from daggeralg.errors import DimensionMismatch
from daggeralg.scalars import (
    NormValue,
    integers_archimedean,
    integers_trivial,
    nth_root_interval,
    rational_root_bounds,
    rationals_archimedean,
    rationals_padic,
)
from daggeralg.series import (
    PolyRadius,
    Tail,
    TruncatedSeries,
    multiply,
    norm_S,
    norm_T,
    polyradius,
)
from daggeralg.spectrum import (
    fiber_sup,
    global_sup,
    power_work,
    shilov_check,
    spectral_via_powers,
)
from intervals import contains, join
from places import (
    ARCHIMEDEAN,
    PADIC,
    TRIVIAL,
    ArchPower,
    CoordinateOutOfDisk,
    Place,
    SpectrumPoint,
    enumerate_places,
    evaluate_seminorm,
    gauss_fiber_loop,
    global_sup_join,
    label,
    place_sup,
)

Z = integers_archimedean()
ZT = integers_trivial()
Q2 = rationals_padic(2)
Q3 = rationals_padic(3)
QA = rationals_archimedean()
ONE = polyradius(1)
ORACLE_PLACES = [Place(TRIVIAL)] + [
    place
    for eps in (Fraction(1, 2), Fraction(2, 3), Fraction(1))
    for place in (ArchPower(eps), Place(PADIC, eps, 2),
                  Place(PADIC, eps, 3))
]


def zpoly(*coeffs):
    return TruncatedSeries.from_univariate(Z, [Fraction(c) for c in coeffs])


class TestPlaces:
    def test_enumeration_count_and_labels(self):
        places = enumerate_places(3, 2)
        # trivial + 2 archimedean + 2 primes x 2 exponents
        assert len(places) == 7
        labels = [label(p) for p in places]
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
        nv = ArchPower(Fraction(1, 2)).abs_value(4)
        assert nv.lo <= 2 <= nv.hi

    def test_exponent_range_enforced(self):
        # the Archimedean place is taken at eps = 1 only: its fiber
        # dominates those of the other exponents
        for eps in (2, Fraction(1, 2)):
            with pytest.raises(ValueError):
                Place(ARCHIMEDEAN, eps)
        with pytest.raises(ValueError):
            ArchPower(2)
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
            SpectrumPoint(ArchPower(half), (half,), polyradius(half))
        SpectrumPoint(ArchPower(half), (Fraction(1, 4),), polyradius(half))

    def test_fractional_exponent_widens_large_disk(self):
        # |4|^(1/2) = 2 and |1/2|_2^(1/2) = 2^(1/2) <= 3/2
        SpectrumPoint(ArchPower(Fraction(1, 2)), (4,), polyradius(2))
        SpectrumPoint(Place(PADIC, Fraction(1, 2), 2), (Fraction(1, 2),),
                      polyradius(Fraction(3, 2)))
        with pytest.raises(CoordinateOutOfDisk):
            SpectrumPoint(ArchPower(Fraction(2, 3)), (3,), polyradius(2))

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
        assert fiber_sup(zpoly(2, 1), Q2, ONE) == NormValue.exact(1)

    def test_trivial_indicator(self):
        assert fiber_sup(zpoly(0, 0, 5), ZT, polyradius(2)) \
            == NormValue.exact(4)

    def test_arch_one_plus_x(self):
        nv = fiber_sup(zpoly(1, 1), QA, ONE)
        assert nv.lo == nv.hi == 2

    def test_arch_fractional_exponent_takes_the_root_radius(self):
        # |z|^eps <= rho means |z| <= rho^(1/eps): the sup of |X|^(1/2)
        # is (rho^2)^(1/2) = rho, and that of |1 + X|^(2/3) at rho = 4 is
        # (1 + 4^(3/2))^(2/3) = 81^(1/3)
        half = Fraction(1, 2)
        for rho in (half, Fraction(2)):
            nv = place_sup(zpoly(0, 1), ArchPower(half), polyradius(rho))
            assert nv == NormValue.exact(rho)
        nv = place_sup(zpoly(1, 1), ArchPower(Fraction(2, 3)), polyradius(4))
        assert nv.lo**3 <= 81 <= nv.hi**3
        # rho^(3/2) is far below the root precision: the bracket stays
        # positive and the interval still holds the sup, rho
        tiny = Fraction(2, 10**20)
        nv = place_sup(zpoly(0, 1), ArchPower(Fraction(2, 3)),
                       polyradius(tiny))
        assert contains(nv, tiny)

    def test_arch_root_radius_beyond_the_tail_is_open(self):
        # at arch^(1/2) the disk rho = 3/2 reaches |z| = 9/4, past the
        # tail radius 2; the Cauchy bound (|a_1| 9/4)^(1/2) still holds
        f = TruncatedSeries(Z, 1, {(0,): Fraction(1), (1,): Fraction(1)}, 1,
                            Tail(Fraction(100), polyradius(2)))
        nv = place_sup(f, ArchPower(Fraction(1, 2)),
                       polyradius(Fraction(3, 2)))
        assert nv == NormValue(Fraction(3, 2), None)

    def test_arch_tail_lower_bound_is_cauchy(self):
        # members of 1 + X + tail(C=100, sigma=2) can cancel 1 + X on the
        # torus, so at eps = 1 and in the inner bracket at eps = 1/2 (the
        # radius 1^2 = 1) only the Cauchy bound 1 is certified below
        f = TruncatedSeries(Z, 1, {(0,): Fraction(1), (1,): Fraction(1)}, 1,
                            Tail(Fraction(100), polyradius(2)))
        assert fiber_sup(f, QA, ONE).lo == 1
        assert place_sup(f, ArchPower(Fraction(1, 2)), ONE).lo == 1

    def test_zero_series(self):
        for ring in (ZT, Q3, QA):
            assert fiber_sup(zpoly(0), ring, ONE) == NormValue.exact(0)

    def test_tail_leaves_upper_bound_open(self):
        # past the tail radius, or over the rationals, the majorant of
        # 1 + tail(C=100, sigma=2) bounds nothing at these places: over Z
        # it has the member 1 + X^6, whose sup at rho = 3 is 729, and over
        # Q the member 1 + X/3^k, which reaches 3^k at the 3-adic place
        for base, rho in ((Z, polyradius(3)), (QA, polyradius(1))):
            f = TruncatedSeries(base, 1, {(0,): Fraction(1)}, 0,
                                Tail(Fraction(100), polyradius(2)))
            for ring in (ZT, Q3):
                assert fiber_sup(f, ring, rho) == NormValue(Fraction(1), None)

    def test_integer_tail_bounds_the_upper_end(self):
        # a nonzero integer coefficient past the degree bound has
        # 1 <= |a_I| <= C sigma^-I, so rho^I <= sigma^I <= C for rho <= sigma:
        # 1 + tail(C=100, sigma=2) has the member 1 + X, whose sup at
        # rho = 3/2 is 3/2, and 1 + X^6, whose sup at rho = 2 is 64
        f = TruncatedSeries(Z, 1, {(0,): Fraction(1)}, 0,
                            Tail(Fraction(100), polyradius(2)))
        for rho, member in ((Fraction(3, 2), zpoly(1, 1)),
                            (Fraction(2), zpoly(1, 0, 0, 0, 0, 0, 1))):
            for ring in (ZT, Q3, Q2):
                nv = fiber_sup(f, ring, polyradius(rho))
                assert nv == NormValue(Fraction(1), Fraction(100))
                assert contains(nv, fiber_sup(member, ring,
                                              polyradius(rho)).hi)

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=4),
           st.sampled_from(ORACLE_PLACES), st.integers(1, 4),
           st.integers(1, 4), st.integers(-16, 16), st.integers(1, 8))
    @example([0, 1], ArchPower(Fraction(1, 2)), 1, 2, 1, 2)
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
        assert evaluate_seminorm(f, pt).lo <= place_sup(f, place, rho).hi

    def test_point_seminorm_below_fiber_sup(self):
        rng = random.Random(2)
        for _ in range(25):
            f = zpoly(*[rng.randint(-4, 4) for _ in range(4)])
            place = Place(PADIC, 1, 3)
            pt = SpectrumPoint(place, (Fraction(3 * rng.randint(-2, 2)),),
                               ONE)
            assert evaluate_seminorm(f, pt).hi <= \
                fiber_sup(f, place.ring, ONE).hi


@st.composite
def padic_cases(draw):
    """A rational series whose coefficients carry powers of p in the
    numerator and the denominator, or an integer one with powers of p in
    the numerator, and a p-adic or trivial place at eps = 1."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 2))
    D = draw(st.integers(0, 4))
    integral = draw(st.booleans())
    below = st.just(0) if integral else st.integers(0, 3)
    coeff = st.builds(lambda k, m, j, d: Fraction(p**k * m, p**j * d),
                      st.integers(0, 3), st.integers(-9, 9),
                      below, st.just(1) if integral else st.integers(1, 9))
    entries = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, D)] * n),
                                      coeff), max_size=6))
    tail = draw(st.sampled_from([None, Tail(0, polyradius(*[2] * n)),
                                 Tail(3, polyradius(*[2] * n))]))
    f = TruncatedSeries(Z if integral else rationals_archimedean(), n,
                        {I: a for I, a in entries if sum(I) <= D}, D, tail)
    place = draw(st.sampled_from([Place(PADIC, 1, p), Place(TRIVIAL)]))
    # the tail radius is 2: radii inside it, on it and beyond it
    rho = draw(st.lists(st.sampled_from([Fraction(1, 3), Fraction(1),
                                         Fraction(7, 4), Fraction(2),
                                         Fraction(5, 2)]),
                        min_size=n, max_size=n))
    return f, place, PolyRadius(tuple(rho))


class TestGaussFibers:
    @given(padic_cases())
    @settings(max_examples=200, deadline=None)
    def test_fiber_sup_matches_per_coefficient_loop(self, case):
        f, place, rho = case
        assert fiber_sup(f, place.ring, rho) == \
            gauss_fiber_loop(f, place, rho)

    def test_units_and_non_units(self):
        # 3 and 5/7 are 2-adic units, |1/2|_2 = 2; the oracle's fiber at
        # eps = 2/3 brackets |1/2|_2^(2/3) = 4^(1/3)
        f = TruncatedSeries(QA, 1, {(0,): Fraction(3), (1,): Fraction(1, 2),
                                    (2,): Fraction(5, 7)}, 2)
        assert fiber_sup(f, Q2, ONE) == NormValue.exact(2)
        assert fiber_sup(f, Q2, polyradius(Fraction(1, 2))) \
            == NormValue.exact(1)
        assert fiber_sup(f, Q2, polyradius(2)) == NormValue.exact(4)
        nv = place_sup(f, Place(PADIC, Fraction(2, 3), 2), ONE)
        assert nv.lo < nv.hi and nv.lo**3 <= 4 <= nv.hi**3


@st.composite
def value_group_ties(draw):
    """(f, rho, v): a series over Q_p, p = 2, 3 or 5, at rho_i = p^(j_i)
    on the value group, whose largest terms |a_I|_p rho^I tie at
    v = p^t.  Each a_I is a unit u_I times p^(j.I - t + d_I), with
    d_I = 0 for two or more I and d_I >= 1 for the rest, so that
    |a_I|_p rho^I = p^(t - d_I)."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 2))
    js = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    t = draw(st.integers(-2, 2))
    D = (6, 4)[n - 1]
    indices = draw(st.lists(st.tuples(*[st.integers(0, D)] * n).filter(
        lambda I: sum(I) <= D), min_size=2, max_size=6, unique=True))
    ties = draw(st.integers(2, len(indices)))
    prime_to_p = st.integers(1, 60).filter(lambda u: u % p)
    coeffs = {}
    for k, I in enumerate(indices):
        d = 0 if k < ties else draw(st.integers(1, 3))
        unit = Fraction(draw(prime_to_p) * draw(st.sampled_from([1, -1])),
                        draw(prime_to_p))
        e = sum(j * i for j, i in zip(js, I)) - t + d
        coeffs[I] = unit * Fraction(p) ** e
    rho = PolyRadius(tuple(Fraction(p) ** j for j in js))
    return (TruncatedSeries(rationals_padic(p), n, coeffs, D), rho,
            Fraction(p) ** t)


class TestValueGroupBoundary:
    """A Gauss norm at a boundary of the value group is the closed form
    p^t exactly, whichever terms tie there; coefficients with p in the
    denominator make the common denominator L of the size table carry
    v_p(L) > 0."""

    @given(value_group_ties())
    # 1 + X/p at rho = 1/p: |1/p|_p (1/p) = 1 ties with the constant
    @example((TruncatedSeries(Q2, 1, {(0,): 1, (1,): Fraction(1, 2)}, 1),
              polyradius(Fraction(1, 2)), Fraction(1)))
    @example((TruncatedSeries(Q3, 1, {(0,): 1, (1,): Fraction(1, 3)}, 1),
              polyradius(Fraction(1, 3)), Fraction(1)))
    @example((TruncatedSeries(rationals_padic(5), 1,
                              {(0,): 1, (1,): Fraction(1, 5)}, 1),
              polyradius(Fraction(1, 5)), Fraction(1)))
    @settings(max_examples=150, deadline=None)
    def test_norm_T_and_fiber_sup_are_the_closed_form(self, case):
        f, rho, v = case
        assert norm_T(f, rho) == NormValue(v, v)
        assert fiber_sup(f, f.ring, rho) == NormValue(v, v)


@st.composite
def integer_polys(draw):
    """An integer polynomial with n <= 2, D <= 5 and coefficients +-1 to
    +-9, and a polyradius with components from 1/2 to 2."""
    n = draw(st.integers(1, 2))
    D = draw(st.integers(0, 5))
    index = st.tuples(*[st.integers(0, D)] * n).filter(lambda I: sum(I) <= D)
    coeff = st.builds(lambda m, sign: m * sign, st.integers(1, 9),
                      st.sampled_from([1, -1]))
    coeffs = draw(st.dictionaries(index, coeff, min_size=1, max_size=6))
    rho = draw(st.lists(st.sampled_from([Fraction(1, 2), Fraction(2, 3),
                                         Fraction(1), Fraction(5, 4),
                                         Fraction(3, 2), Fraction(2)]),
                        min_size=n, max_size=n))
    return TruncatedSeries(Z, n, coeffs, D), PolyRadius(tuple(rho))


# primes above 10,000, past the largest --prime-bound the grid ever listed
LARGE_PRIMES = [10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079]


@st.composite
def off_grid_points(draw, rho):
    """A point over the usual absolute value at a random exponent in
    (0, 1), or over a prime above 10,000 at a random positive exponent,
    with rational coordinates in the disk of radius rho there."""
    a, b = draw(st.integers(1, 24)), draw(st.integers(2, 24))
    if draw(st.booleans()):
        eps = Fraction(min(a, b - 1), b)
        place = ArchPower(eps)
        coords = []
        for r in rho:
            # |c| <= rho^(1/eps), the a-th root of rho^b for eps = a/b
            edge, _ = rational_root_bounds(r**eps.denominator, eps.numerator)
            coords.append(edge * Fraction(draw(st.integers(-16, 16)), 16))
    else:
        place = Place(PADIC, Fraction(a, b), draw(st.sampled_from(
            LARGE_PRIMES)))
        p, coords = place.p, []
        for r in rho:
            # |p^k m/d|_p^eps = p^(-k eps) <= r for m and d prime to p
            k = 0
            while Fraction(1, p**(k * a)) > r**b:
                k += 1
            coords.append(Fraction(p**(k + draw(st.integers(0, 1)))
                                   * draw(st.integers(-9, 9)),
                                   draw(st.integers(1, 9))))
    return SpectrumPoint(place, tuple(coords), rho)


class TestGlobalSup:
    def test_one_plus_x(self):
        assert global_sup(zpoly(1, 1), ONE) == NormValue(2, 2)

    def test_report_contents(self):
        total, table = global_sup_join(zpoly(1, 1), ONE, 3, 1)
        labels = {label(place): nv for place, nv in table}
        assert labels["arch^1"] == NormValue(2, 2)
        assert labels["2-adic^1"] == NormValue.exact(1)
        assert total == global_sup(zpoly(1, 1), ONE)

    def test_tail_leaves_global_sup_open(self):
        # the theorem covers polynomials; a zero tail is one
        for C, expected in ((100, NormValue(1, None)), (0, NormValue(1, 1))):
            f = TruncatedSeries(Z, 1, {(0,): Fraction(1)}, 0,
                                Tail(Fraction(C), polyradius(2)))
            assert global_sup(f, polyradius(Fraction(3, 2))) == expected

    def test_zero_series(self):
        assert global_sup(zpoly(0), ONE) == NormValue.exact(0)

    def test_rational_coefficients_rejected(self):
        f = TruncatedSeries(rationals_archimedean(), 1,
                            {(0,): Fraction(1, 2)}, 0)
        with pytest.raises(DimensionMismatch):
            global_sup(f, ONE)

    def test_every_fiber_below_global(self):
        f = zpoly(3, -2, 0, 5)
        g = global_sup(f, ONE)
        for _, nv in global_sup_join(f, ONE, 20, 2)[1]:
            assert nv.lo <= g.hi

    @given(integer_polys(), st.sampled_from([2, 5, 13]), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_closed_form_against_place_join(self, case, prime_bound, grid):
        # no place's fiber exceeds the closed form, and the closed form
        # is at least as tight as the join, whose grid holds eps = 1
        f, rho = case
        g = global_sup(f, rho)
        total, table = global_sup_join(f, rho, prime_bound, grid)
        for place, nv in table:
            assert nv.lo <= g.hi, label(place)
        assert total.lo <= g.lo and g.hi <= total.hi

    @given(st.data(), integer_polys())
    @settings(max_examples=150, deadline=None)
    def test_off_grid_points_below_closed_form(self, data, case):
        # the grid covered neither these exponents nor these primes
        f, rho = case
        g = global_sup(f, rho)
        pt = data.draw(off_grid_points(rho))
        assert evaluate_seminorm(f, pt).lo <= g.hi
        assert place_sup(f, pt.place, rho).lo <= g.hi


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
           st.integers(1, 4), st.integers(1, 4))
    @example(1, [1], 1, 2)
    @settings(max_examples=60, deadline=None)
    def test_global_sup_below_every_power_estimate(self, shift, coeffs, rn,
                                                   rd):
        # every point of the spectrum is bounded by the norm, so the
        # global sup never exceeds any estimate norm(f^n)^(1/n)
        f = zpoly(*[0] * shift, *coeffs)
        rho = polyradius(Fraction(rn, rd))
        lo = global_sup(f, rho).lo
        for nv in spectral_via_powers(f, rho, 4):
            assert lo <= nv.hi


def multiply_chain(f, rho, n_max):
    """The estimates by ``multiply`` and ``norm_S``, power by power."""
    out, power = [], f
    for k in range(1, n_max + 1):
        hi = norm_S(power, rho).hi
        out.append(nth_root_interval(hi, k))
        if k < n_max:
            power = multiply(power, f)
    return out


@st.composite
def untailed_cases(draw):
    """An untailed series over Z, Z_triv, Q_2, Q_3 or Q with n <= 4
    (D <= 1 at n = 4), a radius and a power count up to 8."""
    ring = draw(st.sampled_from([Z, ZT, Q2, Q3, rationals_archimedean()]))
    n = draw(st.integers(1, 4))
    D = draw(st.integers(0, (4, 4, 2, 1)[n - 1]))
    coeff = st.integers(-9, 9) if ring.integral else st.fractions(
        min_value=-9, max_value=9, max_denominator=12)
    entries = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, D)] * n),
                                      coeff), max_size=5))
    f = TruncatedSeries(ring, n, {I: c for I, c in entries if sum(I) <= D},
                        D)
    rho = draw(st.lists(st.sampled_from([Fraction(1, 2), Fraction(2, 3),
                                         Fraction(1), Fraction(9, 4)]),
                        min_size=n, max_size=n))
    return f, PolyRadius(tuple(rho)), draw(st.integers(1, 8))


# radii whose numerator and denominator both have 64 bits, the input cap
WIDE = Fraction(2**64 - 59, 2**63 + 25)
WIDE_CHAIN_CASES = [
    (TruncatedSeries(Z, 1, {(0,): -7, (2,): 3, (5,): 9, (6,): -1}, 6),
     polyradius(WIDE), 8),
    (TruncatedSeries(rationals_archimedean(), 2,
                     {(0, 0): Fraction(1, 3), (2, 1): Fraction(-5, 4),
                      (0, 3): 2}, 3),
     polyradius(1 / WIDE, WIDE), 7),
    (TruncatedSeries(Q2, 3, {(0, 0, 0): Fraction(3, 4), (1, 0, 1): 6,
                             (0, 2, 0): -1}, 2),
     polyradius(WIDE, 1, Fraction(2**64 - 1, 3)), 6),
    (TruncatedSeries(ZT, 4, {(0, 0, 0, 0): 5, (1, 0, 0, 0): -3,
                             (0, 0, 0, 1): 2}, 1),
     polyradius(WIDE, WIDE, 1 / WIDE, 2), 8),
]


def binomial_chain(f, rho, n_max):
    """The estimates by the binomial bound, power by power through
    ``multiply``: |p^k|_S of the known polynomial p of f, plus
    (P + tau)^k - P^k for [P, P + tau] = norm_S(f)."""
    known = norm_S(f, rho)
    p = TruncatedSeries(f.ring, f.n, f.coeffs, f.degree_bound)
    out, power = [], p
    for k in range(1, n_max + 1):
        bound = norm_S(power, rho).hi + known.hi**k - known.lo**k
        out.append(nth_root_interval(bound, k))
        if k < n_max:
            power = multiply(power, p)
    return out


@st.composite
def tailed_cases(draw):
    """``untailed_cases`` over Z, Z_triv, Q_2 or Q with a tail whose
    constant may be 0 and whose radius lies beyond rho."""
    f, rho, n_max = draw(untailed_cases())
    ring = draw(st.sampled_from([f.ring, ZT, Q2]))
    if ring == ZT:
        f = TruncatedSeries(ring, f.n, {I: Fraction(a.numerator)
                                        for I, a in f.coeffs.items()},
                            f.degree_bound)
    C = draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(5)]))
    sigma = PolyRadius(tuple(r + draw(st.sampled_from([Fraction(1, 8), 1]))
                             for r in rho))
    tailed = TruncatedSeries(ring, f.n, f.coeffs, f.degree_bound,
                             Tail(C, sigma))
    return tailed, rho, n_max


class TestPowerChain:
    """Every series has the powers of its known part chained on integers,
    and a tail adds the binomial bound; none goes through ``multiply``."""

    @given(untailed_cases())
    @example(WIDE_CHAIN_CASES[0])
    @example(WIDE_CHAIN_CASES[1])
    @example(WIDE_CHAIN_CASES[2])
    @example(WIDE_CHAIN_CASES[3])
    @settings(max_examples=80, deadline=None)
    def test_integer_chain_matches_multiply_chain(self, case):
        f, rho, n_max = case
        assert spectral_via_powers(f, rho, n_max) == \
            multiply_chain(f, rho, n_max)

    @given(tailed_cases())
    @settings(max_examples=80, deadline=None)
    def test_tailed_chain_matches_binomial_oracle(self, case):
        f, rho, n_max = case
        assert spectral_via_powers(f, rho, n_max) == \
            binomial_chain(f, rho, n_max)

    def test_no_series_takes_multiply(self):
        # the untailed, tailed, zero-tail, zero and p-adic series that the
        # old fork sent through multiply
        assert "multiply" not in vars(spectrum)
        rho = polyradius(Fraction(1, 4))
        sigma = polyradius(2)
        for f in (
            zpoly(3, -1, 2),
            TruncatedSeries(Z, 1, {(0,): 3, (1,): -1}, 2,
                            Tail(Fraction(1, 2), sigma)),
            TruncatedSeries(Z, 1, {(0,): 3, (1,): -1}, 2,
                            Tail(Fraction(0), sigma)),
            zpoly(0),
            TruncatedSeries(Q2, 1, {(0,): Fraction(1, 2), (1,): 4}, 1),
        ):
            estimates = spectral_via_powers(f, rho, 5)
            assert estimates == binomial_chain(f, rho, 5)
            if f.tail is None or not f.tail.C:
                p = TruncatedSeries(f.ring, 1, f.coeffs, f.degree_bound)
                assert estimates == multiply_chain(p, rho, 5)

    def test_tailed_estimates_at_eight_powers(self):
        # 1 + 2X - X^3 with tail(C=1, sigma=2) at rho = 1: P = 4 and
        # tau = 2 - 15/8, so the first two estimates are 33/8; multiply
        # shrank sigma by 3/4 per power and failed from the fourth on
        f = TruncatedSeries(Z, 1, {(0,): 1, (1,): 2, (3,): -1}, 3,
                            Tail(Fraction(1), polyradius(2)))
        estimates = spectral_via_powers(f, ONE, 8)
        assert estimates[0] == estimates[1] == NormValue.exact(Fraction(33, 8))
        assert [round(float(nv.hi), 3) for nv in estimates[2:]] == \
            [4.004, 3.926, 3.881, 3.862, 3.853, 3.848]

    @given(untailed_cases())
    @settings(max_examples=40, deadline=None)
    def test_power_work_bounds_the_term_pairs(self, case):
        f, _, n_max = case
        pairs, power = 0, f
        for _ in range(1, n_max):
            pairs += len(power.coeffs) * len(f.coeffs)
            power = multiply(power, f)
        assert pairs <= power_work(f, n_max)

    def test_power_work_of_dense_series(self):
        # 35 terms of total degree <= 4 in 3 variables: f^k has at most
        # C(4k + 3, 3) terms
        f = TruncatedSeries(Z, 3, {I: 1 for I in itertools.product(
            range(5), repeat=3) if sum(I) <= 4}, 4)
        assert power_work(f, 2) == 35 * 35
        assert power_work(f, 3) == 35 * 35 + 35 * 165


class TestShilov:
    def test_confirmed_for_one_plus_x(self):
        v = shilov_check(zpoly(1, 1), ONE)
        assert v.confirmed
        assert v.archimedean_sup.lo >= v.max_other.hi
        assert v.max_other.lo == 1

    def test_confirmed_at_larger_radius(self):
        v = shilov_check(zpoly(1, 0, 3), polyradius(2))
        assert v.confirmed and v.max_other.lo == 4

    def test_radius_below_one_confirmed(self):
        # Cauchy: M(rho) >= max |a_I| rho^I >= max rho^I at every radius
        v = shilov_check(zpoly(1, 0, 3), polyradius(Fraction(1, 2)))
        assert v.confirmed and v.max_other.lo == 1
        assert v.max_other == NormValue.exact(1)

    def test_zero_series_rejected(self):
        with pytest.raises(ValueError):
            shilov_check(zpoly(0), ONE)

    def test_random_integer_polys_confirmed(self):
        rng = random.Random(4)
        for _ in range(20):
            coeffs = [rng.randint(-6, 6) for _ in range(4)]
            if not any(coeffs):
                coeffs[0] = 1
            assert shilov_check(zpoly(*coeffs), ONE).confirmed


def other_fibers_by_place(f, rho, prime_bound):
    """Reference for ``max_other``: the join of the fiber sups over the
    trivial place and every p-adic place at eps = 1 up to the bound."""
    other = NormValue.exact(0)
    for place in enumerate_places(prime_bound, 1):
        if place.kind != ARCHIMEDEAN:
            other = join(other, place_sup(f, place, rho))
    return other


@st.composite
def shilov_cases(draw):
    """A nonzero integer series with n <= 2, no tail or a tail with C = 0
    or C > 0 beyond the radii, radii from 1/2 to 3 and a prime bound
    2..50."""
    n = draw(st.integers(1, 2))
    D = draw(st.integers(0, 4))
    entries = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, D)] * n),
                                      st.integers(-60, 60)), min_size=1,
                            max_size=6))
    coeffs = {I: c for I, c in entries if sum(I) <= D}
    if not any(coeffs.values()):
        coeffs = {(0,) * n: 1}
    rho = draw(st.lists(st.sampled_from([Fraction(1, 2), Fraction(2, 3),
                                         Fraction(1), Fraction(5, 4),
                                         Fraction(2), Fraction(3)]),
                        min_size=n, max_size=n))
    tail = draw(st.sampled_from([None, Fraction(0), Fraction(1, 3),
                                 Fraction(7)]))
    if tail is not None:
        tail = Tail(tail, polyradius(*[r + 1 for r in rho]))
    f = TruncatedSeries(Z, n, coeffs, D, tail)
    return f, PolyRadius(tuple(rho)), draw(st.integers(2, 50))


class TestShilovClosedForm:
    @given(shilov_cases())
    @settings(max_examples=150, deadline=None)
    def test_max_other_matches_per_place_join(self, case):
        f, rho, prime_bound = case
        v = shilov_check(f, rho)
        other = other_fibers_by_place(f, rho, prime_bound)
        assert v.max_other == other
        assert v.confirmed == (other.hi is not None
                               and other.hi <= v.archimedean_sup.lo)

