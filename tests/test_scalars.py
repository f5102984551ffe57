from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daggeralg.errors import NonElement
from daggeralg.scalars import (
    MAX_PRIME_BITS,
    BanachRing,
    _is_prime,
    NormValue,
    abs_value,
    integers_archimedean,
    integers_trivial,
    nth_root_interval,
    pow_interval,
    rational_root_bounds,
    rationals_archimedean,
    rationals_padic,
)
from intervals import add, mul

Z = integers_archimedean()
ZT = integers_trivial()
Q2 = rationals_padic(2)
QA = rationals_archimedean()


class TestAbsValue:
    def test_integer_archimedean(self):
        assert abs_value(Z, -3) == Fraction(3)

    def test_padic_valuation(self):
        assert abs_value(Q2, 12) == Fraction(1, 4)

    def test_trivial(self):
        assert abs_value(ZT, 7) == Fraction(1)

    def test_zero(self):
        for ring in (Z, ZT, Q2, QA):
            assert abs_value(ring, 0) == Fraction(0)

    def test_padic_negative_valuation(self):
        assert abs_value(Q2, Fraction(3, 4)) == Fraction(4)

    def test_non_element(self):
        with pytest.raises(NonElement):
            abs_value(Z, Fraction(1, 2))


class TestNormValue:
    def test_interval_order_enforced(self):
        with pytest.raises(ValueError):
            NormValue(2, 1)

    def test_addition_and_product(self):
        a = NormValue(1, 2)
        b = NormValue(3, 4)
        assert add(a, b) == NormValue(4, 6)
        assert mul(a, b) == NormValue(3, 8)

    def test_unbounded_upper(self):
        a = NormValue(1, None)
        assert add(a, NormValue.exact(1)).hi is None
        assert a.join_max(NormValue.exact(5)).hi is None


class TestRoots:
    def test_perfect_square(self):
        nv = nth_root_interval(NormValue.exact(4), 2, Fraction(1, 100))
        assert nv == NormValue.exact(2)

    def test_sqrt_two(self):
        nv = nth_root_interval(NormValue.exact(2), 2, Fraction(1, 10))
        assert nv.lo >= Fraction(7, 5) and nv.hi <= Fraction(3, 2)
        assert nv.lo**2 <= 2 <= nv.hi**2

    def test_root_of_one(self):
        for k in (1, 2, 5, 9):
            assert nth_root_interval(NormValue.exact(1), k, Fraction(1, 3)) \
                == NormValue.exact(1)

    def test_pow_interval_rational_exponent(self):
        nv = pow_interval(NormValue.exact(4), Fraction(3, 2))
        assert nv.lo <= 8 <= nv.hi

    @given(
        st.fractions(min_value=0, max_value=1000),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_root_bounds_contain_and_are_tight(self, a, n):
        precision = Fraction(1, 1000)
        lo, hi = rational_root_bounds(a, n, precision)
        assert lo**n <= a
        assert hi**n >= a
        assert hi - lo <= precision

    def test_contraction_toward_one(self):
        x = NormValue.exact(16)
        widths = [nth_root_interval(x, n, Fraction(1, 10**6)).hi
                  for n in (1, 2, 4, 8)]
        assert widths == sorted(widths, reverse=True)


class TestRingAxioms:
    @given(st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=80, deadline=None)
    def test_multiplicativity_and_triangle(self, x, y):
        for ring in (Z, ZT, Q2, QA):
            ax, ay = abs_value(ring, x), abs_value(ring, y)
            assert abs_value(ring, x * y) <= ax * ay
            s = abs_value(ring, x + y)
            if ring.non_archimedean:
                assert s <= max(ax, ay)
            else:
                assert s <= ax + ay

    def test_ring_json_round_trip(self):
        for ring in (Z, ZT, Q2, QA):
            assert BanachRing.from_json(ring.to_json()) == ring

    def test_padic_requires_prime(self):
        with pytest.raises(ValueError):
            rationals_padic(6)


class TestPrimality:
    @staticmethod
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    def test_matches_trial_division(self):
        assert [n for n in range(5000) if _is_prime(n)] == \
            [n for n in range(5000) if self.trial_division(n)]

    @pytest.mark.parametrize("n,prime", [
        (561, False),                      # Carmichael number
        (3215031751, False),               # strong pseudoprime to 2, 3, 5, 7
        (3825123056546413051, False),      # ... to every prime up to 23
        (2**61 - 1, True),
        (2**64 - 59, True),                # the largest prime below 2^64
        ((2**31 - 1) * (2**61 - 1), False),
    ])
    def test_large(self, n, prime):
        assert _is_prime(n) is prime

    def test_ring_prime_cap(self):
        assert rationals_padic(2**64 - 59).p == 2**64 - 59
        for p in (2**64 + 13, 2**89 - 1):  # primes over the cap
            assert p.bit_length() > MAX_PRIME_BITS
            with pytest.raises(ValueError, match="64 bits"):
                rationals_padic(p)

    @pytest.mark.parametrize("p", [4, 1, 0, -7, 2.0, True, "5", None])
    def test_ring_needs_a_prime_integer(self, p):
        with pytest.raises(ValueError, match="needs a prime"):
            BanachRing("Rationals_pAdic", p)
