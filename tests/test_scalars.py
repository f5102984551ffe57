from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daggeralg.errors import NonElement
from daggeralg.scalars import (
    MAX_PRIME_BITS,
    BanachRing,
    _integer_nth_root,
    _is_prime,
    NormValue,
    abs_ints,
    abs_value,
    as_fraction,
    integers_archimedean,
    integers_trivial,
    nth_root_interval,
    rational_root_bounds,
    rationals_archimedean,
    rationals_padic,
)
from intervals import add, join, mul, pow_interval

Z = integers_archimedean()
ZT = integers_trivial()
Q2 = rationals_padic(2)
Q3 = rationals_padic(3)
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


def _two_three(a, i, j):
    return a * 2**i * 3**j


# integers whose 2- and 3-adic valuations reach 6, zero included
_numerators = st.builds(_two_three, st.integers(-40, 40), st.integers(0, 6),
                        st.integers(0, 6))
_denominators = st.builds(_two_three, st.integers(1, 40), st.integers(0, 6),
                          st.integers(0, 6))


class TestAbsInts:
    @given(st.sampled_from([Z, ZT, Q2, Q3, QA]), st.lists(_numerators),
           _denominators)
    @settings(max_examples=300, deadline=None)
    def test_matches_abs_value(self, ring, nums, L):
        if ring.integral:  # N / L must be an integer
            nums = [N * L for N in nums]
        A, den = abs_ints(ring, nums, L)
        assert den > 0 and all(type(a) is int for a in A)
        assert [Fraction(a, den) for a in A] == \
            [abs_value(ring, Fraction(N, L)) for N in nums]

    def test_padic_fixed_cases(self):
        # over L = 40: |12/40|_2 = 2 = 8/4, |0| = 0, |15/40|_2 = 8 = 32/4
        assert abs_ints(Q2, [12, 0, 15], 40) == ([8, 0, 32], 4)
        assert abs_ints(Q2, [], 8) == ([], 1)


_BIG = 10**40
# signed rationals with large denominators, and the same as int and str
# inputs, which NormValue reads with as_fraction
_RATIONALS = st.builds(Fraction, st.integers(-_BIG, _BIG),
                       st.integers(1, _BIG))
BOUNDS = st.one_of(
    _RATIONALS,
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    st.integers(-_BIG, _BIG),
    _RATIONALS.map(str),
    st.integers(-100, 100).map(lambda k: f"{k // 4}.25"),
)


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
        assert join(a, NormValue.exact(5)).hi is None

    @given(BOUNDS, st.one_of(st.none(), BOUNDS,
                             st.sampled_from(["lo", "equal", "equal str"])))
    @example(Fraction(-1, _BIG), None)
    @example(0, "lo")
    @example(Fraction(1, 3), "equal")
    @example(Fraction(_BIG + 1, _BIG), 1)
    @example("-0.25", "1/2")
    @settings(max_examples=300, deadline=None)
    def test_validation_matches_fraction_comparisons(self, lo, hi):
        """NormValue compares its bounds on numerators and denominators;
        it raises exactly when the Fraction comparisons lo < 0 or lo > hi
        hold, with the same message.  hi is lo itself, an equal Fraction
        or its string when drawn as "lo", "equal" or "equal str"."""
        hi = {"lo": lo, "equal": Fraction(as_fraction(lo)),
              "equal str": str(as_fraction(lo))}.get(hi, hi)
        flo = as_fraction(lo)
        fhi = None if hi is None else as_fraction(hi)
        if flo < 0:
            message = "norm lower bound must be non-negative"
        elif fhi is not None and flo > fhi:
            message = f"empty interval [{flo}, {fhi}]"
        else:
            nv = NormValue(lo, hi)
            assert (nv.lo, nv.hi) == (flo, fhi)
            assert type(nv.lo) is Fraction
            return
        with pytest.raises(ValueError) as info:
            NormValue(lo, hi)
        assert str(info.value) == message


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

    @staticmethod
    def newton_nth_root(m, n):
        """The floor root by Newton's iteration from a power of two, which
        ``_integer_nth_root`` replaced."""
        if m == 0:
            return 0
        if n == 1:
            return m
        x = 1 << ((m.bit_length() + n - 1) // n + 1)
        while True:
            y = ((n - 1) * x + m // x ** (n - 1)) // n
            if y >= x:
                break
            x = y
        while x**n > m:
            x -= 1
        return x

    @given(st.integers(2, 40).flatmap(lambda n: st.tuples(
        st.just(n),
        st.integers(1, 100_000 // n).flatmap(
            lambda b: st.integers(2 ** (b - 1), 2**b - 1)),
        st.sampled_from([-1, 0, 1]))))
    @example((32, 2**3125 - 1, 1))
    @example((3, 2**33333 - 1, -1))
    @settings(max_examples=60, deadline=None)
    def test_integer_root_matches_newton(self, case):
        # k^n - 1, k^n and k^n + 1 for roots k of up to 100,000 / n bits
        n, k, d = case
        m = k**n + d
        assert _integer_nth_root(m, n) == self.newton_nth_root(m, n) \
            == k - (d < 0)

    @given(st.integers(0, 2**64), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_integer_root_of_small_numbers(self, m, n):
        assert _integer_nth_root(m, n) == self.newton_nth_root(m, n)

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
