"""Exact scalar arithmetic: rationals, absolute values, certified intervals.

Every norm in this package is a ``NormValue``: a closed interval of
non-negative rationals known to contain the real number being certified.
Floating point only ranks the torus samples of an Archimedean sup norm,
to choose which of them to evaluate exactly (``series._torus_max_sq``);
every bound the package reports is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import NonElement, reads_json

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(x) -> Fraction:
    """Coerce ints, strings like "3/4" or "0.5" and Fractions to Fraction.

    Floats (a JSON 0.1 is not 1/10), booleans and exponent notation
    ("1e999999999" would build a billion-digit integer) are rejected."""
    # the exact type first: the common case, and cheaper than isinstance
    if type(x) is Fraction or isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        if "e" in x or "E" in x:
            raise ValueError(f"{x!r}: exponent notation is not accepted")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x!r}: zero denominator") from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


# largest bit length of the numerator or the denominator of a rational
# read from JSON or the command line: at the series caps a norm report
# then has at most about 2,700 digits, under Python's 4,300-digit limit
# on printing an integer; at 128 bits a tailed series passes it (README)
MAX_RATIONAL_BITS = 64


def read_rational(x) -> Fraction:
    """``as_fraction`` for a number read from input, with its numerator
    and denominator capped at ``MAX_RATIONAL_BITS`` bits."""
    x = as_fraction(x)
    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
    if bits > MAX_RATIONAL_BITS:
        raise ValueError(f"a {bits}-bit rational is over the cap of "
                         f"{MAX_RATIONAL_BITS} bits")
    return x


@dataclass(frozen=True)
class NormValue:
    """Certified two-sided bound on a norm: lo <= value <= hi.

    hi = None encodes an unbounded upper estimate (+infinity).
    """

    lo: Fraction
    hi: Optional[Fraction]

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if type(lo) is not Fraction:
            lo = as_fraction(lo)
            object.__setattr__(self, "lo", lo)
        if hi is not None and type(hi) is not Fraction:
            hi = as_fraction(hi)
            object.__setattr__(self, "hi", hi)
        # lo < 0 and lo > hi tested on the numerators and the (positive)
        # denominators, which costs fewer calls than comparing Fractions;
        # an exact value, hi is lo, needs no order test
        if lo.numerator < 0:
            raise ValueError("norm lower bound must be non-negative")
        if hi is not None and hi is not lo and \
                lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            raise ValueError(f"empty interval [{lo}, {hi}]")

    @staticmethod
    def exact(x) -> "NormValue":
        x = as_fraction(x)
        return NormValue(x, x)

    @staticmethod
    def zero() -> "NormValue":
        return NormValue(ZERO, ZERO)

    def to_json(self):
        return {
            "lo": str(self.lo),
            "hi": "inf" if self.hi is None else str(self.hi),
        }

    def __repr__(self):
        hi = "inf" if self.hi is None else str(self.hi)
        return f"[{self.lo}, {hi}]"


# ---------------------------------------------------------------------------
# base rings


KIND_Z_ARCH = "IntegersArchimedean"
KIND_Z_TRIVIAL = "IntegersTrivial"
KIND_Q_PADIC = "Rationals_pAdic"
KIND_Q_ARCH = "RationalsArchimedean"

_KINDS = (KIND_Z_ARCH, KIND_Z_TRIVIAL, KIND_Q_PADIC, KIND_Q_ARCH)


# largest bit length of the prime of a p-adic ring
MAX_PRIME_BITS = 64

# the first 12 primes: as Miller-Rabin bases they decide primality exactly
# below 3.18 * 10^23 (Sorenson and Webster, Math. Comp. 86, 2017), far
# above the MAX_PRIME_BITS cap
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test for 0 <= n < 3.18 * 10^23."""
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class BanachRing:
    """Descriptor of a base Banach ring: carrier + absolute value.

    Every built-in absolute value is multiplicative.  This module is the
    only place that reads ``kind``; elsewhere rings are compared whole or
    through ``integral`` (the carrier is the integers, a lattice) and
    ``non_archimedean``, both read from ``kind`` once, at construction.
    """

    kind: str
    p: Optional[int] = None
    integral: bool = field(init=False, repr=False, compare=False)
    non_archimedean: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown ring kind {self.kind}")
        if self.kind == KIND_Q_PADIC:
            if type(self.p) is int and self.p.bit_length() > MAX_PRIME_BITS:
                raise ValueError(f"p-adic prime {self.p} is over the cap "
                                 f"of {MAX_PRIME_BITS} bits")
            if type(self.p) is not int or not _is_prime(self.p):
                raise ValueError("p-adic ring needs a prime p")
        elif self.p is not None:
            raise ValueError("p only meaningful for the p-adic kind")
        object.__setattr__(self, "integral",
                           self.kind in (KIND_Z_ARCH, KIND_Z_TRIVIAL))
        object.__setattr__(self, "non_archimedean",
                           self.kind in (KIND_Z_TRIVIAL, KIND_Q_PADIC))

    def check_element(self, x) -> Fraction:
        if type(x) is not Fraction:
            x = as_fraction(x)
        if self.integral and x.denominator != 1:
            raise NonElement(f"{x} is not an integer")
        return x

    def to_json(self):
        obj = {"kind": self.kind}
        if self.p is not None:
            obj["p"] = self.p
        return obj

    @staticmethod
    @reads_json("ring")
    def from_json(obj) -> "BanachRing":
        return BanachRing(obj["kind"], p=obj.get("p"))


def integers_archimedean() -> BanachRing:
    return BanachRing(KIND_Z_ARCH)


def integers_trivial() -> BanachRing:
    return BanachRing(KIND_Z_TRIVIAL)


def rationals_padic(p: int) -> BanachRing:
    return BanachRing(KIND_Q_PADIC, p=p)


def rationals_archimedean() -> BanachRing:
    return BanachRing(KIND_Q_ARCH)


def _valuation(N: int, p: int) -> int:
    """v_p(N) for a nonzero integer N."""
    v = 0
    while N % p == 0:
        N //= p
        v += 1
    return v


def padic_valuation(x: Fraction, p: int) -> int:
    """v_p(x) for nonzero rational x."""
    if x == 0:
        raise ValueError("valuation of zero is +infinity")
    return _valuation(x.numerator, p) - _valuation(x.denominator, p)


def abs_value(ring: BanachRing, x) -> Fraction:
    """Exact absolute value of x in the given ring, as a bare rational.

    Callers compute with it and build a ``NormValue`` only for the
    result they certify."""
    x = ring.check_element(x)
    if x == 0:
        return ZERO
    if ring.kind in (KIND_Z_ARCH, KIND_Q_ARCH):
        return abs(x)
    if ring.kind == KIND_Z_TRIVIAL:
        return ONE
    return Fraction(ring.p) ** -padic_valuation(x, ring.p)


def abs_ints(ring: BanachRing, nums: Sequence[int],
             L: int) -> Tuple[List[int], int]:
    """``abs_value`` of the ring elements N_i / L (L > 0) on integers:
    returns (A, den) with abs_value(ring, N_i / L) == A_i / den.

    The integer kernels of ``series`` and ``tensor`` compute on these and
    build a ``Fraction`` only for the result.  Over Q_p, with V the
    largest v_p(N_i), A_i = p^(V - v_p(N_i) + v_p(L)) and den = p^V."""
    if ring.kind in (KIND_Z_ARCH, KIND_Q_ARCH):
        return list(map(abs, nums)), L
    if ring.kind == KIND_Z_TRIVIAL:
        return [int(N != 0) for N in nums], 1
    p = ring.p
    vals = [_valuation(N, p) if N else None for N in nums]
    V = max((v for v in vals if v is not None), default=0)
    shift = V + _valuation(L, p)
    return [0 if v is None else p ** (shift - v) for v in vals], p**V


# ---------------------------------------------------------------------------
# certified roots


def _integer_nth_root(m: int, n: int) -> int:
    """floor(m ** (1/n)) for m >= 0, n >= 1: ``math.isqrt`` for n = 2,
    else Newton's iteration from a float estimate of the root.

    One Newton step x -> ((n-1)x + m // x^(n-1)) // n from any x > 0
    lands at or above the floor r, by the AM-GM inequality, and from any
    x > r it strictly decreases and stays at least r.  So after the
    first step the iteration stops exactly at r, however far off the
    float estimate is; a good one only saves steps."""
    if m < 0:
        raise ValueError("negative radicand")
    if n == 1 or m < 2:
        return m
    if n == 2:
        return math.isqrt(m)
    # the root is about 2^e; keep 52 bits of it in the float
    e = math.log2(m) / n
    k = max(int(e) - 52, 0)
    x = (int(2.0 ** (e - k)) + 1) << k
    x = ((n - 1) * x + m // x ** (n - 1)) // n
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def rational_root_bounds(a: Fraction, n: int, precision: Fraction):
    """Return (lo, hi) rationals with lo <= a**(1/n) <= hi, hi-lo <= precision."""
    a = as_fraction(a)
    precision = as_fraction(precision)
    if a < 0:
        raise ValueError("radicand must be non-negative")
    if n < 1:
        raise ValueError("root index must be >= 1")
    if precision <= 0:
        raise ValueError("precision must be positive")
    if a == 0:
        return ZERO, ZERO
    # exact perfect-power shortcut
    rn = _integer_nth_root(a.numerator, n)
    rd = _integer_nth_root(a.denominator, n)
    if rn**n == a.numerator and rd**n == a.denominator:
        r = Fraction(rn, rd)
        return r, r
    s = -((-precision.denominator) // precision.numerator)  # ceil(1/precision)
    # (a * s^n) has integer floor m; r = floor-root satisfies r/s <= a^(1/n) < (r+1)/s
    m = (a.numerator * s**n) // a.denominator
    r = _integer_nth_root(m, n)
    return Fraction(r, s), Fraction(r + 1, s)


def nth_root_interval(x: NormValue, n: int, precision) -> NormValue:
    """Interval containing [x.lo**(1/n), x.hi**(1/n)] of width <= precision
    beyond the width inherited from x."""
    precision = as_fraction(precision)
    lo, hi = rational_root_bounds(x.lo, n, precision)
    if x.hi is None:
        return NormValue(lo, None)
    if x.hi != x.lo:
        _, hi = rational_root_bounds(x.hi, n, precision)
    return NormValue(min(lo, hi), hi)

