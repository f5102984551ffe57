"""Exact scalar arithmetic: rationals, absolute values, certified intervals.

Every norm in this package is a ``NormValue``: a closed interval of
non-negative rationals known to contain the real number being certified.
Floating point only ranks the torus samples of an Archimedean sup norm,
to choose which of them to evaluate exactly (``series._torus_max_sq``);
every bound the package reports is exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import NULL, NonElement, members

ZERO = Fraction(0)


def as_fraction(x) -> Fraction:
    """Coerce ints, strings like "3/4" or "0.5" and Fractions to Fraction.

    Floats (a JSON 0.1 is not 1/10), booleans, exponent notation
    ("1e999999999" would build a billion-digit integer) and every other
    value raise ``ValueError``."""
    # the exact types first: the common cases, and cheaper than the
    # isinstance of an abstract base class
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        # plain ASCII digits, "-12" or "3/4", through int() alone: the
        # fractions regex costs more than the rest of the read.  Any other
        # string, and a zero denominator, takes the regex path below, so
        # each value, error and message is the same on either path
        num, slash, den = x.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isascii() and digits.isdigit() and (
                not slash or den.isascii() and den.isdigit()):
            n = int(num)
            d = int(den) if slash else 1
            if d:
                return Fraction(n, d)
        if "e" in x or "E" in x:
            raise ValueError(f"{x!r}: exponent notation is not accepted")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x!r}: zero denominator") from None
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise ValueError(f"cannot interpret {x!r} as an exact rational")


# largest bit length of the numerator or the denominator of a rational
# read from JSON or the command line: at the series caps a norm report
# then has at most about 2,700 digits, under Python's 4,300-digit limit
# on printing an integer; at 128 bits a tailed series passes it (README)
MAX_RATIONAL_BITS = 64


def read_rational(x) -> Fraction:
    """``as_fraction`` for a number read from input: a string of ASCII
    digits and "+-./" alone, with the numerator and denominator capped at
    ``MAX_RATIONAL_BITS`` bits."""
    if type(x) is str and x.strip("0123456789+-./"):
        raise ValueError(f"{x!r}: a rational is written with ASCII digits, "
                         f"'+', '-', '/' and '.' alone")
    return check_bits(as_fraction(x))


def check_bits(x: Fraction) -> Fraction:
    """x, unless its numerator or denominator has more than
    ``MAX_RATIONAL_BITS`` bits."""
    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
    if bits > MAX_RATIONAL_BITS:
        raise ValueError(f"a {bits}-bit rational is over the cap of "
                         f"{MAX_RATIONAL_BITS} bits")
    return x


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class BanachRing:
    """Descriptor of a base Banach ring: carrier + absolute value.

    Every built-in absolute value is multiplicative.  Only this class
    and ``abs_ints``, the one source of sizes, read ``kind``; elsewhere
    rings are compared whole or through ``integral`` (the carrier is the
    integers, a lattice) and ``non_archimedean``, both read from
    ``kind`` once, at construction.
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
    def from_json(obj) -> "BanachRing":
        kind, p = members(obj, "ring", {"kind": str, "p": (int, NULL)})
        return BanachRing(kind, p)


# the rings without parameters are built once and shared: a ring is
# frozen, and callers that build one per object then hold one between them
@functools.cache
def integers_archimedean() -> BanachRing:
    return BanachRing(KIND_Z_ARCH)


@functools.cache
def integers_trivial() -> BanachRing:
    return BanachRing(KIND_Z_TRIVIAL)


def rationals_padic(p: int) -> BanachRing:
    return BanachRing(KIND_Q_PADIC, p=p)


@functools.cache
def rationals_archimedean() -> BanachRing:
    return BanachRing(KIND_Q_ARCH)


def _valuation(N: int, p: int) -> int:
    """v_p(N) for a nonzero integer N."""
    v = 0
    while N % p == 0:
        N //= p
        v += 1
    return v


def abs_value(ring: BanachRing, x) -> Fraction:
    """Exact absolute value of x in the given ring, as a bare rational:
    ``abs_ints`` of the one element.

    Callers compute with it and build a ``NormValue`` only for the
    result they certify."""
    x = ring.check_element(x)
    (A,), den = abs_ints(ring, [x.numerator], x.denominator)
    return Fraction(A, den)


def over_lcm(xs: Sequence[Fraction]) -> Tuple[List[int], int]:
    """(nums, L) with xs[i] == nums[i] / L, L the lcm of the denominators
    of the rationals xs: the integers the package's kernels compute on."""
    L = math.lcm(*[x.denominator for x in xs])
    return [x.numerator * (L // x.denominator) for x in xs], L


def abs_ints(ring: BanachRing, nums: Sequence[int],
             L: int) -> Tuple[List[int], int]:
    """The absolute values of the ring elements N_i / L (L > 0) on
    integers: returns (A, den) with |N_i / L| == A_i / den in the ring.

    Every size in the package comes from here: ``abs_value`` and the
    integer kernels of ``series`` and ``tensor`` compute on these and
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

# the width of every root bracket that is not exact: 1 over an integer
ROOT_PRECISION = Fraction(1, 10**9)


def _integer_nth_root(m: int, n: int) -> int:
    """floor(m ** (1/n)) for m >= 0, n >= 1: ``math.isqrt`` for n = 2,
    else Newton's iteration from a float estimate of the root.

    One Newton step x -> ((n-1)x + m // x^(n-1)) // n from any x > 0
    lands at or above the floor r, by the AM-GM inequality, and from any
    x > r it strictly decreases and stays at least r.  So after the
    first step the iteration stops exactly at r, however far off the
    float estimate is; a good one only saves steps."""
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


def rational_root_bounds(a: Fraction, n: int):
    """Return (lo, hi) rationals with lo <= a**(1/n) <= hi and
    hi - lo <= ``ROOT_PRECISION``.

    On the numerator N and the denominator d of a: the exact root when
    both are perfect n-th powers, the denominator's root taken only when
    the numerator is one; else (r/s, (r+1)/s) for s the denominator of
    ``ROOT_PRECISION`` and r the floor root of floor(N s^n / d)."""
    a = as_fraction(a)
    N, d = a.numerator, a.denominator
    if N < 0:
        raise ValueError("radicand must be non-negative")
    if n < 1:
        raise ValueError("root index must be >= 1")
    if not N:
        return ZERO, ZERO
    rn = _integer_nth_root(N, n)
    if rn**n == N:
        rd = _integer_nth_root(d, n)
        if rd**n == d:
            r = Fraction(rn, rd)
            return r, r
    s = ROOT_PRECISION.denominator
    r = _integer_nth_root(N * s**n // d, n)
    return Fraction(r, s), Fraction(r + 1, s)


def nth_root_interval(x: Fraction, n: int) -> NormValue:
    """``rational_root_bounds`` of the rational x as a ``NormValue``."""
    return NormValue(*rational_root_bounds(x, n))
