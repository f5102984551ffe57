"""Exact scalar arithmetic: rationals, absolute values, certified intervals.

Every norm in this package is a ``NormValue``: a closed interval of
non-negative rationals known to contain the real number being certified.
No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import NonElement, reads_json

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(x) -> Fraction:
    """Coerce ints, strings like "3/4" or "0.5" and Fractions to Fraction.

    Floats (a JSON 0.1 is not 1/10), booleans and exponent notation
    ("1e999999999" would build a billion-digit integer) are rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        if "e" in x or "E" in x:
            raise ValueError(f"{x!r}: exponent notation is not accepted")
        return Fraction(x)
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
        object.__setattr__(self, "lo", as_fraction(self.lo))
        if self.hi is not None:
            object.__setattr__(self, "hi", as_fraction(self.hi))
        if self.lo < 0:
            raise ValueError("norm lower bound must be non-negative")
        if self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def exact(x) -> "NormValue":
        x = as_fraction(x)
        return NormValue(x, x)

    @staticmethod
    def zero() -> "NormValue":
        return NormValue(ZERO, ZERO)

    def join_max(self, other: "NormValue") -> "NormValue":
        """Interval enclosing max(self, other)."""
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return NormValue(max(self.lo, other.lo), hi)

    def pow_int(self, k: int) -> "NormValue":
        if k < 0:
            raise ValueError("negative powers not supported")
        hi = None if self.hi is None else self.hi**k
        return NormValue(self.lo**k, hi)

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
    through ``integral`` and ``non_archimedean``.
    """

    kind: str
    p: Optional[int] = None

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

    @property
    def non_archimedean(self) -> bool:
        return self.kind in (KIND_Z_TRIVIAL, KIND_Q_PADIC)

    @property
    def integral(self) -> bool:
        """True when the carrier is the integers (a lattice)."""
        return self.kind in (KIND_Z_ARCH, KIND_Z_TRIVIAL)

    def check_element(self, x) -> Fraction:
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


def padic_valuation(x: Fraction, p: int) -> int:
    """v_p(x) for nonzero rational x."""
    if x == 0:
        raise ValueError("valuation of zero is +infinity")
    v = 0
    num = x.numerator
    den = x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


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


# ---------------------------------------------------------------------------
# certified roots


def _integer_nth_root(m: int, n: int) -> int:
    """floor(m ** (1/n)) for m >= 0, n >= 1, by Newton iteration."""
    if m < 0:
        raise ValueError("negative radicand")
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
    lo, _ = rational_root_bounds(x.lo, n, precision)
    if x.hi is None:
        return NormValue(lo, None)
    _, hi = rational_root_bounds(x.hi, n, precision)
    return NormValue(min(lo, hi), hi)


def pow_interval(x: NormValue, e: Fraction, precision=Fraction(1, 10**6)) -> NormValue:
    """x ** e for a positive rational exponent e, certified."""
    e = as_fraction(e)
    if e < 0:
        raise ValueError("exponent must be non-negative")
    if e == 0:
        return NormValue.exact(1)
    powered = x.pow_int(e.numerator)
    if e.denominator == 1:
        return powered
    return nth_root_interval(powered, e.denominator, precision)
