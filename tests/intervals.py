"""Arithmetic on ``NormValue`` intervals that only the test oracles use.

Both endpoints of a norm interval are non-negative, so sums, products,
non-negative multiples and powers are taken endpoint by endpoint; an
open upper end (``hi = None``) stays open.
"""

from daggeralg.scalars import NormValue, as_fraction, rational_root_bounds


def add(a: NormValue, b: NormValue) -> NormValue:
    hi = None if a.hi is None or b.hi is None else a.hi + b.hi
    return NormValue(a.lo + b.lo, hi)


def mul(a: NormValue, b: NormValue) -> NormValue:
    hi = None if a.hi is None or b.hi is None else a.hi * b.hi
    return NormValue(a.lo * b.lo, hi)


def scale(a: NormValue, c) -> NormValue:
    c = as_fraction(c)
    if c < 0:
        raise ValueError("scale factor must be non-negative")
    return NormValue(a.lo * c, None if a.hi is None else a.hi * c)


def join(a: NormValue, b: NormValue) -> NormValue:
    """The interval enclosing max(x, y) for x in a and y in b."""
    hi = None if a.hi is None or b.hi is None else max(a.hi, b.hi)
    return NormValue(max(a.lo, b.lo), hi)


def contains(a: NormValue, x) -> bool:
    x = as_fraction(x)
    return a.lo <= x and (a.hi is None or x <= a.hi)


def pow_interval(x: NormValue, e) -> NormValue:
    """x ** e for a non-negative rational exponent e = a/b, certified: the
    a-th power of each end, then the lower root bracket of index b of the
    lower end and the upper one of the upper end."""
    e = as_fraction(e)
    if e < 0:
        raise ValueError("exponent must be non-negative")
    a, b = e.numerator, e.denominator
    lo = rational_root_bounds(x.lo**a, b)[0]
    hi = None if x.hi is None else \
        rational_root_bounds(x.hi**a, b)[1]
    return NormValue(lo, hi)
