"""Multiplicative seminorms on the integers and spectral estimates.

The point set over the integers is the classical Ostrowski list: the
trivial absolute value, powers |.|^eps of the usual one for eps in
(0, 1], and powers |.|_p^eps of the p-adic ones for eps > 0.  Over each
of these places the spectrum of Z{rho^-1 X}+ has a fiber; here are the
fiber sups at the trivial, the p-adic and the usual place (eps = 1), the
global sup in closed form, its power-iteration refinement, and the check
that the usual absolute value dominates every other fiber.

The global sup is the Archimedean fiber at eps = 1.  Let f be a nonzero
polynomial with integer coefficients a_I, rho any polyradius, and
M(r) the sup of |f| over the complex polydisk of radius r.

- The trivial fiber's sup is the Gauss norm max rho^I over the support.
- The p-adic fiber at eps has sup max |a_I|_p^eps rho^I <= max rho^I,
  since |a_I|_p <= 1 for an integer.
- The Archimedean fiber at eps = 1/t, t >= 1, is the polydisk
  |z_i|^eps <= rho_i, that is |z_i| <= rho_i^t, so its sup is
  M(rho^t)^(1/t).  log M is convex in the log radii (Hadamard's three
  circles on a polydisk: the log of the sup over a torus is
  plurisubharmonic and depends only on the real parts of the log
  coordinates), so g(t) = log M(rho^t) is convex in t.  On [1, T] it
  lies below its chord a + b t, and (a + b t)/t is monotone in t, so
  g(t)/t <= max(g(1), g(T)/T).  As T grows, g(T)/T tends to
  log max rho^I, because max |a_I| r^I <= M(r) <= sum |a_I| r^I.  So
  every Archimedean fiber sup is at most max(M(rho), max rho^I).
- Cauchy's estimate gives M(rho) >= max |a_I| rho^I >= max rho^I, since
  every |a_I| >= 1.

So the sup over the whole spectrum is M(rho), which ``norm_T`` brackets.
By Berkovich's spectral radius formula (Spectral Theory and Analytic
Geometry over Non-Archimedean Fields, AMS 1990, Thm 1.3.1; the spectrum
of Z in 1.4.1) it is also the limit of the power estimates
norm(f^n)^(1/n), each of which bounds it from above.  The argument holds
for polynomials: a series with a nonzero tail keeps its upper bound open.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

from .errors import DimensionMismatch
from .scalars import (
    BanachRing,
    NormValue,
    abs_value,
    as_fraction,
    integers_trivial,
    nth_root_interval,
    pow_interval,
    rationals_archimedean,
    rationals_padic,
)
from .series import (
    PolyRadius,
    TruncatedSeries,
    _convolve,
    _scaled_ints,
    multiply,
    norm_S,
    norm_T,
)

TRIVIAL = "Trivial"
ARCHIMEDEAN = "Archimedean"
PADIC = "Padic"

ROOT_PRECISION = Fraction(1, 10**9)

# the ring of a prime, built once per prime: building it tests the prime
_padic_ring = functools.lru_cache(maxsize=2048)(rationals_padic)


@dataclass(frozen=True)
class Place:
    """A place of the integers whose fiber has a sup computed here: the
    trivial one, the usual absolute value (eps = 1; the other powers are
    dominated by it, see the module docstring) and |.|_p^eps."""

    kind: str
    eps: Fraction = Fraction(1)
    p: Optional[int] = None
    # the base ring whose absolute value this place raises to eps
    ring: BanachRing = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "eps", as_fraction(self.eps))
        if self.kind == TRIVIAL:
            ring = integers_trivial()
        elif self.kind == ARCHIMEDEAN:
            if self.eps != 1:
                raise ValueError("the Archimedean place is taken at exponent "
                                 "1, whose fiber dominates the others")
            ring = rationals_archimedean()
        elif self.kind == PADIC:
            if self.p is None or self.eps <= 0:
                raise ValueError("p-adic place needs a prime and eps > 0")
            ring = _padic_ring(self.p)
        else:
            raise ValueError(f"unknown place kind {self.kind}")
        object.__setattr__(self, "ring", ring)

    def size(self, x) -> Fraction:
        """|x| in the place's ring, extended from the integers to the
        rationals by multiplicativity (the trivial ring holds integers)."""
        x = as_fraction(x)
        return (abs_value(self.ring, x.numerator)
                / abs_value(self.ring, x.denominator))

    def abs_value(self, x) -> NormValue:
        """|x|^eps at this place, as a certified interval."""
        size = self.size(x)
        if size == 0:
            return NormValue.zero()
        return pow_interval(NormValue.exact(size), self.eps, ROOT_PRECISION)


def _tail_gauss_bound(f: TruncatedSeries, rho: PolyRadius
                      ) -> Optional[Fraction]:
    """Upper bound on |a_I|_v rho^I over the tail coefficients of f at a
    non-Archimedean place v, or None when there is none.

    A nonzero tail coefficient of an integer series has |a_I|_v <= 1 and
    1 <= |a_I| <= C sigma^-I, so rho^I <= sigma^I <= C when rho <= sigma
    componentwise.  Otherwise the majorant, stated in the series' own
    ring, bounds nothing at v."""
    tail = f.tail
    if tail is None or not tail.C:
        return Fraction(0)
    if f.ring.integral and all(r <= s for r, s in zip(rho, tail.sigma)):
        return tail.C
    return None


def fiber_sup(f: TruncatedSeries, place: Place, rho: PolyRadius
              ) -> NormValue:
    """Sup of the place seminorm of f over the polydisk of radius rho.

    p-adic place: the maximum of |a_I|_p^eps * rho^I over the support.
    Trivial place: the indicator maximum of rho^I.  Both are Gauss norms,
    so the known coefficients give a lower bound, and a tail adds the
    bound of ``_tail_gauss_bound`` above (open when it has none).
    Archimedean place (eps = 1): ``norm_T`` over the rationals.
    """
    if len(rho) != f.n:
        raise DimensionMismatch("polyradius arity mismatch")
    if f.is_zero():
        return NormValue.zero()
    if place.kind == ARCHIMEDEAN:
        return norm_T(f.with_ring(place.ring), rho)
    # the Gauss norm max |a_I|^eps rho^I: at the trivial place and for a
    # p-adic unit a_I (p divides neither numerator nor denominator)
    # |a_I|^eps = 1, so only the other coefficients need a root bracket
    p = place.p
    nums, den = rho.powers(list(f.coeffs))
    unit, lo, hi = 0, Fraction(0), Fraction(0)
    for a, P in zip(f.coeffs.values(), nums):
        if p is None or a.numerator % p and a.denominator % p:
            unit = max(unit, P)
        else:
            size, r = place.abs_value(a), Fraction(P, den)
            lo, hi = max(lo, size.lo * r), max(hi, size.hi * r)
    unit = Fraction(unit, den)
    tail = _tail_gauss_bound(f, rho)
    return NormValue(max(lo, unit),
                     None if tail is None else max(hi, unit, tail))


def global_sup(f: TruncatedSeries, rho: PolyRadius) -> NormValue:
    """Sup of |f| over the whole spectrum of Z{rho^-1 X}+ for integer
    coefficients: the Archimedean fiber at eps = 1 (module docstring).
    A nonzero tail leaves the upper bound open."""
    if any(a.denominator != 1 for a in f.coeffs.values()):
        raise DimensionMismatch("integer coefficients required")
    sup = fiber_sup(f, Place(ARCHIMEDEAN), rho)
    if f.tail is not None and f.tail.C:
        return NormValue(sup.lo, None)
    return sup


def power_work(f: TruncatedSeries, n_max: int) -> int:
    """Upper bound on the term pairs that ``spectral_via_powers`` multiplies:
    the sum over k = 1 .. n_max - 1 of T * min(T^k, C(kd + n, n)), since
    f^k has at most T^k terms and at most C(kd + n, n) monomials of total
    degree <= kd, for T terms of largest total degree d."""
    T = len(f.coeffs)
    d = max(map(sum, f.coeffs), default=0)
    return sum(T * min(T**k, math.comb(k * d + f.n, f.n))
               for k in range(1, n_max))


def _homogeneous(cs, x: int, y: int) -> int:
    """sum c_k x^k y^(m - k) over cs = [c_0, ..., c_m]: by Horner's rule
    for short lists, else as the low half times y^len(high) plus the high
    half times x^len(low), which keeps the large products balanced."""
    if len(cs) <= 16:
        acc, yk = 0, 1
        for c in reversed(cs):
            acc, yk = acc * x + c * yk, yk * y
        return acc
    h = len(cs) // 2
    return (_homogeneous(cs[:h], x, y) * y ** (len(cs) - h)
            + _homogeneous(cs[h:], x, y) * x ** h)


def _abs_weighted_sum(terms, rho: PolyRadius):
    """(S, Q) with sum |N_I| rho^I == S / Q for (I, N_I) pairs: with
    rho_i = x_i / y_i and E_i the largest exponent of variable i,
    S = sum |N_I| prod x_i^I_i y_i^(E_i - I_i) and Q = prod y_i^E_i.
    S is folded one variable at a time, from the last, by
    ``_homogeneous``: no radius numerator is built per index."""
    sums = [(I, abs(N)) for I, N in terms]
    Q = 1
    for r in reversed(rho.components):
        E = max(I[-1] for I, _ in sums)
        columns = {}
        for I, c in sums:
            column = columns.get(I[:-1])
            if column is None:
                column = columns[I[:-1]] = [0] * (E + 1)
            column[I[-1]] = c
        x, y = r.numerator, r.denominator
        sums = [(J, _homogeneous(cs, x, y)) for J, cs in columns.items()]
        Q *= y**E
    return sums[0][1], Q


def spectral_via_powers(f: TruncatedSeries, rho: PolyRadius,
                        n_max: int) -> List[NormValue]:
    """Upper estimates (norm of the n-th power) ** (1/n) for n up to
    n_max; each term bounds the global sup from above.

    A nonzero untailed series over an Archimedean ring has exact powers:
    ``multiply`` at its default degree bound drops nothing.  Its powers
    are chained on the integer numerators instead: with a_I = N_I / L the
    k-th power has numerators over L^k, and its ``norm_S`` is
    sum |N| P / (L^k Q), summed by ``_abs_weighted_sum``.  Any other
    series takes ``multiply`` and ``norm_S``."""
    if n_max < 1:
        raise ValueError("need at least one power")
    if len(rho) != f.n:
        raise DimensionMismatch("polyradius arity mismatch")
    out = []
    if f.tail is None and f.coeffs and not f.ring.non_archimedean:
        terms, L = _scaled_ints(f.coeffs)
        power, den = terms, L
        for k in range(1, n_max + 1):
            S, Q = _abs_weighted_sum(power, rho)
            out.append(nth_root_interval(NormValue.exact(Fraction(S, den * Q)),
                                         k, ROOT_PRECISION))
            if k < n_max:
                power = [(K, c) for K, c in _convolve(power, terms).items()
                         if c]
                den *= L
        return out
    power = f
    for k in range(1, n_max + 1):
        hi = norm_S(power, rho).hi
        out.append(nth_root_interval(NormValue.exact(hi), k, ROOT_PRECISION))
        if k < n_max:
            power = multiply(power, f)
    return out


@dataclass(frozen=True)
class ShilovVerdict:
    confirmed: bool
    archimedean_sup: NormValue
    max_other: NormValue
    monomial_floor: Fraction  # max rho^I, dominated by the Archimedean fiber


def shilov_check(f: TruncatedSeries, rho: PolyRadius) -> ShilovVerdict:
    """At every radius the Archimedean fiber dominates every other fiber
    for integer coefficients.

    The other fibers are in closed form, not enumerated: the trivial
    fiber sup is exactly the Gauss norm max rho^I, and every p-adic
    fiber sup at eps = 1 is max |a_I|_p rho^I <= max rho^I, since
    |a_I|_p <= 1 for an integer a_I.  So the join of the other fibers is
    exactly max rho^I, raised by a nonzero tail to the bound of
    ``_tail_gauss_bound``, as in fiber_sup.  The Archimedean lower bound
    is at least max |a_I| rho^I >= max rho^I (Cauchy)."""
    if not f.coeffs:
        raise ValueError("dominance check requires a nonzero series")
    for a in f.coeffs.values():
        if a.denominator != 1:
            raise DimensionMismatch("integer coefficients required")
    arch = fiber_sup(f, Place(ARCHIMEDEAN), rho)
    floor = max(rho.power(I) for I in f.coeffs)
    tail = _tail_gauss_bound(f, rho)
    other = NormValue(floor, None if tail is None else max(floor, tail))
    confirmed = other.hi is not None and other.hi <= arch.lo
    return ShilovVerdict(confirmed, arch, other, floor)
