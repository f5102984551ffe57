"""Seminorms on the integers and spectral estimates.

The spectrum of Z{rho^-1 X}+ is fibred over the places of Z (Ostrowski):
the trivial absolute value, |.|^eps for eps in (0, 1] and |.|_p^eps for
eps > 0.  Here are the fiber sup at the place of a ring's own absolute
value (eps = 1), the global sup in closed form, its power-iteration
refinement, and the check that the usual absolute value dominates every
other fiber.

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
of Z in 1.4.1) it is also the limit of the power estimates norm(f^n)^(1/n), each
of which bounds it from above.  The argument holds for polynomials: a
series with a nonzero tail keeps its upper bound open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .errors import DimensionMismatch
from .scalars import (
    BanachRing,
    NormValue,
    integers_trivial,
    nth_root_interval,
    rationals_archimedean,
)
from .series import (
    PolyRadius,
    TruncatedSeries,
    _gauss_norm,
    _power_sums,
    archimedean_sup,
    norm_S,
)


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


def fiber_sup(f: TruncatedSeries, ring: BanachRing, rho: PolyRadius
              ) -> NormValue:
    """Sup of |f| over the polydisk of radius rho at the place of the
    ring's absolute value.

    Non-Archimedean ring (the trivial place for Z_triv, the p-adic one
    for Q_p): the Gauss norm max |a_I| rho^I of the known coefficients,
    exact below, and above it the tail bound of ``_tail_gauss_bound``
    (open when it has none).  Archimedean ring: ``archimedean_sup``.
    """
    if len(rho) != f.n:
        raise DimensionMismatch("polyradius arity mismatch")
    if not ring.non_archimedean:
        return archimedean_sup(f, rho)
    gauss = _gauss_norm(ring, f.coeffs, rho)
    tail = _tail_gauss_bound(f, rho)
    return NormValue(gauss, None if tail is None else max(gauss, tail))


def global_sup(f: TruncatedSeries, rho: PolyRadius) -> NormValue:
    """Sup of |f| over the whole spectrum of Z{rho^-1 X}+ for integer
    coefficients: the Archimedean fiber at eps = 1 (module docstring).
    A nonzero tail leaves the upper bound open."""
    if any(a.denominator != 1 for a in f.coeffs.values()):
        raise DimensionMismatch("integer coefficients required")
    sup = fiber_sup(f, rationals_archimedean(), rho)
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


def spectral_via_powers(f: TruncatedSeries, rho: PolyRadius,
                        n_max: int) -> List[NormValue]:
    """Upper estimates |F^k|_S ** (1/k) for k up to n_max, over every
    member F of f; each bounds the global sup from above.

    Write F = p + t, with p the known coefficients and t a member of the
    tail.  The powers of p are chained on integers, with packed exponents,
    by ``series._power_sums``.  The binomial expansion of (p + t)^k and the
    submultiplicativity of the sum norm give
    |F^k|_S <= |p^k|_S + (P + tau)^k - P^k, where [P, P + tau] is
    ``norm_S(f)``.  Without a tail, or with a zero tail constant, tau = 0
    and the estimates are exact powers' norms."""
    if n_max < 1:
        raise ValueError("need at least one power")
    known = norm_S(f, rho)
    out = [NormValue.exact(known.hi)]
    for k, bound in enumerate(_power_sums(f, rho, n_max), start=2):
        if known.hi != known.lo:
            bound += known.hi**k - known.lo**k
        out.append(nth_root_interval(bound, k))
    return out


@dataclass(frozen=True, slots=True)
class ShilovVerdict:
    confirmed: bool
    archimedean_sup: NormValue
    max_other: NormValue  # lo is max rho^I over the support


def shilov_check(f: TruncatedSeries, rho: PolyRadius) -> ShilovVerdict:
    """At every radius the Archimedean fiber dominates every other fiber
    for integer coefficients.

    The other fibers are in closed form, not enumerated: the trivial
    fiber sup is exactly the Gauss norm max rho^I, and every p-adic
    fiber sup at eps = 1 is max |a_I|_p rho^I <= max rho^I, since
    |a_I|_p <= 1 for an integer a_I.  So the join of the other fibers is
    the trivial fiber, ``fiber_sup`` over Z_triv, with a nonzero tail's
    bound of ``_tail_gauss_bound`` above.  The Archimedean lower bound is
    at least max |a_I| rho^I >= max rho^I (Cauchy)."""
    if not f.coeffs:
        raise ValueError("dominance check requires a nonzero series")
    for a in f.coeffs.values():
        if a.denominator != 1:
            raise DimensionMismatch("integer coefficients required")
    arch = fiber_sup(f, rationals_archimedean(), rho)
    other = fiber_sup(f, integers_trivial(), rho)
    confirmed = other.hi is not None and other.hi <= arch.lo
    return ShilovVerdict(confirmed, arch, other)
