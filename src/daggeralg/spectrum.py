"""Multiplicative seminorms on the integers and spectral estimates.

The point set over the integers is the classical Ostrowski list: the
trivial absolute value, powers of the usual one, and powers of the p-adic
ones.  On top of it: fiberwise evaluation seminorms, polydisk sup norms
per place, a global spectral estimate, its power-iteration refinement,
and the check that the usual absolute value dominates every other fiber
at radii >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import CoordinateOutOfDisk, DimensionMismatch
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
from .series import PolyRadius, TruncatedSeries, multiply, norm_S, norm_T

TRIVIAL = "Trivial"
ARCHIMEDEAN = "Archimedean"
PADIC = "Padic"

ROOT_PRECISION = Fraction(1, 10**9)


@dataclass(frozen=True)
class Place:
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
            if not 0 < self.eps <= 1:
                raise ValueError("Archimedean exponent must lie in (0, 1]")
            ring = rationals_archimedean()
        elif self.kind == PADIC:
            if self.p is None or self.eps <= 0:
                raise ValueError("p-adic place needs a prime and eps > 0")
            ring = rationals_padic(self.p)
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

    def label(self) -> str:
        if self.kind == TRIVIAL:
            return "trivial"
        if self.kind == ARCHIMEDEAN:
            return f"arch^{self.eps}"
        return f"{self.p}-adic^{self.eps}"


def _primes_up_to(bound: int) -> List[int]:
    sieve = [True] * (bound + 1)
    out = []
    for q in range(2, bound + 1):
        if sieve[q]:
            out.append(q)
            for m in range(q * q, bound + 1, q):
                sieve[m] = False
    return out


def enumerate_places(prime_bound: int, eps_grid_size: int) -> List[Place]:
    """Deterministic list: trivial place, then Archimedean powers on the
    grid k/grid_size, then each prime up to the bound on the same grid."""
    if prime_bound < 2:
        raise ValueError("prime bound must be at least 2")
    grid = [Fraction(k, eps_grid_size) for k in range(1, eps_grid_size + 1)]
    places = [Place(TRIVIAL)]
    for e in grid:
        places.append(Place(ARCHIMEDEAN, e))
    for q in _primes_up_to(prime_bound):
        for e in grid:
            places.append(Place(PADIC, e, q))
    return places


@dataclass(frozen=True)
class SpectrumPoint:
    place: Place
    coords: Tuple[Fraction, ...]
    rho: PolyRadius

    def __post_init__(self):
        coords = tuple(as_fraction(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) != len(self.rho):
            raise DimensionMismatch("one coordinate per variable")
        a, b = self.place.eps.numerator, self.place.eps.denominator
        for c, r in zip(coords, self.rho):
            size = self.place.size(c)
            if size**a > r**b:  # |c|^eps > r, with eps = a/b
                raise CoordinateOutOfDisk(
                    f"coordinate {c} has size {size}, and {size}^"
                    f"({self.place.eps}) > radius {r}"
                )


def evaluate_seminorm(f: TruncatedSeries, pt: SpectrumPoint) -> NormValue:
    """|f(c)|^eps at the point's place, certified."""
    if f.n != len(pt.coords):
        raise DimensionMismatch("arity mismatch")
    value = Fraction(0)
    for I, a in f.coeffs.items():
        term = a
        for c, e in zip(pt.coords, I):
            term *= c**e
        value += term
    return pt.place.abs_value(value)


def _radius_bracket(rho: PolyRadius, eps: Fraction
                    ) -> Tuple[PolyRadius, PolyRadius]:
    """Rational polyradii inner <= rho^(1/eps) <= outer, componentwise.

    With eps = a/b the radius is the a-th root of r^b: exact when a = 1.
    A lower root bracket that rounds to 0 is replaced by min(r^b, 1),
    which the a-th root of r^b never falls below."""
    a, b = eps.numerator, eps.denominator
    inner, outer = [], []
    for r in rho:
        x = r**b
        root = nth_root_interval(NormValue.exact(x), a, ROOT_PRECISION)
        inner.append(max(root.lo, min(x, 1)))
        outer.append(root.hi)
    return PolyRadius(tuple(inner)), PolyRadius(tuple(outer))


def fiber_sup(f: TruncatedSeries, place: Place, rho: PolyRadius) -> NormValue:
    """Sup of the place seminorm of f over the polydisk of radius rho.

    p-adic place: the maximum of |a_I|_p^eps * rho^I over the support.
    Trivial place: the indicator maximum of rho^I.  Both are Gauss norms,
    so the known coefficients give a lower bound; a tail leaves the upper
    bound open (hi = None), since the majorant bounds the unknown
    coefficients in the series' own ring, not at this place.
    Archimedean place: |z|^eps <= rho means |z| <= rho^(1/eps), so the
    sup-norm over that radius, bracketed between rational radii on either
    side (the sup is monotone in the radius), raised to the exponent.
    """
    if len(rho) != f.n:
        raise DimensionMismatch("polyradius arity mismatch")
    if f.is_zero():
        return NormValue.zero()
    if place.kind == ARCHIMEDEAN:
        g = f.with_ring(place.ring)
        if place.eps == 1:
            return norm_T(g, rho)
        inner, outer = _radius_bracket(rho, place.eps)
        if f.tail is not None and \
                not all(r < s for r, s in zip(outer, f.tail.sigma)):
            # a member need not converge out to rho^(1/eps), so the sup is
            # open above; each member's sup is at least max |a_I| r^I
            sup = NormValue(max((abs_value(g.ring, a) * inner.power(I)
                                 for I, a in g.coeffs.items()), default=0),
                            None)
        else:
            sup = NormValue(norm_T(g, inner).lo, norm_T(g, outer).hi)
        return pow_interval(sup, place.eps, ROOT_PRECISION)
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
    known = NormValue(max(lo, unit), max(hi, unit))
    if f.tail is not None and f.tail.C:
        return NormValue(known.lo, None)
    return known


@dataclass(frozen=True)
class GlobalSupReport:
    value: NormValue
    per_place: Tuple[Tuple[str, NormValue], ...]
    unlisted_primes_bounded_by: Optional[Fraction]  # None: open


def global_sup_report(f: TruncatedSeries, rho: PolyRadius, prime_bound: int,
                      eps_grid_size: int) -> GlobalSupReport:
    table = []
    total = NormValue.zero()
    for place in enumerate_places(prime_bound, eps_grid_size):
        v = fiber_sup(f, place, rho)
        table.append((place.label(), v))
        total = total.join_max(v)
    # integer coefficients have p-adic size <= 1 at every prime, so each
    # prime beyond the enumeration bound contributes at most max rho^I; a
    # tail leaves it open, as in fiber_sup
    unlisted = None if f.tail is not None and f.tail.C else \
        max((rho.power(I) for I in f.coeffs), default=Fraction(0))
    return GlobalSupReport(total, tuple(table), unlisted)


def global_sup(f: TruncatedSeries, rho: PolyRadius, prime_bound: int = 50,
               eps_grid_size: int = 2) -> NormValue:
    return global_sup_report(f, rho, prime_bound, eps_grid_size).value


def spectral_via_powers(f: TruncatedSeries, rho: PolyRadius,
                        n_max: int) -> List[NormValue]:
    """Upper estimates (norm of the n-th power) ** (1/n) for n up to
    n_max; each term bounds the global sup from above."""
    if n_max < 1:
        raise ValueError("need at least one power")
    out = []
    power = f
    for n in range(1, n_max + 1):
        hi = norm_S(power, rho).hi
        out.append(nth_root_interval(NormValue.exact(hi), n, ROOT_PRECISION))
        if n < n_max:
            power = multiply(power, f)
    return out


@dataclass(frozen=True)
class ShilovVerdict:
    confirmed: bool
    archimedean_sup: NormValue
    max_other: NormValue
    monomial_floor: Fraction  # max rho^I, dominated by the Archimedean fiber


def shilov_check(f: TruncatedSeries, rho: PolyRadius,
                 prime_bound: int = 50) -> ShilovVerdict:
    """At radii >= 1 the Archimedean fiber dominates every other fiber
    for integer coefficients: each p-adic or trivial fiber sup is at most
    max rho^I, while the Archimedean lower bound is at least max
    |a_I| rho^I >= max rho^I."""
    if any(r < 1 for r in rho):
        raise ValueError("dominance check requires all radii >= 1")
    if not f.coeffs:
        raise ValueError("dominance check requires a nonzero series")
    for a in f.coeffs.values():
        if a.denominator != 1:
            raise DimensionMismatch("integer coefficients required")
    arch = fiber_sup(f, Place(ARCHIMEDEAN, 1), rho)
    other = NormValue.zero()
    for place in enumerate_places(prime_bound, 1):
        if place.kind == ARCHIMEDEAN:
            continue
        other = other.join_max(fiber_sup(f, place, rho))
    floor = max(rho.power(I) for I in f.coeffs)
    confirmed = other.hi is not None and other.hi <= arch.lo and floor <= arch.lo
    return ShilovVerdict(confirmed, arch, other, floor)
