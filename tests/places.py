"""The place-by-place reference for ``spectrum.global_sup`` and
``spectrum.fiber_sup``.

The global sup over the spectrum of Z{rho^-1 X}+ is, by the theorem in
the ``spectrum`` docstring, the Archimedean fiber at eps = 1, and
``fiber_sup`` takes a fiber at the place of a ring's own absolute value
only.  Before either was computed that way, the package had a place for
every kind with its exponent eps, and the global sup was the join of the
fiber sups over a finite grid of places: the trivial place, the usual
absolute value raised to eps = k/grid, and every prime up to a bound on
the same grid.  Those places, their fiber sups coefficient by
coefficient, that join and the evaluation seminorm at a rational point
over any place are kept here as oracles.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple

from daggeralg.errors import DaggerAlgError, DimensionMismatch
from daggeralg.scalars import (
    BanachRing,
    NormValue,
    abs_value,
    integers_trivial,
    nth_root_interval,
    rationals_archimedean,
    rationals_padic,
)
from daggeralg.series import PolyRadius, TruncatedSeries, norm_T
from intervals import join, pow_interval, scale
from loops import is_zero, rho_power

TRIVIAL = "Trivial"
ARCHIMEDEAN = "Archimedean"
PADIC = "Padic"


class CoordinateOutOfDisk(DaggerAlgError):
    """A point's coordinate lies outside the polydisk over its place."""


@dataclass(frozen=True)
class Place:
    """A place of the integers: the trivial one, the usual absolute value
    at eps = 1 (``ArchPower`` takes the others) and |.|_p^eps."""

    kind: str
    eps: Fraction = Fraction(1)
    p: Optional[int] = None
    # the base ring whose absolute value this place raises to eps
    ring: BanachRing = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "eps", Fraction(self.eps))
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
            ring = rationals_padic(self.p)
        else:
            raise ValueError(f"unknown place kind {self.kind}")
        object.__setattr__(self, "ring", ring)

    def size(self, x) -> Fraction:
        """|x| in the place's ring, extended from the integers to the
        rationals by multiplicativity (the trivial ring holds integers)."""
        x = Fraction(x)
        return (abs_value(self.ring, x.numerator)
                / abs_value(self.ring, x.denominator))

    def abs_value(self, x) -> NormValue:
        """|x|^eps at this place, as a certified interval."""
        size = self.size(x)
        if size == 0:
            return NormValue.exact(0)
        return pow_interval(NormValue.exact(size), self.eps)


@dataclass(frozen=True)
class ArchPower:
    """The usual absolute value raised to eps in (0, 1], which ``Place``
    takes at eps = 1 only."""

    eps: Fraction
    kind = ARCHIMEDEAN
    p = None

    def __post_init__(self):
        object.__setattr__(self, "eps", Fraction(self.eps))
        if not 0 < self.eps <= 1:
            raise ValueError("Archimedean exponent must lie in (0, 1]")

    def size(self, x) -> Fraction:
        return abs(Fraction(x))

    def abs_value(self, x) -> NormValue:
        size = self.size(x)
        if size == 0:
            return NormValue.exact(0)
        return pow_interval(NormValue.exact(size), self.eps)


def gauss_fiber_loop(f: TruncatedSeries, place: Place, rho: PolyRadius
                     ) -> NormValue:
    """The p-adic and trivial fiber sup at any exponent as one certified
    root bracket per coefficient, joined coefficient by coefficient."""
    if place.kind == PADIC:
        known = NormValue.exact(0)
        for I, a in f.coeffs.items():
            known = join(known, scale(place.abs_value(a), rho_power(rho, I)))
    else:
        known = NormValue.exact(max((rho_power(rho, I) for I in f.coeffs),
                                    default=Fraction(0)))
    if f.tail is None or not f.tail.C:
        return known
    # an integer tail coefficient has size <= 1 here and rho^I <= C
    if f.ring.integral and all(r <= s for r, s in zip(rho, f.tail.sigma)):
        return NormValue(known.lo, max(known.hi, f.tail.C))
    return NormValue(known.lo, None)


def label(place) -> str:
    if place.kind == TRIVIAL:
        return "trivial"
    if place.kind == ARCHIMEDEAN:
        return f"arch^{place.eps}"
    return f"{place.p}-adic^{place.eps}"


def primes_up_to(bound: int):
    sieve = [True] * (bound + 1)
    out = []
    for q in range(2, bound + 1):
        if sieve[q]:
            out.append(q)
            for m in range(q * q, bound + 1, q):
                sieve[m] = False
    return out


def enumerate_places(prime_bound: int, eps_grid_size: int):
    """The trivial place, then the Archimedean powers on the grid
    k/grid_size, then each prime up to the bound on the same grid."""
    if prime_bound < 2:
        raise ValueError("prime bound must be at least 2")
    grid = [Fraction(k, eps_grid_size) for k in range(1, eps_grid_size + 1)]
    return ([Place(TRIVIAL)] + [ArchPower(e) for e in grid]
            + [Place(PADIC, e, q) for q in primes_up_to(prime_bound)
               for e in grid])


def radius_bracket(rho: PolyRadius, eps: Fraction
                   ) -> Tuple[PolyRadius, PolyRadius]:
    """Rational polyradii inner <= rho^(1/eps) <= outer, componentwise.

    With eps = a/b the radius is the a-th root of r^b: exact when a = 1.
    A lower root bracket that rounds to 0 is replaced by min(r^b, 1),
    which the a-th root of r^b never falls below."""
    a, b = eps.numerator, eps.denominator
    inner, outer = [], []
    for r in rho:
        x = r**b
        root = nth_root_interval(x, a)
        inner.append(max(root.lo, min(x, 1)))
        outer.append(root.hi)
    return PolyRadius(tuple(inner)), PolyRadius(tuple(outer))


def place_sup(f: TruncatedSeries, place, rho: PolyRadius) -> NormValue:
    """The fiber sup at any place of ``enumerate_places``.

    At a p-adic or the trivial place, ``gauss_fiber_loop``.  At the
    usual absolute value, ``norm_T`` over Q at eps = 1; at eps < 1,
    |z|^eps <= rho means |z| <= rho^(1/eps), so the sup norm over that
    radius, bracketed between rational radii on either side (the sup is
    monotone in the radius), raised to the exponent."""
    if place.kind != ARCHIMEDEAN:
        return gauss_fiber_loop(f, place, rho)
    if is_zero(f):
        return NormValue.exact(0)
    g = f.with_ring(rationals_archimedean())
    if place.eps == 1:
        return norm_T(g, rho)
    inner, outer = radius_bracket(rho, place.eps)
    if f.tail is not None and \
            not all(r < s for r, s in zip(outer, f.tail.sigma)):
        # a member need not converge out to rho^(1/eps), so the sup is
        # open above; each member's sup is at least max |a_I| r^I
        sup = NormValue(max((abs(a) * rho_power(inner, I)
                             for I, a in g.coeffs.items()), default=0), None)
    else:
        sup = NormValue(norm_T(g, inner).lo, norm_T(g, outer).hi)
    return pow_interval(sup, place.eps)


def global_sup_join(f: TruncatedSeries, rho: PolyRadius, prime_bound: int,
                    eps_grid_size: int):
    """(join, [(place, fiber sup)]) over ``enumerate_places``."""
    table = [(place, place_sup(f, place, rho))
             for place in enumerate_places(prime_bound, eps_grid_size)]
    total = NormValue.exact(0)
    for _, value in table:
        total = join(total, value)
    return total, table


@dataclass(frozen=True)
class SpectrumPoint:
    """A rational point over a place: |c_i|^eps <= rho_i."""

    place: object
    coords: Tuple[Fraction, ...]
    rho: PolyRadius

    def __post_init__(self):
        coords = tuple(Fraction(c) for c in self.coords)
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
