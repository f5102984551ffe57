"""The place-by-place reference for ``spectrum.global_sup``.

The global sup over the spectrum of Z{rho^-1 X}+ is, by the theorem in
the ``spectrum`` docstring, the Archimedean fiber at eps = 1.  Before it
was computed that way it was the join of the fiber sups over a finite
grid of places: the trivial place, the usual absolute value raised to
eps = k/grid, and every prime up to a bound on the same grid.  That
join, the Archimedean fibers at eps < 1 it needs, and the evaluation
seminorm at a rational point over any place are kept here as oracles.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from daggeralg.errors import DaggerAlgError, DimensionMismatch
from daggeralg.scalars import (
    NormValue,
    nth_root_interval,
    pow_interval,
    rationals_archimedean,
)
from daggeralg.series import PolyRadius, TruncatedSeries, norm_T
from daggeralg.spectrum import (
    ARCHIMEDEAN,
    PADIC,
    ROOT_PRECISION,
    TRIVIAL,
    Place,
    fiber_sup,
)
from intervals import join


class CoordinateOutOfDisk(DaggerAlgError):
    """A point's coordinate lies outside the polydisk over its place."""


@dataclass(frozen=True)
class ArchPower:
    """The usual absolute value raised to eps in (0, 1], which
    ``spectrum.Place`` takes at eps = 1 only."""

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
            return NormValue.zero()
        return pow_interval(NormValue.exact(size), self.eps, ROOT_PRECISION)


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
        root = nth_root_interval(NormValue.exact(x), a, ROOT_PRECISION)
        inner.append(max(root.lo, min(x, 1)))
        outer.append(root.hi)
    return PolyRadius(tuple(inner)), PolyRadius(tuple(outer))


def place_sup(f: TruncatedSeries, place, rho: PolyRadius) -> NormValue:
    """``fiber_sup`` at any place of ``enumerate_places``.

    At the Archimedean place with eps < 1, |z|^eps <= rho means
    |z| <= rho^(1/eps), so the sup norm over that radius, bracketed
    between rational radii on either side (the sup is monotone in the
    radius), raised to the exponent."""
    if not isinstance(place, ArchPower):
        return fiber_sup(f, place, rho)
    if place.eps == 1 or f.is_zero():
        return fiber_sup(f, Place(ARCHIMEDEAN), rho)
    g = f.with_ring(rationals_archimedean())
    inner, outer = radius_bracket(rho, place.eps)
    if f.tail is not None and \
            not all(r < s for r, s in zip(outer, f.tail.sigma)):
        # a member need not converge out to rho^(1/eps), so the sup is
        # open above; each member's sup is at least max |a_I| r^I
        sup = NormValue(max((abs(a) * inner.power(I)
                             for I, a in g.coeffs.items()), default=0), None)
    else:
        sup = NormValue(norm_T(g, inner).lo, norm_T(g, outer).hi)
    return pow_interval(sup, place.eps, ROOT_PRECISION)


def global_sup_join(f: TruncatedSeries, rho: PolyRadius, prime_bound: int,
                    eps_grid_size: int):
    """(join, [(place, fiber sup)]) over ``enumerate_places``."""
    table = [(place, place_sup(f, place, rho))
             for place in enumerate_places(prime_bound, eps_grid_size)]
    total = NormValue.zero()
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
