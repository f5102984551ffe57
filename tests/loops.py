"""The ``Fraction`` loops that the integer kernels of ``series`` replaced,
kept as oracles: the radius power rho^I (once ``PolyRadius.power``) and
the Gauss and sum norms of a coefficient table, one coefficient at a
time through ``abs_value``.
"""

from fractions import Fraction

from daggeralg.scalars import abs_value


def rho_power(rho, I) -> Fraction:
    out = Fraction(1)
    for c, e in zip(rho, I):
        out *= Fraction(c) ** e
    return out


def gauss_loop(ring, coeffs, rho) -> Fraction:
    """max |a_I| rho^I, 0 for an empty table."""
    return max((abs_value(ring, a) * rho_power(rho, I)
                for I, a in coeffs.items()), default=Fraction(0))


def sum_loop(ring, coeffs, rho) -> Fraction:
    """sum |a_I| rho^I."""
    return sum((abs_value(ring, a) * rho_power(rho, I)
                for I, a in coeffs.items()), Fraction(0))


def is_zero(f) -> bool:
    """No known coefficient and no tail mass (once
    ``TruncatedSeries.is_zero``)."""
    return not f.coeffs and (f.tail is None or f.tail.C == 0)
