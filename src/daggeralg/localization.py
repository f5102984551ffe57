"""Localization presentations of overconvergent polydisk algebras.

Three standard subdomain constructions (add variables with relations
X - f, g*Y - 1, h*X - f), the division recursion behind the Laurent
relation, and input validation for the Koszul complex of one added
variable and for the disk/annulus gluing sequence (whose homology and
exactness are theorems).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .errors import (
    NULL,
    DimensionMismatch,
    NotACover,
    UnitIdealWitnessMissing,
    members,
)
from .scalars import BanachRing, as_fraction, read_rational
from .series import (
    DaggerPresentation,
    PolyRadius,
    TruncatedSeries,
    multiply,
)

WEIERSTRASS = "weierstrass"
LAURENT = "laurent"
RATIONAL = "rational"


@dataclass(frozen=True, slots=True)
class LocalizationSpec:
    """One localization step.

    weierstrass: cut out |f_i| <= r_i by new variables with relations
    X_i - f_i.  laurent: invert g_j on |g_j| >= 1/s_j via g_j*Y_j - 1.
    rational: the domain |f_i| <= r_i*|h| via h*X_i - f_i, which needs a
    witness (c_0, c_1, .., c_k) with c_0*h + sum c_i*f_i = 1.
    """

    variant: str
    fs: Tuple[TruncatedSeries, ...] = ()
    radii: Optional[Tuple[Fraction, ...]] = None
    h: Optional[TruncatedSeries] = None
    witness: Optional[Tuple[TruncatedSeries, ...]] = None

    def __post_init__(self):
        if self.variant not in (WEIERSTRASS, LAURENT, RATIONAL):
            raise ValueError(f"unknown localization variant {self.variant}")
        # no radii: one radius of 1 per series
        radii = (1,) * len(self.fs) if self.radii is None else self.radii
        object.__setattr__(self, "radii", tuple(map(as_fraction, radii)))
        if len(self.radii) != len(self.fs):
            raise DimensionMismatch("one radius per localization series")
        if self.variant == RATIONAL and self.h is None:
            raise ValueError("rational variant needs the denominator h")

    @staticmethod
    def from_json(obj, ring: BanachRing) -> "LocalizationSpec":
        variant, fs, radii, h, witness = members(obj, "localization spec", {
            "variant": str, "fs": list, "radii": (list, NULL),
            "h": (dict, NULL), "witness": (list, NULL)})
        return LocalizationSpec(
            variant, tuple(TruncatedSeries.from_json(f, ring) for f in fs),
            None if radii is None else tuple(map(read_rational, radii)),
            None if h is None else TruncatedSeries.from_json(h, ring),
            None if witness is None else
            tuple(TruncatedSeries.from_json(c, ring) for c in witness))


def _check_unit_witness(spec: LocalizationSpec):
    """Verify c_0*h + sum c_i*f_i = 1 exactly (polynomial arithmetic).

    A tail with C > 0 on the combination stands for coefficients that
    are not known, so such a combination is not known to be 1, however
    its known coefficients read."""
    if spec.witness is None:
        raise UnitIdealWitnessMissing(
            "rational localization requires a unit-ideal witness"
        )
    gens = (spec.h,) + spec.fs
    if len(spec.witness) != len(gens):
        raise UnitIdealWitnessMissing("witness length does not match generators")
    total = None
    for c, g in zip(spec.witness, gens):
        term = multiply(c, g)
        total = term if total is None else total.add(term)
    if total.sub(TruncatedSeries.constant(total.ring, 1, total.n)).coeffs:
        raise UnitIdealWitnessMissing("witness combination does not equal 1")
    if total.tail is not None and total.tail.C:
        raise UnitIdealWitnessMissing(
            "witness combination has a tail, so it is not known to equal 1")


def present_localization(A: DaggerPresentation,
                         spec: LocalizationSpec) -> DaggerPresentation:
    """Extend A's presentation by the variables and relations of one
    localization step.  A new variable is a monomial of degree bound 1,
    and ``add`` and ``multiply`` give each relation its degree bound.  A
    relation with no known term in its new variable raises ValueError."""
    if not spec.fs:
        return A
    for f in spec.fs:
        if f.ring != A.ring or f.n != A.n:
            raise DimensionMismatch("localization series not in the base algebra")
    if spec.variant == RATIONAL:
        if spec.h.ring != A.ring or spec.h.n != A.n:
            raise DimensionMismatch("denominator not in the base algebra")
        _check_unit_witness(spec)

    n_new = A.n + len(spec.fs)
    rho = PolyRadius(tuple(A.rho) + tuple(spec.radii))
    relations = [r.embed(n_new) for r in A.relations]
    for i, f in enumerate(spec.fs):
        var = TruncatedSeries.monomial(
            A.ring, tuple(int(j == A.n + i) for j in range(n_new)))
        fe = f.embed(n_new)
        if spec.variant == WEIERSTRASS:
            relations.append(var.sub(fe))
        elif spec.variant == LAURENT:
            one = TruncatedSeries.constant(A.ring, 1, n_new)
            relations.append(multiply(fe, var).sub(one))
        else:
            he = spec.h.embed(n_new)
            relations.append(multiply(he, var).sub(fe))
        # a tail takes in the new variable's term when f's degree bound
        # leaves no room for it, and a zero f or h has no such term; the
        # relation would then not involve the variable it adds
        if not any(I[A.n + i] for I in relations[-1].coeffs):
            raise ValueError(f"the relation of localization series {i + 1} "
                             f"has no known term in its new variable")
    return DaggerPresentation(A.ring, n_new, rho, tuple(relations))


# ---------------------------------------------------------------------------
# division recursion for the Laurent relation


def laurent_solve(g: TruncatedSeries, t: TruncatedSeries,
                  D: int) -> TruncatedSeries:
    """Unique a with (g*X - 1)*a = t modulo X^(D+1), X a fresh last
    variable.

    Slicewise in powers of X: a_0 = -t_0 and a_k = g*a_(k-1) - t_k,
    reading t_k as the X^k slice of t.  This is the identity itself, not
    a guess to verify: the X^k slice of (g*X - 1)*a is g*a_(k-1) - a_k
    (with a_(-1) = 0), and the recursion sets it to t_k for k <= D.
    """
    ring, n = g.ring, g.n
    if g.tail is not None or t.tail is not None:
        raise ValueError("laurent_solve needs g and t without tails")
    if t.n == n:
        t = t.embed(n + 1)
    if t.n != n + 1 or t.ring != ring:
        raise DimensionMismatch("target must live in the extended algebra")

    def t_slice(k: int) -> TruncatedSeries:
        return TruncatedSeries(ring, n, {I[:-1]: c for I, c in t.coeffs.items()
                                         if I[-1] == k}, t.degree_bound)

    coeffs: Dict[Tuple[int, ...], Fraction] = {}
    a = t_slice(0).negate()
    for k in range(D + 1):
        if k:
            a = multiply(g, a).sub(t_slice(k))
        coeffs.update({I + (k,): c for I, c in a.coeffs.items()})
    total_D = max([sum(I) for I in coeffs] + [0])
    return TruncatedSeries(ring, n + 1, coeffs, total_D)


# ---------------------------------------------------------------------------
# Koszul two-term complexes


def koszul_h_check(A: DaggerPresentation,
                   spec: LocalizationSpec) -> None:
    """Validate one added variable for the two-term Koszul complex of A.

    Its degree -1 homology is the kernel of multiplication by the
    relation, and that kernel is 0 at every truncation by a theorem, not a
    computation: over every commutative ring C, X - f is monic in X and
    g*Y - 1 has the unit -1 as its constant term in Y, so neither is a
    zero divisor in C[X] or C[Y].  What can fail is the input: more than
    one series, a rational spec, or a spec that present_localization
    rejects (a series outside A, a non-positive radius).
    """
    if len(spec.fs) != 1:
        raise DimensionMismatch("single added variable only")
    if spec.variant == RATIONAL:
        raise DimensionMismatch("koszul check covers Weierstrass and Laurent "
                                "specs only")
    present_localization(A, spec)


# ---------------------------------------------------------------------------
# disk/annulus gluing


def mayer_vietoris(ring: BanachRing, D: int,
                   elements: Sequence[Dict[int, Fraction]],
                   disk_radius=Fraction(1),
                   annulus_inner=Fraction(1)) -> int:
    """Validate overlap functions for the cover of the closed disk by the
    disk piece and the annulus piece, truncated at degree D; return how
    many were validated.

    Model: disk functions are polynomials in X, annulus functions are
    Laurent polynomials in X; the overlap is the annulus.  The gluing
    sequence is exact in this model by a theorem, not a computation: a
    Laurent polynomial splits uniquely, by the sign of each exponent, into
    a disk part and a principal part, so the diagonal is injective and
    the kernel of the difference map is the diagonal.  What can fail is
    the input: a non-cover, an exponent beyond D, or a coefficient
    outside the ring.
    """
    if as_fraction(annulus_inner) > as_fraction(disk_radius):
        raise NotACover(
            "annulus inner radius exceeds the disk radius: the pieces miss "
            "the intermediate spectrum points"
        )
    for coeffs in elements:
        if any(type(k) is not int for k in coeffs):  # int() reads 1.9 as 1
            raise ValueError(f"Laurent exponents must be integers, not "
                             f"{list(coeffs)!r}")
        for k, c in coeffs.items():
            if abs(k) > D:
                raise DimensionMismatch("element exceeds truncation degree")
            ring.check_element(c)
    return len(elements)
