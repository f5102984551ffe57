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
    DimensionMismatch,
    NotACover,
    UnitIdealWitnessMissing,
    reads_json,
)
from .scalars import BanachRing, as_fraction
from .series import (
    DaggerPresentation,
    PolyRadius,
    TruncatedSeries,
    _convolve,
    _scaled_ints,
    multiply,
)

WEIERSTRASS = "weierstrass"
LAURENT = "laurent"
RATIONAL = "rational"


@dataclass(frozen=True)
class LocalizationSpec:
    """One localization step.

    weierstrass: cut out |f_i| <= r_i by new variables with relations
    X_i - f_i.  laurent: invert g_j on |g_j| >= 1/s_j via g_j*Y_j - 1.
    rational: the domain |f_i| <= r_i*|h| via h*X_i - f_i, which needs a
    witness (c_0, c_1, .., c_k) with c_0*h + sum c_i*f_i = 1.
    """

    variant: str
    fs: Tuple[TruncatedSeries, ...] = ()
    radii: Tuple[Fraction, ...] = ()
    h: Optional[TruncatedSeries] = None
    witness: Optional[Tuple[TruncatedSeries, ...]] = None

    def __post_init__(self):
        if self.variant not in (WEIERSTRASS, LAURENT, RATIONAL):
            raise ValueError(f"unknown localization variant {self.variant}")
        object.__setattr__(
            self, "radii", tuple(as_fraction(r) for r in self.radii)
        )
        if self.radii and len(self.radii) != len(self.fs):
            raise DimensionMismatch("one radius per localization series")
        if self.variant == RATIONAL and self.h is None:
            raise ValueError("rational variant needs the denominator h")

    def to_json(self):
        obj = {
            "variant": self.variant,
            "fs": [f.to_json() for f in self.fs],
            "radii": [str(r) for r in self.radii],
        }
        if self.h is not None:
            obj["h"] = self.h.to_json()
        if self.witness is not None:
            obj["witness"] = [c.to_json() for c in self.witness]
        return obj

    @staticmethod
    @reads_json("localization spec")
    def from_json(obj, ring: BanachRing) -> "LocalizationSpec":
        return LocalizationSpec(
            obj["variant"],
            tuple(TruncatedSeries.from_json(f, ring) for f in obj["fs"]),
            tuple(as_fraction(r) for r in obj.get("radii", [])),
            TruncatedSeries.from_json(obj["h"], ring) if obj.get("h") else None,
            tuple(TruncatedSeries.from_json(c, ring) for c in obj["witness"])
            if obj.get("witness")
            else None,
        )


def weierstrass_spec(fs, radii=None) -> LocalizationSpec:
    fs = tuple(fs)
    radii = tuple(radii) if radii is not None else (Fraction(1),) * len(fs)
    return LocalizationSpec(WEIERSTRASS, fs, radii)


def laurent_spec(gs, radii=None) -> LocalizationSpec:
    gs = tuple(gs)
    radii = tuple(radii) if radii is not None else (Fraction(1),) * len(gs)
    return LocalizationSpec(LAURENT, gs, radii)


def rational_spec(fs, h, witness=None, radii=None) -> LocalizationSpec:
    fs = tuple(fs)
    radii = tuple(radii) if radii is not None else (Fraction(1),) * len(fs)
    return LocalizationSpec(RATIONAL, fs, radii, h, tuple(witness) if witness else None)


def _new_variable(ring: BanachRing, n_total: int, position: int,
                  D: int) -> TruncatedSeries:
    I = tuple(1 if i == position else 0 for i in range(n_total))
    return TruncatedSeries.monomial(ring, I, 1, degree_bound=D)


def _check_unit_witness(spec: LocalizationSpec):
    """Verify c_0*h + sum c_i*f_i = 1 exactly (polynomial arithmetic)."""
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
    one = TruncatedSeries.constant(total.ring, 1, total.n, total.degree_bound)
    if total.sub(one).coeffs:
        raise UnitIdealWitnessMissing("witness combination does not equal 1")


def present_localization(A: DaggerPresentation,
                         spec: LocalizationSpec) -> DaggerPresentation:
    """Extend A's presentation by the variables and relations of one
    localization step."""
    if not spec.fs:
        return A
    for f in spec.fs:
        if f.ring != A.ring or f.n != A.n:
            raise DimensionMismatch("localization series not in the base algebra")
    if spec.variant == RATIONAL:
        if spec.h.ring != A.ring or spec.h.n != A.n:
            raise DimensionMismatch("denominator not in the base algebra")
        _check_unit_witness(spec)

    k = len(spec.fs)
    n_new = A.n + k
    D = max([f.degree_bound for f in spec.fs] + [1]) + 1
    rho = PolyRadius(tuple(A.rho) + tuple(spec.radii))
    relations = [r.embed(n_new) for r in A.relations]
    for i, f in enumerate(spec.fs):
        var = _new_variable(A.ring, n_new, A.n + i, D)
        fe = f.embed(n_new)
        if spec.variant == WEIERSTRASS:
            relations.append(var.sub(fe))
        elif spec.variant == LAURENT:
            one = TruncatedSeries.constant(A.ring, 1, n_new, 0)
            relations.append(multiply(fe, var).sub(one))
        else:
            he = spec.h.embed(n_new)
            relations.append(multiply(he, var).sub(fe))
    return DaggerPresentation(A.ring, n_new, rho, tuple(relations))


# ---------------------------------------------------------------------------
# division recursion for the Laurent relation


def laurent_solve(g: TruncatedSeries, t: TruncatedSeries,
                  D: int) -> TruncatedSeries:
    """Unique a with (g*X - 1)*a = t modulo X^(D+1), X a fresh last
    variable.

    Slicewise in powers of X: a_0 = -t_0 and a_k = g*a_(k-1) - t_k,
    reading t_k as the X^k slice of t.  The slices are integer tables:
    a_k = N_k / (Lt * Lg^k) with Lt, Lg the denominators of t and g, so
    N_0 = -T_0 and N_k = G*N_(k-1) - Lg^k * T_k.  The solution is
    verified by multiplying back.
    """
    ring = g.ring
    n = g.n
    if g.tail is not None or t.tail is not None:
        raise ValueError("laurent_solve needs g and t without tails")
    if t.n == n:
        t = t.embed(n + 1)
    if t.n != n + 1 or t.ring != ring:
        raise DimensionMismatch("target must live in the extended algebra")
    gs, Lg = _scaled_ints(g.coeffs)
    ts, Lt = _scaled_ints(t.coeffs)
    # numerator slices of t along the last variable
    slices: Dict[int, Dict[Tuple[int, ...], int]] = {}
    for I, c in ts:
        slices.setdefault(I[-1], {})[I[:-1]] = c

    coeffs: Dict[Tuple[int, ...], Fraction] = {}
    prev = {I: -c for I, c in slices.get(0, {}).items()}
    power = 1  # Lg^k
    for k in range(D + 1):
        if k:
            cur = _convolve(gs, prev.items())
            power *= Lg
            for I, c in slices.get(k, {}).items():
                cur[I] = cur.get(I, 0) - power * c
            prev = {I: c for I, c in cur.items() if c}
        den = Lt * power
        for I, c in prev.items():
            coeffs[I + (k,)] = Fraction(c, den)
    total_D = max([sum(I) for I in coeffs] + [0])
    a = TruncatedSeries(ring, n + 1, coeffs, total_D)

    # verification: (g*X - 1)*a agrees with t up to X-degree D
    gx = multiply(
        g.embed(n + 1),
        _new_variable(ring, n + 1, n, 1),
    )
    op = gx.sub(TruncatedSeries.constant(ring, 1, n + 1, 0))
    prod = multiply(op, a)
    for I in set(prod.coeffs) | set(t.coeffs):
        if I[-1] <= D and prod.coefficient(I) != t.coefficient(I):
            raise ArithmeticError("division recursion failed verification")
    return a


# ---------------------------------------------------------------------------
# Koszul two-term complexes


def koszul_h_check(A: DaggerPresentation, spec: LocalizationSpec,
                   D: int) -> None:
    """Validate one added variable for the two-term Koszul complex of A
    at truncation D.

    Its degree -1 homology is the kernel of multiplication by the
    relation, and that kernel is 0 at every D by a theorem, not a
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
        for k, c in coeffs.items():
            if abs(int(k)) > D:
                raise DimensionMismatch("element exceeds truncation degree")
            ring.check_element(c)
    return len(elements)
