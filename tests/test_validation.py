"""The checks on input from outside the program that the rest of the
suite does not reach: each raises its exception with its message."""

import re
from fractions import Fraction

import pytest

from daggeralg.errors import (
    DimensionMismatch,
    UnitIdealWitnessMissing,
    UnsupportedRing,
)
from daggeralg.localization import (
    LocalizationSpec,
    laurent_solve,
    present_localization,
)
from daggeralg.normed_core import (
    SUM,
    ModuleMap,
    PresentedModule,
    WeightedFreeModule,
    cokernel,
    residue_norm,
)
from daggeralg.scalars import (
    KIND_Z_ARCH,
    BanachRing,
    integers_archimedean,
    rational_root_bounds,
    rationals_archimedean,
    rationals_padic,
)
from daggeralg.series import (
    DaggerPresentation,
    Tail,
    TruncatedSeries,
    archimedean_sup,
    norm_T,
    polyradius,
    unit_polydisk,
)
from daggeralg.spectrum import fiber_sup, shilov_check
from daggeralg.tensor import TensorElement

Z = integers_archimedean()
QA = rationals_archimedean()
Q2 = rationals_padic(2)


def module(*weights, ring=Z):
    return WeightedFreeModule(ring, tuple(map(Fraction, weights)), SUM)


def x(ring=Q2, n=1):
    """The first variable of n over the ring."""
    return TruncatedSeries.monomial(ring, (1,) + (0,) * (n - 1))


def x_plus_y():
    """X + Y over Z."""
    return x(Z, 2).add(TruncatedSeries.monomial(Z, (0, 1)))


def one(ring=Q2, n=1):
    return TruncatedSeries.constant(ring, 1, n)


CASES = {
    # localization
    "unknown variant": (
        lambda: LocalizationSpec("affine"),
        ValueError, "unknown localization variant affine"),
    "rational spec without h": (
        lambda: LocalizationSpec("rational", (x(),)),
        ValueError, "rational variant needs the denominator h"),
    "witness length": (
        lambda: present_localization(unit_polydisk(Q2), LocalizationSpec(
            "rational", (x(),), None, one(), (one(),))),
        UnitIdealWitnessMissing, "witness length does not match generators"),
    "denominator outside the algebra": (
        lambda: present_localization(unit_polydisk(Q2), LocalizationSpec(
            "rational", (x(),), None, one(Q2, 2), (one(), one()))),
        DimensionMismatch, "denominator not in the base algebra"),
    "laurent_solve target arity": (
        lambda: laurent_solve(x(), one(Q2, 3), 4),
        DimensionMismatch, "target must live in the extended algebra"),
    # normed_core
    "weight zero": (
        lambda: module(1, 0),
        ValueError, "weights must be positive"),
    "unknown flavor": (
        lambda: WeightedFreeModule(Z, (Fraction(1),), "mean"),
        ValueError, "unknown norm flavor mean"),
    "map across rings": (
        lambda: ModuleMap(module(1), module(1, ring=QA), ((Fraction(1),),)),
        DimensionMismatch, "source and target must share the ring"),
    "map row count": (
        lambda: ModuleMap(module(1), module(1, 1), ((Fraction(1),),)),
        DimensionMismatch, "matrix row count != target rank"),
    "map column count": (
        lambda: ModuleMap(module(1, 1), module(1), ((Fraction(1),),)),
        DimensionMismatch, "matrix column count != source rank"),
    "relations elsewhere": (
        lambda: PresentedModule(module(2), ModuleMap(
            module(1), module(1), ((Fraction(1),),))),
        DimensionMismatch, "relations must land in the ambient module"),
    "residue norm over Q": (
        lambda: residue_norm(cokernel(ModuleMap(
            module(1, ring=QA), module(1, ring=QA), ((Fraction(2),),))), (1,)),
        UnsupportedRing, "residue norms are certified on lattice rings only"),
    "class length": (
        lambda: residue_norm(cokernel(ModuleMap(
            module(1), module(1), ((Fraction(2),),))), (1, 2)),
        DimensionMismatch, "class representative has wrong length"),
    # scalars
    "unknown ring kind": (
        lambda: BanachRing("Gaussian"),
        ValueError, "unknown ring kind Gaussian"),
    "p on a ring not p-adic": (
        lambda: BanachRing(KIND_Z_ARCH, 2),
        ValueError, "p only meaningful for the p-adic kind"),
    "negative radicand": (
        lambda: rational_root_bounds(Fraction(-1), 2),
        ValueError, "radicand must be non-negative"),
    "root index zero": (
        lambda: rational_root_bounds(Fraction(2), 0),
        ValueError, "root index must be >= 1"),
    # series
    "strictly_less lengths": (
        lambda: polyradius(1).strictly_less(polyradius(2, 2)),
        DimensionMismatch, "polyradius length mismatch"),
    "negative tail constant": (
        lambda: Tail(Fraction(-1), polyradius(2)),
        ValueError, "tail constant must be non-negative"),
    "bad multi-index": (
        lambda: TruncatedSeries(Z, 2, {(1,): Fraction(1)}, 2),
        DimensionMismatch, "bad multi-index (1,)"),
    "coefficient beyond D": (
        lambda: TruncatedSeries(Z, 1, {(3,): Fraction(1)}, 2),
        ValueError, "coefficient at (3,) beyond degree bound"),
    "tail arity": (
        lambda: TruncatedSeries(Z, 1, {}, 2, Tail(Fraction(1),
                                                  polyradius(2, 2))),
        DimensionMismatch, "tail polyradius length mismatch"),
    "embed shrinks": (
        lambda: x(Z, 2).embed(1),
        DimensionMismatch, "embedding does not fit"),
    "incompatible add": (
        lambda: x(Z).add(x(QA)),
        DimensionMismatch, "series over different rings or arities"),
    "norm_T arity": (
        lambda: norm_T(x(Z), polyradius(1, 1)),
        DimensionMismatch, "polyradius arity mismatch"),
    "archimedean_sup short radius": (
        lambda: archimedean_sup(x_plus_y(), polyradius(1)),
        DimensionMismatch, "polyradius arity mismatch"),
    "archimedean_sup long radius": (
        lambda: archimedean_sup(x_plus_y(), polyradius(1, 3, 5)),
        DimensionMismatch, "polyradius arity mismatch"),
    "relation in another algebra": (
        lambda: DaggerPresentation(Z, 1, polyradius(1), (x(Z, 2),)),
        DimensionMismatch, "relation in the wrong algebra"),
    # spectrum
    "fiber_sup arity": (
        lambda: fiber_sup(x(Z), Q2, polyradius(1, 1)),
        DimensionMismatch, "polyradius arity mismatch"),
    "shilov rational coefficients": (
        lambda: shilov_check(TruncatedSeries.constant(QA, Fraction(1, 2)),
                             polyradius(1)),
        DimensionMismatch, "integer coefficients required"),
    # tensor
    "tensor term shape": (
        lambda: TensorElement(module(1), module(1, 1),
                              (((Fraction(1),), (Fraction(1),)),)),
        DimensionMismatch, "tensor term has wrong shape"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_raises(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
