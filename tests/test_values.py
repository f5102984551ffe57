"""Every dataclass of the package is a frozen, slotted value: instances
carry no ``__dict__``, survive a pickle round trip field for field, and
the rings without parameters are one shared instance each."""

import dataclasses
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import daggeralg
from daggeralg.localization import WEIERSTRASS, LocalizationSpec
from daggeralg.normed_core import (
    SUM,
    MAX,
    ModuleMap,
    NotStrictWitness,
    StrictWithConstants,
    WeightedFreeModule,
    cokernel,
)
from daggeralg.scalars import (
    NormValue,
    integers_archimedean,
    integers_trivial,
    rationals_archimedean,
    rationals_padic,
)
from daggeralg.series import (
    DaggerPresentation,
    Tail,
    TruncatedSeries,
    polyradius,
)
from daggeralg.spectrum import ShilovVerdict
from daggeralg.tensor import TensorElement

Z = integers_archimedean()


def _samples():
    M = WeightedFreeModule(Z, (Fraction(1), Fraction(3, 2)), SUM)
    f = ModuleMap(M, M, ((Fraction(2), Fraction(0)), (Fraction(1), 1)))
    rho = polyradius(1, Fraction(1, 2))
    tail = Tail(Fraction(1, 3), polyradius(2, 1))
    series = TruncatedSeries(Z, 2, {(1, 0): Fraction(3), (0, 2): 5}, 2,
                             tail)
    x = TruncatedSeries.monomial(Z, (1,)).scale(2)
    return [
        NormValue(Fraction(1, 2), None),
        rationals_padic(3),
        M,
        WeightedFreeModule(integers_trivial(), (Fraction(2),), MAX),
        f,
        cokernel(f),
        StrictWithConstants(Fraction(1, 4), Fraction(2)),
        NotStrictWitness((Fraction(1), Fraction(-1))),
        rho,
        tail,
        series,
        DaggerPresentation(Z, 1, polyradius(2), (x,)),
        TensorElement(M, M, (((1, 2), (0, 3)),)),
        LocalizationSpec(WEIERSTRASS, (x,), (Fraction(1, 2),)),
        ShilovVerdict(True, NormValue.exact(3), NormValue.exact(2)),
    ]


SAMPLES = _samples()


def _package_dataclasses():
    classes = set()
    for info in pkgutil.iter_modules(daggeralg.__path__):
        module = importlib.import_module(f"daggeralg.{info.name}")
        classes.update(obj for obj in vars(module).values()
                       if isinstance(obj, type)
                       and dataclasses.is_dataclass(obj)
                       and obj.__module__ == module.__name__)
    return classes


def test_every_dataclass_has_a_sample():
    assert {type(x) for x in SAMPLES} == _package_dataclasses()


@pytest.mark.parametrize("x", SAMPLES, ids=lambda x: type(x).__name__)
def test_frozen_and_slotted(x):
    cls = type(x)
    assert cls.__dataclass_params__.frozen
    assert "__slots__" in vars(cls)
    assert not hasattr(x, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(x, dataclasses.fields(x)[0].name, None)


@pytest.mark.parametrize("x", SAMPLES, ids=lambda x: type(x).__name__)
def test_pickle_round_trip(x):
    y = pickle.loads(pickle.dumps(x))
    assert y == x
    # the fields left out of comparisons too, such as a module's
    # integer weights
    for f in dataclasses.fields(x):
        assert getattr(y, f.name) == getattr(x, f.name)


@pytest.mark.parametrize("make", [integers_archimedean, integers_trivial,
                                  rationals_archimedean])
def test_rings_without_parameters_are_shared(make):
    assert make() is make()
