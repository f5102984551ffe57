"""The max-norm reflection of sum-normed presentations.

Over a non-Archimedean base ring, every sum-normed (coproduct-flavored)
presented module has a universal max-normed quotient.  On finite weighted
presentations the reflection keeps the weights and relation matrices and
switches the norm flavor; the adjunction becomes an exact operator-norm
identity, checked here together with its compatibility with tensor
products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import UnsupportedRing
from .normed_core import (
    MAX,
    SUM,
    ModuleMap,
    PresentedModule,
    WeightedFreeModule,
    operator_norm,
)
from .scalars import NormValue
from .tensor import TensorElement, tensor_modules, tensor_norm_certified


@dataclass(frozen=True)
class FlavoredPresentation:
    module: PresentedModule

    def __post_init__(self):
        if not self.module.ambient.ring.non_archimedean:
            raise UnsupportedRing(
                "the max-norm reflection is defined over non-Archimedean rings"
            )

    @property
    def flavor(self) -> str:
        return self.module.ambient.flavor


def _reflavor_free(M: WeightedFreeModule, flavor: str) -> WeightedFreeModule:
    return WeightedFreeModule(M.ring, M.weights, flavor)


def pi_free(M: WeightedFreeModule) -> WeightedFreeModule:
    """Reflection of a weighted free module: same weights, max flavor."""
    if not M.ring.non_archimedean:
        raise UnsupportedRing("reflection needs a non-Archimedean ring")
    return _reflavor_free(M, MAX)


def pi_module(M: FlavoredPresentation) -> FlavoredPresentation:
    """Same weights and relation matrix, norm flavor switched to max.

    Idempotent: max-flavored inputs come back unchanged.
    """
    inner = M.module
    ambient = _reflavor_free(inner.ambient, MAX)
    relations = inner.relations
    if relations is not None:
        relations = ModuleMap(_reflavor_free(relations.source, MAX), ambient,
                              relations.matrix)
    restriction = inner.restriction
    if restriction is not None:
        restriction = ModuleMap(ambient,
                                _reflavor_free(restriction.target, MAX),
                                restriction.matrix)
    return FlavoredPresentation(
        PresentedModule(ambient, relations, restriction)
    )


def pi_map(f: ModuleMap) -> ModuleMap:
    """The reflection is the identity on matrices."""
    return ModuleMap(pi_free(f.source), pi_free(f.target), f.matrix)


@dataclass(frozen=True)
class AdjunctionRecord:
    matrix: Tuple[Tuple[Fraction, ...], ...]
    norm_from_sum_source: NormValue
    norm_from_max_source: NormValue
    equal: bool


def check_adjunction(source: WeightedFreeModule, target: WeightedFreeModule,
                     matrices: Sequence) -> List[AdjunctionRecord]:
    """Bounded maps out of the reflection are exactly the bounded maps out
    of the original, with the same bound: for each sample matrix the
    operator norm with sum-flavored source equals the operator norm with
    max-flavored source (the target is max-flavored in both readings).

    Both sides reduce to the same componentwise column criterion, and the
    equality is required exactly, radius by radius.
    """
    if not source.ring.non_archimedean:
        raise UnsupportedRing("adjunction check needs a non-Archimedean ring")
    src_sum = _reflavor_free(source, SUM)
    src_max = _reflavor_free(source, MAX)
    tgt = _reflavor_free(target, MAX)
    records = []
    for matrix in matrices:
        f_sum = ModuleMap(src_sum, tgt, matrix)
        f_max = ModuleMap(src_max, tgt, matrix)
        a = operator_norm(f_sum)
        b = operator_norm(f_max)
        records.append(AdjunctionRecord(f_sum.matrix, a, b,
                                        a.lo == b.lo and a.hi == b.hi))
    return records


@dataclass(frozen=True)
class TensorIntertwineRecord:
    weights_reflect_then_tensor: Tuple[Fraction, ...]
    weights_tensor_then_reflect: Tuple[Fraction, ...]
    generator_norms_agree: bool
    confirmed: bool


def pi_tensor_check(U: WeightedFreeModule,
                    V: WeightedFreeModule) -> TensorIntertwineRecord:
    """The reflection intertwines the two tensor products: reflecting the
    sum-flavored product of U and V gives the max-flavored product of
    their reflections, generator by generator."""
    through_sum = pi_free(tensor_modules(
        _reflavor_free(U, SUM), _reflavor_free(V, SUM), SUM
    ))
    U_max, V_max = pi_free(U), pi_free(V)
    through_max = tensor_modules(U_max, V_max, MAX)
    weights_ok = through_sum.weights == through_max.weights

    norms_ok = True
    for i in range(U.rank):
        for j in range(V.rank):
            ei = tuple(Fraction(int(k == i)) for k in range(U.rank))
            ej = tuple(Fraction(int(k == j)) for k in range(V.rank))
            x = TensorElement(U_max, V_max, ((ei, ej),))
            nv = tensor_norm_certified(x, MAX)
            expected = through_max.weights[i * V.rank + j]
            if not nv.lo == nv.hi == expected:
                norms_ok = False
    return TensorIntertwineRecord(through_sum.weights, through_max.weights,
                                  norms_ok, weights_ok and norms_ok)
