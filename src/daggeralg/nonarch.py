"""The max-norm reflection of sum-normed presentations.

Over a non-Archimedean base ring, every sum-normed (coproduct-flavored)
presented module has a universal max-normed quotient.  On finite weighted
presentations the reflection keeps the weights and relation matrices and
switches the norm flavor.  Its adjunction and its compatibility with
tensor products are identities (see check_adjunction and
pi_tensor_check), so only their inputs are validated here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, UnsupportedRing
from .normed_core import MAX, ModuleMap, PresentedModule, WeightedFreeModule
from .tensor import tensor_modules


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


def check_adjunction(source: WeightedFreeModule,
                     target: WeightedFreeModule) -> None:
    """Validate a source and target for the reflection adjunction.

    Bounded maps out of the reflection are exactly the bounded maps out of
    the original, with the same bound.  This is a theorem, not a
    computation: into a max-flavored target over a non-Archimedean ring,
    |f x| <= max_j |x_j| |f e_j| <= max_j (|f e_j| / w_j) * |x| for either
    source flavor, with equality at a basis vector, so both operator
    norms are the column maximum max_j |f e_j| / w_j.  What can fail is
    the input: an Archimedean ring, or a target over another ring.
    """
    if not source.ring.non_archimedean:
        raise UnsupportedRing("adjunction check needs a non-Archimedean ring")
    if target.ring != source.ring:
        raise DimensionMismatch("source and target must share the ring")


def pi_tensor_check(U: WeightedFreeModule,
                    V: WeightedFreeModule) -> WeightedFreeModule:
    """The max-flavored tensor product of the reflections of U and V.

    The reflection intertwines the two tensor products: reflecting the
    sum-flavored product of U and V gives this module.  Both have the
    basis e_i (x) e_j with weights w_i v_j, whatever the flavors, and the
    max-cost norm of e_i (x) e_j is its one cell |1| w_i v_j.  Raises on
    an Archimedean ring or factors over different rings.
    """
    return tensor_modules(pi_free(U), pi_free(V), MAX)
