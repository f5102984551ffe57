"""The max-norm reflection of weighted free modules.

Over a non-Archimedean base ring, every sum-normed (coproduct-flavored)
module has a universal max-normed quotient.  On a weighted free module
the reflection keeps the weights and switches the norm flavor (pi_free).
Its adjunction and its compatibility with tensor products are identities
(see check_adjunction and pi_tensor_check), so only their inputs are
validated here.
"""

from __future__ import annotations

from .errors import DimensionMismatch, UnsupportedRing
from .normed_core import MAX, WeightedFreeModule
from .tensor import tensor_modules


def pi_free(M: WeightedFreeModule) -> WeightedFreeModule:
    """Reflection of a weighted free module: same weights, max flavor."""
    if not M.ring.non_archimedean:
        raise UnsupportedRing("reflection needs a non-Archimedean ring")
    return WeightedFreeModule(M.ring, M.weights, MAX)


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
