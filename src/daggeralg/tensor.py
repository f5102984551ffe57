"""Projective tensor products of weighted free modules.

The projective norm of x in M (x) N is the infimum, over finite
representations x = sum_k m_k (x) n_k, of the term costs |m_k| |n_k|,
summed or maximised.  With T the coefficient matrix of x, call
|T_ij| w_i v_j its cells.  Expanding every term entry by entry bounds any
representation's cost below by the cells, and two cases are attained:

- max cost over a non-Archimedean ring: the max cell (c_0 (x) c_0 = c_0);
- sum cost between sum-flavored modules: the sum of the cells
  (l^1 (x) l^1 = l^1).

A sum cost with a max-flavored factor is bracketed between the max cell
and the best of the given, row and column decompositions.  A max cost
over an Archimedean ring is not bounded below by the cells, since
(2) (x) (1) = (1) (x) (1) + (1) (x) (1) costs 1, and is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .errors import DimensionMismatch, FlavorMismatch
from .normed_core import MAX, SUM, WeightedFreeModule, vector_norm
from .scalars import ZERO, NormValue, abs_value, as_fraction


def tensor_modules(M: WeightedFreeModule, N: WeightedFreeModule,
                   flavor: str) -> WeightedFreeModule:
    """Tensor product basis e_i (x) e_j, row-major, weights w_i * v_j."""
    if M.ring != N.ring:
        raise DimensionMismatch("tensor factors must share the ring")
    weights = tuple(w * v for w in M.weights for v in N.weights)
    return WeightedFreeModule(M.ring, weights, flavor)


@dataclass(frozen=True)
class TensorElement:
    """Finite representation sum m_k (x) n_k of an element of M (x) N."""

    left: WeightedFreeModule
    right: WeightedFreeModule
    terms: Tuple[Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]], ...]

    def __post_init__(self):
        ring = self.left.ring
        if ring != self.right.ring:
            raise DimensionMismatch("tensor factors must share the ring")
        clean = []
        for m, n in self.terms:
            m = tuple(ring.check_element(x) for x in m)
            n = tuple(ring.check_element(x) for x in n)
            if len(m) != self.left.rank or len(n) != self.right.rank:
                raise DimensionMismatch("tensor term has wrong shape")
            clean.append((m, n))
        object.__setattr__(self, "terms", tuple(clean))

    def coefficient_matrix(self) -> List[List[Fraction]]:
        T = [[Fraction(0)] * self.right.rank for _ in range(self.left.rank)]
        for m, n in self.terms:
            for i in range(self.left.rank):
                if m[i] == 0:
                    continue
                for j in range(self.right.rank):
                    T[i][j] += m[i] * n[j]
        return T

    def scale(self, lam) -> "TensorElement":
        lam = as_fraction(lam)
        return TensorElement(
            self.left,
            self.right,
            tuple((tuple(lam * x for x in m), n) for m, n in self.terms),
        )


def tensor_norm_upper(x: TensorElement, flavor: str) -> Fraction:
    """Cost of the given representation: a sound upper bound on the norm."""
    total = Fraction(0)
    best = Fraction(0)
    for m, n in x.terms:
        c = vector_norm(x.left, m).hi * vector_norm(x.right, n).hi
        total += c
        best = max(best, c)
    return total if flavor == SUM else best


# bench/workloads.py still passes the retired search bounds positionally
def tensor_norm_certified(x: TensorElement, flavor: str,
                          *_search_bounds) -> NormValue:
    """The projective norm of x for the given term-cost flavor: exact when
    the closed form applies (see the module docstring), else a bracket."""
    ring, wl, wr = x.left.ring, x.left.weights, x.right.weights
    if flavor == MAX and not ring.non_archimedean:
        raise FlavorMismatch("max term cost needs a non-Archimedean ring")
    T = x.coefficient_matrix()
    cells = [abs_value(ring, T[i][j]) * wl[i] * wr[j]
             for i in range(x.left.rank) for j in range(x.right.rank)]
    lo = max(cells, default=ZERO)
    if flavor == MAX:
        return NormValue.exact(lo)
    if x.left.flavor == SUM and x.right.flavor == SUM:
        return NormValue.exact(sum(cells, ZERO))
    rows = sum((w * vector_norm(x.right, T[i]).hi for i, w in enumerate(wl)),
               ZERO)
    cols = sum((v * vector_norm(x.left, [row[j] for row in T]).hi
                for j, v in enumerate(wr)), ZERO)
    return NormValue(lo, min(tensor_norm_upper(x, SUM), rows, cols))
