"""Projective tensor products of weighted free modules.

The projective norm of x in M (x) N is the infimum, over finite
representations x = sum_k m_k (x) n_k, of the term costs |m_k| |n_k|,
summed or maximised.  With T the coefficient matrix of x, call
|T_ij| w_i v_j its cells.  Expanding every term entry by entry bounds any
representation's cost below by the cells, and three cases are attained:

- max cost over a non-Archimedean ring: the max cell (c_0 (x) c_0 = c_0);
- sum cost between sum-flavored modules: the sum of the cells
  (l^1 (x) l^1 = l^1);
- sum cost with one sum-flavored factor, the left say: the sum over the
  rows of their max cells, the row decomposition's cost (l^1 (x) X =
  l^1(X): expanding along the left factor only, the triangle inequality
  in the right one bounds every cost below by it); the columns likewise.

A sum cost between max-flavored modules is bracketed between the max
cell and the best of the given, row and column decompositions.  A max
cost over an Archimedean ring is not bounded below by the cells, since
(2) (x) (1) = (1) (x) (1) + (1) (x) (1) costs 1, and is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import List, Tuple

from .errors import DimensionMismatch, FlavorMismatch
from .normed_core import MAX, SUM, WeightedFreeModule, vector_norm
from .scalars import NormValue, abs_ints, as_fraction


def tensor_modules(M: WeightedFreeModule, N: WeightedFreeModule,
                   flavor: str) -> WeightedFreeModule:
    """Tensor product basis e_i (x) e_j, row-major, weights w_i * v_j."""
    if M.ring != N.ring:
        raise DimensionMismatch("tensor factors must share the ring")
    weights = tuple(w * v for w in M.weights for v in N.weights)
    return WeightedFreeModule(M.ring, weights, flavor)


@dataclass(frozen=True, slots=True)
class TensorElement:
    """Finite representation sum m_k (x) n_k of an element of M (x) N."""

    left: WeightedFreeModule
    right: WeightedFreeModule
    terms: Tuple[Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]], ...]

    def __post_init__(self):
        ring = self.left.ring
        if ring != self.right.ring:
            raise DimensionMismatch("tensor factors must share the ring")
        check, rl, rr = ring.check_element, self.left.rank, self.right.rank
        clean = []
        for m, n in self.terms:
            m, n = tuple(map(check, m)), tuple(map(check, n))
            if len(m) != rl or len(n) != rr:
                raise DimensionMismatch("tensor term has wrong shape")
            clean.append((m, n))
        object.__setattr__(self, "terms", tuple(clean))

    def scale(self, lam) -> "TensorElement":
        lam = as_fraction(lam)
        return TensorElement(
            self.left,
            self.right,
            tuple((tuple([lam * x for x in m]), n) for m, n in self.terms),
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


def _coefficient_ints(terms, rl: int, rr: int):
    """The coefficient matrix T = sum_k m_k n_k^T on integers: returns
    (S, R, C) with T_ij = S[i * rr + j] / (R_i C_j).

    Each term is its numerators over its entries' denominators; halves
    of the term list are summed over the lcm of their row and column
    denominators, so that the numbers grow with the depth of the
    halving, not with the number of terms."""
    if len(terms) <= 1:
        m, n = terms[0] if terms else ((0,) * rl, (0,) * rr)
        R, C = [a.denominator for a in m], [b.denominator for b in n]
        ns = [b.numerator for b in n]
        return [a.numerator * b for a in m for b in ns], R, C
    h = len(terms) // 2
    (S1, R1, C1), (S2, R2, C2) = (_coefficient_ints(half, rl, rr)
                                  for half in (terms[:h], terms[h:]))
    R = list(map(math.lcm, R1, R2))
    C = list(map(math.lcm, C1, C2))
    # a half's entry (i, j) scales by its row factor times its column one
    factors = []
    for Rh, Ch in ((R1, C1), (R2, C2)):
        col = [c // q for c, q in zip(C, Ch)]
        factors.append([r // q * c for r, q in zip(R, Rh) for c in col])
    f1, f2 = factors
    S = [a * x + b * y for a, x, b, y in zip(S1, f1, S2, f2)]
    return S, R, C


def _scaled_weights(M: WeightedFreeModule,
                    L: List[int]) -> Tuple[List[int], int]:
    """The factors |1/L_i| w_i on integers: returns (G, d) with
    |1/L_i| w_i == G_i / d.  Over the lcm P of the L_i,
    |1/L_i| = |(P/L_i)/P|, from ``abs_ints``, times the module's
    integer weights."""
    P = math.lcm(*L)
    F, dF = abs_ints(M.ring, [P // q for q in L], P)
    return [f * W for f, W in zip(F, M.int_weights)], dF * M.weight_den


# bench/workloads.py still passes the retired search bounds positionally
def tensor_norm_certified(x: TensorElement, flavor: str,
                          *_search_bounds) -> NormValue:
    """The projective norm of x for the given term-cost flavor: exact when
    the closed form applies (see the module docstring), else a bracket.

    Computed on integers: with T_ij = S_ij / (R_i C_j) from
    ``_coefficient_ints``, the cell |T_ij| w_i v_j is
    |S_ij| (|1/R_i| w_i)(|1/C_j| v_j).  The cells are built over one
    denominator, and one ``Fraction`` per result."""
    ring, rl, rr = x.left.ring, x.left.rank, x.right.rank
    if flavor == MAX and not ring.non_archimedean:
        raise FlavorMismatch("max term cost needs a non-Archimedean ring")
    S, R, C = _coefficient_ints(x.terms, rl, rr)
    A, den = abs_ints(ring, S, 1)
    gl, dl = _scaled_weights(x.left, R)
    gr, dr = _scaled_weights(x.right, C)
    cells = list(map(mul, A, [u * v for u in gl for v in gr]))
    den *= dl * dr
    if flavor == MAX:
        return NormValue.exact(Fraction(max(cells, default=0), den))
    if x.left.flavor == SUM and x.right.flavor == SUM:
        return NormValue.exact(Fraction(sum(cells), den))
    # the row decomposition sum_i e_i (x) T_i costs each row's max cell,
    # summed, when the right factor is max-flavored; the columns likewise
    rows = sum(max(cells[i * rr:(i + 1) * rr], default=0) for i in range(rl))
    cols = sum(max(cells[j::rr], default=0) for j in range(rr))
    if x.left.flavor == SUM:
        return NormValue.exact(Fraction(rows, den))
    if x.right.flavor == SUM:
        return NormValue.exact(Fraction(cols, den))
    return NormValue(Fraction(max(cells, default=0), den),
                     min(tensor_norm_upper(x, SUM),
                         Fraction(min(rows, cols), den)))
