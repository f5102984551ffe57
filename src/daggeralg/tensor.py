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
from typing import List, Sequence, Tuple

from .errors import DimensionMismatch, FlavorMismatch, ViolationWitness
from .normed_core import MAX, SUM, ModuleMap, WeightedFreeModule, vector_norm
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


@dataclass(frozen=True)
class ContractionRecord:
    """Certifies |lambda x| <= |lambda| * |x| at the representation level."""

    scalar: Fraction
    scaled_bound: Fraction
    scalar_abs: Fraction
    original_bound: Fraction
    holds: bool


def scalar_contraction_bound(lam, x: TensorElement,
                             flavor: str = SUM) -> ContractionRecord:
    lam = as_fraction(lam)
    orig = tensor_norm_upper(x, flavor)
    scaled = tensor_norm_upper(x.scale(lam), flavor)
    la = abs_value(x.left.ring, lam)
    rec = ContractionRecord(lam, scaled, la, orig, scaled <= la * orig)
    if not rec.holds:
        raise ViolationWitness("scalar contraction bound failed", rec)
    return rec


# ---------------------------------------------------------------------------
# finitely presented normed algebras


@dataclass(frozen=True)
class NormedAlgebra:
    """Finite weighted basis with a multiplication table.

    table[(i, j)] is the coefficient vector of b_i * b_j; the norm is the
    weighted module norm in the given flavor, with submultiplicativity
    constant mul_constant.
    """

    module: WeightedFreeModule
    table: Tuple[Tuple[Tuple[Fraction, ...], ...], ...]
    mul_constant: Fraction = Fraction(1)

    def multiply(self, xs: Sequence, ys: Sequence) -> List[Fraction]:
        n = self.module.rank
        out = [Fraction(0)] * n
        for i in range(n):
            if as_fraction(xs[i]) == 0:
                continue
            for j in range(n):
                if as_fraction(ys[j]) == 0:
                    continue
                prod = self.table[i][j]
                c = as_fraction(xs[i]) * as_fraction(ys[j])
                for k in range(n):
                    out[k] += c * prod[k]
        return out


@dataclass(frozen=True)
class SubmultiplicativityRecord:
    pair: Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]
    product_norm: Fraction
    bound: Fraction
    holds: bool


def algebra_tensor_submultiplicativity(A: NormedAlgebra, B: NormedAlgebra,
                                       sample_pairs) -> List[SubmultiplicativityRecord]:
    """For elements of A (x) B given as coefficient matrices over the tensor
    basis, check |xy| <= C_A C_B |x| |y| with the representation bound."""
    flavor = A.module.flavor
    TA, TB = A.module.rank, B.module.rank
    T = tensor_modules(A.module, B.module, flavor)
    C = A.mul_constant * B.mul_constant
    records = []
    for xmat, ymat in sample_pairs:
        x = [as_fraction(v) for v in xmat]
        y = [as_fraction(v) for v in ymat]
        prod = [Fraction(0)] * (TA * TB)
        for i1 in range(TA):
            for j1 in range(TB):
                c1 = x[i1 * TB + j1]
                if c1 == 0:
                    continue
                for i2 in range(TA):
                    for j2 in range(TB):
                        c2 = y[i2 * TB + j2]
                        if c2 == 0:
                            continue
                        pa = A.table[i1][i2]
                        pb = B.table[j1][j2]
                        for ka in range(TA):
                            if pa[ka] == 0:
                                continue
                            for kb in range(TB):
                                prod[ka * TB + kb] += c1 * c2 * pa[ka] * pb[kb]
        pn = vector_norm(T, prod).hi
        bound = C * vector_norm(T, x).hi * vector_norm(T, y).hi
        rec = SubmultiplicativityRecord((tuple(x), tuple(y)), pn, bound,
                                        pn <= bound)
        if not rec.holds:
            raise ViolationWitness("algebra submultiplicativity failed", rec)
        records.append(rec)
    return records


def map_tensor(f: ModuleMap, g: ModuleMap, flavor: str) -> ModuleMap:
    """f (x) g on the row-major tensor bases."""
    src = tensor_modules(f.source, g.source, flavor)
    tgt = tensor_modules(f.target, g.target, flavor)
    rows = []
    for i in range(f.target.rank):
        for k in range(g.target.rank):
            row = []
            for j in range(f.source.rank):
                for l in range(g.source.rank):
                    row.append(f.matrix[i][j] * g.matrix[k][l])
            rows.append(tuple(row))
    return ModuleMap(src, tgt, tuple(rows))
