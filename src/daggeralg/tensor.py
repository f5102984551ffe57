"""Projective tensor products of weighted free modules.

The tensor norm is an infimum over finite representations; here it is
bracketed by bounded enumeration (upper bound) and dual functionals
(lower bound), giving certified intervals at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import DimensionMismatch, UnsupportedRing, ViolationWitness
from .normed_core import (
    MAX,
    SUM,
    ModuleMap,
    WeightedFreeModule,
    operator_norm,
    vector_norm,
)
from .scalars import NormValue, abs_value, as_fraction, value_floor


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
        clean = []
        for m, n in self.terms:
            m = tuple(as_fraction(x) for x in m)
            n = tuple(as_fraction(x) for x in n)
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


def _dual_lower_bound_matrix(T, left: WeightedFreeModule,
                             right: WeightedFreeModule) -> Fraction:
    """max over unit dual functionals phi, psi of |(phi (x) psi)(T)|.

    Archimedean ring: extreme functionals are sign patterns times the
    weights.  Non-Archimedean ring (either norm flavor): the coordinate
    functional e_i^* has norm 1/w_i, so a * e_i^* is a contraction for any
    scalar with |a| <= w_i; the best such |a| lies in the value group.
    """
    wl, wr = left.weights, right.weights
    ring = left.ring
    if ring.non_archimedean:
        best = Fraction(0)
        for i in range(left.rank):
            for j in range(right.rank):
                if T[i][j] != 0:
                    cap = value_floor(ring, wl[i]) * value_floor(ring, wr[j])
                    val = abs_value(ring, T[i][j]) * cap
                    best = max(best, val)
        return best
    best = Fraction(0)
    for eps in itertools.product((1, -1), repeat=left.rank):
        for delta in itertools.product((1, -1), repeat=right.rank):
            s = Fraction(0)
            for i in range(left.rank):
                for j in range(right.rank):
                    s += T[i][j] * eps[i] * delta[j] * wl[i] * wr[j]
            best = max(best, abs(s))
    return best


def _enumerate_upper(x: TensorElement, flavor: str, coeff_bound: int,
                     term_bound: int) -> Fraction:
    """Branch-and-bound minimum representation cost over integer-coefficient
    representations with at most term_bound terms.

    Always includes the given representation and the canonical row/column
    decompositions, so the result is a sound upper bound even when the
    search space is truncated.
    """
    T = x.coefficient_matrix()
    rl, rr = x.left.rank, x.right.rank
    best = tensor_norm_upper(x, flavor)
    # canonical decompositions: by left basis rows and by right basis columns
    rows = TensorElement(
        x.left, x.right,
        tuple(
            (tuple(Fraction(int(i == k)) for k in range(rl)), tuple(T[i]))
            for i in range(rl)
            if any(T[i])
        ),
    )
    cols = TensorElement(
        x.left, x.right,
        tuple(
            (
                tuple(T[i][j] for i in range(rl)),
                tuple(Fraction(int(j == k)) for k in range(rr)),
            )
            for j in range(rr)
            if any(T[i][j] for i in range(rl))
        ),
    )
    best = min(best, tensor_norm_upper(rows, flavor), tensor_norm_upper(cols, flavor))
    if flavor == MAX or rl * rr > 4:
        # max-flavor term costs are not bounded below, so branch-and-bound
        # has no admissible pruning; the canonical bounds remain sound
        return best

    vec_range = [
        m
        for m in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=rl)
        if any(m)
    ]
    vec_range_r = [
        n
        for n in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=rr)
        if any(n)
    ]

    def term_cost(m, n):
        return vector_norm(x.left, m).hi * vector_norm(x.right, n).hi

    def residual_zero(R):
        return all(all(v == 0 for v in row) for row in R)

    best_holder = [best]

    def dfs(R, terms_left, cost_so_far):
        # any completion of the residual costs at least its dual bound
        if cost_so_far + _dual_lower_bound_matrix(R, x.left, x.right) >= \
                best_holder[0]:
            return
        if terms_left == 0:
            return
        for m in vec_range:
            for n in vec_range_r:
                new_cost = cost_so_far + term_cost(m, n)
                if new_cost >= best_holder[0]:
                    continue
                R2 = [
                    [R[i][j] - m[i] * n[j] for j in range(rr)] for i in range(rl)
                ]
                if residual_zero(R2):
                    best_holder[0] = new_cost
                else:
                    dfs(R2, terms_left - 1, new_cost)

    dfs([list(row) for row in T], term_bound, Fraction(0))
    return best_holder[0]


def tensor_norm_certified(x: TensorElement, flavor: str, coeff_bound: int = 10,
                          term_bound: int = 4) -> NormValue:
    if not (x.left.ring.integral or x.left.ring.non_archimedean):
        raise UnsupportedRing("certified tensor norms need a lattice-like ring")
    if not x.terms:
        return NormValue.zero()
    hi = _enumerate_upper(x, flavor, coeff_bound, term_bound)
    lo = _dual_lower_bound_matrix(x.coefficient_matrix(), x.left, x.right)
    lo = min(lo, hi)  # dual bound is sound, but guard against interval inversion
    return NormValue(lo, hi)


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
