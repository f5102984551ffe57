"""Weighted free modules over a Banach ring, maps, residue norms, strictness.

A weighted free module of rank n carries either the sum norm
``|(c_i)| = sum |c_i| w_i`` (Archimedean flavor) or the max norm
``|(c_i)| = max |c_i| w_i`` (non-Archimedean flavor, only over a
non-Archimedean base ring).  A module holds its weights twice: as
``Fraction``s, and as integers ``W_i`` over one denominator ``Dw``, on
which ``vector_norm`` and the window search of ``residue_norm`` compute.

Every class here is a frozen, slotted dataclass, so that a caller that
holds many small modules and maps pays for no per-instance ``__dict__``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import List, Sequence, Tuple

from . import linalg
from .errors import (
    DimensionMismatch,
    FlavorMismatch,
    UnsupportedRing,
    members,
)
from .scalars import (
    BanachRing,
    NormValue,
    abs_ints,
    as_fraction,
    rationals_archimedean,
    read_rational,
)

SUM = "sum"
MAX = "max"

# largest rank of a module read from JSON; a tensor element of two such
# factors with 64 terms takes about 0.2 s with integer entries and 1 s
# with 64-bit rational ones over Q_3 (README)
MAX_RANK = 64


@dataclass(frozen=True, slots=True)
class WeightedFreeModule:
    """The weights w_i, also held as integers: w_i = int_weights[i] /
    weight_den, with weight_den the lcm of their denominators."""

    ring: BanachRing
    weights: Tuple[Fraction, ...]
    flavor: str
    int_weights: Tuple[int, ...] = field(init=False, repr=False,
                                         compare=False)
    weight_den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = tuple(map(as_fraction, self.weights))
        object.__setattr__(self, "weights", weights)
        if any(w.numerator <= 0 for w in weights):
            raise ValueError("weights must be positive")
        Dw = math.lcm(*[w.denominator for w in weights])
        object.__setattr__(self, "int_weights", tuple(
            [w.numerator * (Dw // w.denominator) for w in weights]))
        object.__setattr__(self, "weight_den", Dw)
        if self.flavor not in (SUM, MAX):
            raise ValueError(f"unknown norm flavor {self.flavor}")
        if self.flavor == MAX and not self.ring.non_archimedean:
            raise FlavorMismatch("max flavor requires a non-Archimedean ring")

    @property
    def rank(self) -> int:
        return len(self.weights)

    @staticmethod
    def from_json(obj) -> "WeightedFreeModule":
        ring, weights, flavor = members(obj, "module", {
            "ring": dict, "weights": list, "flavor": str})
        if len(weights) > MAX_RANK:
            raise ValueError(f"module rank {len(weights)} is over the cap "
                             f"of {MAX_RANK}")
        return WeightedFreeModule(BanachRing.from_json(ring),
                                  tuple(map(read_rational, weights)), flavor)


def vector_norm(M: WeightedFreeModule, v: Sequence) -> NormValue:
    """|v|_w, exact, on integers: the entries of v are numerators N_i
    over the lcm L of their denominators, ``abs_ints`` gives
    |N_i / L| = A_i / den, and the norm is the sum or the max of
    A_i W_i over den Dw, with W_i / Dw the module's integer weights.
    One ``Fraction`` is built, for the result."""
    if len(v) != len(M.weights):
        raise DimensionMismatch(f"vector length {len(v)} != rank {M.rank}")
    xs = list(map(M.ring.check_element, v))
    L = math.lcm(*[x.denominator for x in xs])
    A, den = abs_ints(M.ring, [x.numerator * (L // x.denominator)
                               for x in xs], L)
    terms = map(mul, A, M.int_weights)
    top = sum(terms) if M.flavor == SUM else max(terms, default=0)
    return NormValue.exact(Fraction(top, den * M.weight_den))


@dataclass(frozen=True, slots=True)
class ModuleMap:
    """Matrix of ring scalars sending source generators to target vectors.

    matrix is row-major, shape rank(target) x rank(source); column j is the
    image of the j-th source generator.
    """

    source: WeightedFreeModule
    target: WeightedFreeModule
    matrix: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.source.ring != self.target.ring:
            raise DimensionMismatch("source and target must share the ring")
        rows = tuple(tuple(as_fraction(x) for x in row) for row in self.matrix)
        object.__setattr__(self, "matrix", rows)
        if len(rows) != self.target.rank:
            raise DimensionMismatch("matrix row count != target rank")
        if any(len(row) != self.source.rank for row in rows):
            raise DimensionMismatch("matrix column count != source rank")
        for row in rows:
            for x in row:
                self.source.ring.check_element(x)

    def column(self, j: int) -> List[Fraction]:
        return [row[j] for row in self.matrix]


def operator_norm(f: ModuleMap) -> NormValue:
    """Operator norm from the column ratios |f e_j| / w_j.

    Out of a sum-flavored source (a weighted coproduct) the norm is their
    max, and so it is into a max-flavored target, where the ultrametric
    inequality bounds |f x| by max_j |x_j| |f e_j|.  A max-flavored source
    into a sum-flavored target is only bracketed: the unit vectors give
    the max, the triangle inequality gives the sum, and both can be the
    norm (the identity on Z_triv^2 with weights 1 has norm 2)."""
    ratios = [vector_norm(f.target, f.column(j)).hi / w
              for j, w in enumerate(f.source.weights)]
    best = max(ratios, default=Fraction(0))
    if f.source.flavor == MAX and f.target.flavor == SUM:
        return NormValue(best, sum(ratios, Fraction(0)))
    return NormValue.exact(best)


@dataclass(frozen=True, slots=True)
class PresentedModule:
    """Cokernel of a map, with the residue norm: the ambient module modulo
    the image of relations."""

    ambient: WeightedFreeModule
    relations: ModuleMap

    def __post_init__(self):
        if self.relations.target != self.ambient:
            raise DimensionMismatch("relations must land in the ambient module")


def cokernel(f: ModuleMap) -> PresentedModule:
    return PresentedModule(ambient=f.target, relations=f)


def kernel_lattice_basis(f: ModuleMap) -> List[List[Fraction]]:
    """A Q-basis of ker(f), of a map over Z or Z_triv.  Each vector is
    saturated to a primitive integer vector, one at a time, so their span
    can be a proper sublattice of the integer vectors of ker(f): for
    (-2 -3 -1) it is (-3, 2, 0) and (-1, 0, 2), which miss (-1, 1, -1)."""
    return [[Fraction(x) for x in linalg.saturate_integer(v)]
            for v in linalg.kernel_basis(f.matrix, f.source.rank)]


# ---------------------------------------------------------------------------
# residue norms over lattices


def _relation_columns(M: PresentedModule) -> List[List[int]]:
    """The relation columns, as integer vectors."""
    return [[int(x) for x in col] for col in zip(*M.relations.matrix)]


def _relation_lattice(M: PresentedModule) -> List[List[int]]:
    return linalg.reduce_lattice_basis(
        linalg.hnf_column_basis(_relation_columns(M)))


# half-width of the coefficient window enumerated when no certified window
# fits the budget
FALLBACK_WINDOW = 10


def residue_norm(M: PresentedModule, v: Sequence) -> NormValue:
    """Quotient norm: the inf of |v + u|_w over the relation lattice L.

    Three regimes, by ring and size:

    - Z_triv up to ambient rank ``MAX_EXACT_TRIVIAL_RANK``: exact, by the
      zero-set search of ``_trivial_residue_norm``.  Above that rank the
      window search below runs with ``FALLBACK_WINDOW`` and returns
      ``[0, hi]``, since a trivial norm does not grow with the window.
    - Z with the sum flavor: the coefficient windows of
      ``_certified_windows`` provably hold the coset minimum, so the
      enumeration is exact whenever they hold at most 200,000 points.
    - Z over that budget: the +-``FALLBACK_WINDOW`` window is enumerated,
      and ``hi`` is its minimum but ``lo`` is 0.

    The window search runs on integers: v and the basis are integer
    vectors, each candidate v + sum k_j b_j is sized as the sum (or the
    max) of ``abs_ints`` times the module's integer weights, and one
    ``Fraction``, over ``weight_den``, is built for the result.
    """
    ring = M.ambient.ring
    if not ring.integral:
        raise UnsupportedRing("residue norms are certified on lattice rings only")
    v = [int(ring.check_element(x)) for x in v]
    if len(v) != M.ambient.rank:
        raise DimensionMismatch("class representative has wrong length")
    if ring.non_archimedean and M.ambient.rank <= MAX_EXACT_TRIVIAL_RANK:
        return _trivial_residue_norm(M, v)
    basis = _relation_lattice(M)
    if not basis:
        return vector_norm(M.ambient, v)

    windows = None if ring.non_archimedean else _certified_windows(M, basis, v)
    certified = windows is not None \
        and math.prod(2 * w + 1 for w in windows) <= 200_000
    if not certified:
        windows = (FALLBACK_WINDOW,) * len(basis)
    W, flavor = M.ambient.int_weights, M.ambient.flavor

    def size(x):
        terms = map(mul, abs_ints(ring, x, 1)[0], W)
        return sum(terms) if flavor == SUM else max(terms, default=0)

    rows = list(zip(*basis))
    best = size(v)
    for ks in itertools.product(*[range(-w, w + 1) for w in windows]):
        if not any(ks):
            continue
        val = size([x + sum(map(mul, ks, r)) for x, r in zip(v, rows)])
        if val < best:
            best = val
    if best == 0:
        return NormValue.zero()
    best = Fraction(best, M.ambient.weight_den)
    return NormValue(best if certified else Fraction(0), best)


# largest ambient rank of the exact Z_triv search, which tests up to
# 2^rank zero sets: the slowest measured residue took about 20 ms at
# rank 8 and about 70 ms at rank 10 (README)
MAX_EXACT_TRIVIAL_RANK = 8


def _trivial_residue_norm(M: PresentedModule, v: List[int]) -> NormValue:
    """Exact residue norm over Z_triv, by the zero set of a representative.

    |v + u|_w depends only on the set Z of coordinates where v + u
    vanishes: it is the sum (or the max) of the weights outside Z.  A set
    S lies inside the zero set of some representative exactly when -v_S
    lies in the lattice L_S spanned by the rows S of the relation
    columns, and the cost only falls as S grows.  So the norm is the
    least cost outside a set S with -v_S in L_S.  These sets are closed
    under subsets, so a depth-first search over the coordinates,
    heaviest first, prunes every extension of a set outside them, and
    every branch whose weights left out already cost at least the best
    found."""
    w = M.ambient.weights
    cols = _relation_columns(M)
    cost = sum if M.ambient.flavor == SUM \
        else (lambda ws: max(ws, default=Fraction(0)))
    order = sorted(range(M.ambient.rank), key=lambda i: -w[i])

    def reachable(S):
        basis = linalg.hnf_column_basis([[c[i] for i in S] for c in cols])
        return linalg.lattice_contains(basis, [-v[i] for i in S])

    best = cost([w[i] for i in order if v[i]])  # v itself

    def search(pos, S, out):
        nonlocal best
        out_cost = cost([w[i] for i in out])
        if out_cost >= best:
            return
        if pos == len(order):
            best = out_cost
            return
        i = order[pos]
        if reachable(S + [i]):
            search(pos + 1, S + [i], out)
        search(pos + 1, S, out + [i])

    search(0, [], [])
    return NormValue.exact(best)


def _certified_windows(M, basis, v):
    """Per-coordinate coefficient windows, over Z, outside which no coset
    representative can beat the zero candidate.

    A competing representative v + B k (the basis vectors are the
    columns of B, and a module over Z has the sum flavor) has norm at
    most |v|_w, so each entry of B k is at most 2|v|_w / w_min, and |k_j|
    at most that times the l1 norm of row j of the left inverse
    (B^T B)^-1 B^T.  One ``linalg.rref`` of the integer rows
    [B^T B | B^T] gives [I | (B^T B)^-1 B^T].  B^T B is invertible: each
    column from ``hnf_column_basis`` leads in a row of its own with
    zeros above, so they are independent, and ``reduce_lattice_basis``
    keeps them so, as it only adds integer multiples of one to another.
    """
    R, _ = linalg.rref([[sum(map(mul, b, c)) for c in basis] + b
                        for b in basis])
    bound = 2 * vector_norm(M.ambient, v).hi / min(M.ambient.weights)
    return tuple(int(sum(map(abs, row[len(basis):])) * bound) + 1
                 for row in R)


# ---------------------------------------------------------------------------
# strictness


@dataclass(frozen=True, slots=True)
class StrictWithConstants:
    c: Fraction
    C: Fraction


# bench/workloads.py still names it in isinstance checks; nothing returns it
@dataclass(frozen=True, slots=True)
class NotStrictWitness:
    vector: Tuple[Fraction, ...]


def check_strictness(f: ModuleMap) -> StrictWithConstants:
    """Closed-form constants with c |[x]| <= |f x| <= C |[x]| for every
    class [x] of the coimage: Z^n modulo the integer vectors of ker(f).

    C = ||f||, as |f x| = |f(x + k)| <= ||f|| |x + k| for kernel vectors k.
    A nonzero f x is an integer vector, so |f x| >= w'_min, the least
    target weight.  Over Z_triv no class has norm above |(1, ..., 1)|_w,
    so c = w'_min / |(1, ..., 1)|_w.  Over Z, with g a rational right
    inverse on the image (f g f = f), x - g f x lies in ker_Q, and
    rounding its coordinates in the integer vectors b_j of
    ``kernel_lattice_basis`` gives a kernel vector k with
    |x - k| <= ||g|| |f x| + mu, mu = 1/2 sum_j |b_j|_w.  So
    c = 1 / (||g|| + mu / w'_min).  The zero map gets (1, 1)."""
    ring = f.source.ring
    if not ring.integral:
        raise UnsupportedRing("strictness constants need Z or Z_triv")
    C = operator_norm(f).hi
    if C == 0:
        return StrictWithConstants(Fraction(1), Fraction(1))
    w_min = min(f.target.weights)
    if ring.non_archimedean:
        ones = vector_norm(f.source, [1] * f.source.rank).hi
        return StrictWithConstants(w_min / ones, C)
    # g sends e_i, for each row i of an independent set R of rows of f,
    # to a solution of f_R x = e_i, and the other generators to 0
    _, rows = linalg.rref(linalg.transpose(f.matrix))
    f_R = [f.matrix[i] for i in rows]
    source_Q = WeightedFreeModule(rationals_archimedean(), f.source.weights,
                                  SUM)
    g_norm = max(vector_norm(source_Q, linalg.solve(f_R, e)).hi
                 / f.target.weights[i]
                 for i, e in zip(rows, linalg.identity(len(rows))))
    mu = sum((vector_norm(f.source, b).hi for b in kernel_lattice_basis(f)),
             Fraction(0)) / 2
    return StrictWithConstants(1 / (g_norm + mu / w_min), C)

