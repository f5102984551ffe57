"""Weighted free modules over a Banach ring, maps, residue norms, strictness.

A weighted free module of rank n carries either the sum norm
``|(c_i)| = sum |c_i| w_i`` (Archimedean flavor) or the max norm
``|(c_i)| = max |c_i| w_i`` (non-Archimedean flavor, only over a
non-Archimedean base ring).  A module holds its weights twice: as
``Fraction``s, and as integers ``W_i`` over one denominator ``Dw``, on
which ``vector_norm`` and the two searches of ``residue_norm`` compute.

Every class here is a frozen, slotted dataclass, so that a caller that
holds many small modules and maps pays for no per-instance ``__dict__``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul
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
    over_lcm,
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
        W, Dw = over_lcm(weights)
        object.__setattr__(self, "int_weights", tuple(W))
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
    """|v|_w, exact, on integers: with v_i = N_i / L by ``over_lcm`` and
    |N_i / L| = A_i / den by ``abs_ints``, the norm is the sum or the max
    of A_i W_i over den Dw, for the module's integer weights W_i / Dw."""
    if len(v) != len(M.weights):
        raise DimensionMismatch(f"vector length {len(v)} != rank {M.rank}")
    A, den = abs_ints(M.ring, *over_lcm(list(map(M.ring.check_element, v))))
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


# ---------------------------------------------------------------------------
# residue norms over lattices


def _relation_columns(M: PresentedModule) -> List[List[int]]:
    """The relation columns, as integer vectors."""
    return [[int(x) for x in col] for col in zip(*M.relations.matrix)]


# search nodes a residue search visits before it stops: coefficients
# over Z, membership tests over Z_triv.  The most the Z search visited on
# classes that the certified windows it replaced held (at most 200,000
# points), 9,000 random classes for each bound on |v_i| (ambient rank
# 1-5, 1-3 relations with entries in -6..6, weights 1-3):
#     |v_i| <= 10: 3,261    |v_i| <= 100: 946    |v_i| <= 1,000: 1,462
# The zero-set tree over Z_triv makes at most 2^rank - 1 tests, so it
# ends within the budget up to rank 14.  Figures on 2 CPUs, Python 3.11.
NODE_BUDGET = 20_000


def residue_norm(M: PresentedModule, v: Sequence) -> NormValue:
    """Quotient norm: the inf of |v + u|_w over the relation lattice L.

    One search per ring, ``_pruned_residue_norm`` over Z and
    ``_trivial_residue_norm`` over Z_triv, each stopped after
    ``NODE_BUDGET`` nodes.  The best coset member a search has found is
    attained, so its norm hi is a sound upper bound: the result is
    ``[hi, hi]`` when the search ended and ``[0, hi]`` when it stopped.
    """
    ring = M.ambient.ring
    if not ring.integral:
        raise UnsupportedRing("residue norms are certified on lattice rings only")
    v = [int(ring.check_element(x)) for x in v]
    if len(v) != M.ambient.rank:
        raise DimensionMismatch("class representative has wrong length")
    search = _trivial_residue_norm if ring.non_archimedean \
        else _pruned_residue_norm
    best, ended = search(M, v)
    hi = Fraction(best, M.ambient.weight_den)
    return NormValue(hi if ended else Fraction(0), hi)


class _OverBudget(Exception):
    """A residue search went past ``NODE_BUDGET`` nodes."""


def _pruned_residue_norm(M: PresentedModule, v: List[int]):
    """(best, ended): the least sum of |x_i| W_i over x in v + L, for a
    module over Z with integer weights W and relation lattice L, by a
    depth-first search, or the least it found when it stopped after
    ``NODE_BUDGET`` visited coefficients.

    The coordinates are put heaviest first, and L gets the basis b_t of
    ``linalg.hnf_column_basis`` in that order.  Column t is zero above
    its lead row l_t, and the leads increase.  So rows before l_0 are
    fixed by v, and once k_0..k_t are fixed, so are the rows before
    l_(t+1): their cost is a lower bound for every completion, and a
    branch whose cost reaches the best found (at first |v|_w) is
    pruned (Fincke-Pohst).  Heaviest first makes each step at a lead
    row cost the most, and leaves the lightest rows to the last
    segment, which only the last level counts.  At level t the cost
    is convex in k_t.  Its real minimum is the weighted median of the
    breakpoints -x_i / b_i of the rows of the segment, weights
    |b_i| W_i; the median of their floors is its floor m, so the
    integer minimum is at m or m + 1.  From there the search walks
    down from m and up from m + 1, always to the cheaper side next,
    until both sides cost at least the best (Schnorr-Euchner).  At the
    last level every row is fixed, and only the minimum is visited."""
    W = M.ambient.int_weights
    order = sorted(range(len(v)), key=lambda i: -W[i])
    W, v = [W[i] for i in order], [v[i] for i in order]
    basis = linalg.hnf_column_basis([[c[i] for i in order]
                                     for c in _relation_columns(M)])
    best = sum(map(mul, map(abs, v), W))
    if not basis:
        return best, True
    leads = [next(i for i, x in enumerate(b) if x) for b in basis]
    levels = [(b, [(i, b[i], W[i]) for i in range(lead, end) if b[i]],
               [i for i in range(lead, end) if not b[i]])
              for b, lead, end in zip(basis, leads, leads[1:] + [len(v)])]
    last = len(basis) - 1
    nodes = 0

    def search(t, x, partial):
        nonlocal best, nodes
        b, moving, fixed = levels[t]
        for i in fixed:
            partial += abs(x[i]) * W[i]

        def cost(k):
            return partial + sum([abs(x[i] + k * bi) * wi
                                  for i, bi, wi in moving])

        floors = sorted([(-x[i] // bi, abs(bi) * wi) for i, bi, wi in moving])
        total, acc = sum([w for _, w in floors]), 0
        for m, w in floors:
            acc += 2 * w
            if acc >= total:
                break
        down, up = [m, cost(m)], [m + 1, cost(m + 1)]
        if t == last:
            best = min(best, down[1], up[1])
            return
        while True:
            side, step = (down, -1) if down[1] <= up[1] else (up, 1)
            k, c = side
            if c >= best:
                return
            # k, and the minimum of the next level when it is the last
            nodes += 1 + (t + 1 == last)
            if nodes > NODE_BUDGET:
                raise _OverBudget
            search(t + 1, [xi + k * bi for xi, bi in zip(x, b)], c)
            side[0] = k + step
            side[1] = cost(k + step)

    try:
        search(0, v, sum(map(mul, map(abs, v[:leads[0]]), W)))
    except _OverBudget:
        return best, False
    return best, True


def _trivial_residue_norm(M: PresentedModule, v: List[int]):
    """(best, ended): the residue norm over Z_triv times ``weight_den``,
    by the zero set of a representative, or the least cost found when
    the search stopped after ``NODE_BUDGET`` membership tests.

    |v + u|_w depends only on the set Z of coordinates where v + u
    vanishes: it is the sum (or the max) of the weights outside Z.  A set
    S lies inside such a zero set exactly when some u in L has
    u_S = -v_S, and the cost only falls as S grows.  These sets are
    closed under subsets, so a depth-first search over the coordinates,
    heaviest first, prunes every extension of a set outside them, and
    every branch whose weights left out already cost at least the best
    found.  Each set S carries columns K spanning the vectors of L zero
    on S, and t = -v - u, zero on S.  Adding i is one test:
    ``linalg.reduce_row`` leaves one column of K nonzero in row i, and
    S + i is reachable exactly when its entry there divides t_i."""
    W = M.ambient.int_weights
    join = add if M.ambient.flavor == SUM else max
    order = sorted(range(M.ambient.rank), key=lambda i: -W[i])
    tests = 0
    best = functools.reduce(join, [W[i] for i in order if v[i]], 0)  # |v|_w

    def search(pos, K, t, out):
        # out: the cost of the weights left out so far
        nonlocal best, tests
        if out >= best:
            return
        if pos == len(order):
            best = out
            return
        i = order[pos]
        tests += 1
        if tests > NODE_BUDGET:
            raise _OverBudget
        lead, rest = linalg.reduce_row(K, i)
        if lead is None:
            if not t[i]:
                search(pos + 1, rest, t, out)
        elif t[i] % lead[i] == 0:
            q = t[i] // lead[i]
            search(pos + 1, rest, [x - q * y for x, y in zip(t, lead)], out)
        search(pos + 1, K, t, join(out, W[i]))

    try:
        search(0, _relation_columns(M), [-x for x in v], 0)
    except _OverBudget:
        return best, False
    return best, True


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
    rounding its coordinates in b_j, the Q-basis of ker_Q from
    ``linalg.solve`` each scaled by ``over_lcm`` to a primitive integer
    vector, gives a kernel vector k with |x - k| <= ||g|| |f x| + mu,
    mu = 1/2 sum_j |b_j|_w.  So c = 1 / (||g|| + mu / w'_min).  The b_j
    can span a proper sublattice of the integer kernel: for (-2 -3 -1)
    they miss (-1, 1, -1).  The zero map gets (1, 1)."""
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
    # to a solution of f_R x = e_i, and the other generators to 0; f_R
    # has the row space, so the kernel, of f
    _, rows = linalg.rref(linalg.transpose(f.matrix))
    g, kernel = linalg.solve([f.matrix[i] for i in rows],
                             linalg.identity(len(rows)), f.source.rank)
    source_Q = WeightedFreeModule(rationals_archimedean(), f.source.weights,
                                  SUM)
    g_norm = max(vector_norm(source_Q, x).hi / f.target.weights[i]
                 for i, x in zip(rows, g))
    # over_lcm(b) is primitive: b is 1 at its free coordinate, where the
    # numerator is L, and the full power in L of a prime p of L divides
    # some entry's denominator, whose numerator p then misses
    mu = sum((vector_norm(f.source, over_lcm(b)[0]).hi for b in kernel),
             Fraction(0)) / 2
    return StrictWithConstants(1 / (g_norm + mu / w_min), C)
