"""Weighted free modules over a Banach ring, maps, residue norms, strictness.

A weighted free module of rank n carries either the sum norm
``|(c_i)| = sum |c_i| w_i`` (Archimedean flavor) or the max norm
``|(c_i)| = max |c_i| w_i`` (non-Archimedean flavor, only over a
non-Archimedean base ring).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .errors import (
    DimensionMismatch,
    FlavorMismatch,
    NotCokernelForm,
    UnsupportedRing,
    ZeroSampleElement,
    reads_json,
)
from .scalars import (
    BanachRing,
    NormValue,
    abs_value,
    as_fraction,
    integers_archimedean,
)

SUM = "sum"
MAX = "max"


@dataclass(frozen=True)
class WeightedFreeModule:
    ring: BanachRing
    weights: Tuple[Fraction, ...]
    flavor: str

    def __post_init__(self):
        object.__setattr__(
            self, "weights", tuple(as_fraction(w) for w in self.weights)
        )
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if self.flavor not in (SUM, MAX):
            raise ValueError(f"unknown norm flavor {self.flavor}")
        if self.flavor == MAX and not self.ring.non_archimedean:
            raise FlavorMismatch("max flavor requires a non-Archimedean ring")

    @property
    def rank(self) -> int:
        return len(self.weights)

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "weights": [str(w) for w in self.weights],
            "flavor": self.flavor,
        }

    @staticmethod
    @reads_json("module")
    def from_json(obj) -> "WeightedFreeModule":
        return WeightedFreeModule(
            BanachRing.from_json(obj["ring"]),
            tuple(Fraction(w) for w in obj["weights"]),
            obj["flavor"],
        )


def default_flavor(ring: BanachRing) -> str:
    return MAX if ring.non_archimedean else SUM


def vector_norm(M: WeightedFreeModule, v: Sequence) -> NormValue:
    if len(v) != M.rank:
        raise DimensionMismatch(f"vector length {len(v)} != rank {M.rank}")
    terms = [abs_value(M.ring, x) * w for x, w in zip(v, M.weights)]
    return NormValue.exact(sum(terms, Fraction(0)) if M.flavor == SUM
                           else max(terms, default=Fraction(0)))


@dataclass(frozen=True)
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

    def apply(self, v: Sequence) -> List[Fraction]:
        v = [as_fraction(x) for x in v]
        if len(v) != self.source.rank:
            raise DimensionMismatch("vector length != source rank")
        return linalg.mat_vec(self.matrix, v)

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other."""
        if other.target != self.source:
            raise DimensionMismatch("composition shape mismatch")
        prod = linalg.mat_mul([list(r) for r in self.matrix],
                              [list(r) for r in other.matrix])
        return ModuleMap(other.source, self.target,
                         tuple(tuple(row) for row in prod))


def identity_map(M: WeightedFreeModule) -> ModuleMap:
    mat = tuple(
        tuple(Fraction(int(i == j)) for j in range(M.rank)) for i in range(M.rank)
    )
    return ModuleMap(M, M, mat)


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


@dataclass(frozen=True)
class PresentedModule:
    """Kernel or cokernel of a map, with the induced norm.

    Exactly one of relations (module = coker, residue norm) or restriction
    (module = ker, restricted norm) is set.
    """

    ambient: WeightedFreeModule
    relations: Optional[ModuleMap] = None
    restriction: Optional[ModuleMap] = None

    def __post_init__(self):
        if (self.relations is None) == (self.restriction is None):
            raise ValueError("exactly one of relations/restriction required")
        if self.relations is not None and self.relations.target != self.ambient:
            raise DimensionMismatch("relations must land in the ambient module")
        if self.restriction is not None and self.restriction.source != self.ambient:
            raise DimensionMismatch("restriction must leave the ambient module")

    @property
    def is_cokernel(self) -> bool:
        return self.relations is not None


def kernel(f: ModuleMap) -> PresentedModule:
    return PresentedModule(ambient=f.source, restriction=f)


def cokernel(f: ModuleMap) -> PresentedModule:
    return PresentedModule(ambient=f.target, relations=f)


def kernel_lattice_basis(f: ModuleMap) -> List[List[Fraction]]:
    """Basis of ker(f): over Q for field kinds, saturated to primitive
    integer vectors for integer kinds."""
    A = [list(row) for row in f.matrix]
    basis = linalg.kernel_basis(A, f.source.rank)
    if f.source.ring.integral:
        return [[Fraction(x) for x in linalg.saturate_integer(v)] for v in basis]
    return basis


def zero_module(ring: BanachRing, flavor: Optional[str] = None) -> WeightedFreeModule:
    return WeightedFreeModule(ring, (), flavor or default_flavor(ring))


def direct_sum(Ms: Sequence[WeightedFreeModule], flavor: str,
               ring: Optional[BanachRing] = None) -> WeightedFreeModule:
    if not Ms:
        if ring is None:
            raise ValueError("ring required for an empty direct sum")
        return zero_module(ring, flavor)
    ring = Ms[0].ring
    if any(M.ring != ring for M in Ms):
        raise FlavorMismatch("direct sum factors must share the ring")
    weights = tuple(w for M in Ms for w in M.weights)
    return WeightedFreeModule(ring, weights, flavor)


# ---------------------------------------------------------------------------
# residue norms over lattices


def _relation_lattice(M: PresentedModule) -> List[List[int]]:
    cols = [
        [int(x) for x in M.relations.column(j)]
        for j in range(M.relations.source.rank)
    ]
    return linalg.reduce_lattice_basis(linalg.hnf_column_basis(cols))


def residue_norm(M: PresentedModule, v: Sequence, search_bound: int = 10) -> NormValue:
    """Quotient norm inf over representatives v + (relation lattice).

    hi is the minimum over the enumerated window; lo equals hi when the
    enumeration provably exhausts the coset minimum (growth argument via a
    rational left inverse of the relation matrix), else 0.
    """
    if not M.is_cokernel:
        raise NotCokernelForm("residue_norm needs a cokernel presentation")
    ring = M.ambient.ring
    if not ring.integral:
        raise UnsupportedRing("residue norms are certified on lattice rings only")
    v = [as_fraction(x) for x in v]
    if len(v) != M.ambient.rank:
        raise DimensionMismatch("class representative has wrong length")
    basis = _relation_lattice(M)
    if not basis:
        return vector_norm(M.ambient, v)

    s = len(basis)
    windows = _certified_windows(M, basis, v)
    budget = 200_000
    certified = windows is not None
    if certified:
        size = 1
        for w in windows:
            size *= 2 * w + 1
        certified = size <= budget
    if not certified:
        windows = (search_bound,) * s
    best = vector_norm(M.ambient, v).hi
    ranges = [range(-w, w + 1) for w in windows]
    for ks in itertools.product(*ranges):
        if all(k == 0 for k in ks):
            continue
        cand = list(v)
        for k, b in zip(ks, basis):
            for i in range(M.ambient.rank):
                cand[i] += k * b[i]
        val = vector_norm(M.ambient, cand).hi
        if val < best:
            best = val
    if best == 0:
        return NormValue.zero()
    return NormValue(best if certified else Fraction(0), best)


def _certified_windows(M, basis, v):
    """Per-coordinate coefficient windows outside which no coset
    representative can beat the zero candidate.

    A competing representative v + A k has sum-norm at most |v|_w, so
    |A k|_w <= 2|v|_w and each |k_j| is bounded through a rational left
    inverse of the basis matrix.  Only the Archimedean sum norm over the
    integers grows with the coefficients; the trivial-valuation max norm
    is bounded, so no finite window is conclusive there (returns None).
    """
    if M.ambient.ring != integers_archimedean() or M.ambient.flavor != SUM:
        return None
    n = M.ambient.rank
    A = [[Fraction(basis[j][i]) for j in range(len(basis))] for i in range(n)]
    # left inverse of the basis matrix (columns independent by construction)
    AtA = linalg.mat_mul(linalg.transpose(A), A)
    inv_rows = []
    for e in linalg.identity(len(basis)):
        x = linalg.solve(AtA, e)
        if x is None:
            return None
        inv_rows.append(x)
    left_inv = linalg.mat_mul(linalg.transpose(inv_rows), linalg.transpose(A))
    w_min = min(M.ambient.weights)
    v_norm = vector_norm(M.ambient, v).hi
    windows = []
    for row in left_inv:
        C = sum(abs(x) for x in row)
        windows.append(int(C * 2 * v_norm / w_min) + 1)
    return tuple(windows)


def residue_norm_element(M, v, search_bound: int = 10) -> NormValue:
    """Norm of an element of a free or presented module, uniformly."""
    if isinstance(M, WeightedFreeModule):
        return vector_norm(M, v)
    if M.is_cokernel:
        return residue_norm(M, v, search_bound)
    return vector_norm(M.ambient, v)


# ---------------------------------------------------------------------------
# strictness


@dataclass(frozen=True)
class StrictWithConstants:
    c: Fraction
    C: Fraction


@dataclass(frozen=True)
class NotStrictWitness:
    vector: Tuple[Fraction, ...]


@dataclass(frozen=True)
class Inconclusive:
    reason: str


def check_strictness(f: ModuleMap, search_bound: int = 3):
    """Search-bounded comparison of coimage (residue) norm and image norm.

    Returns StrictWithConstants(c, C) with c*coim <= image <= C*coim on all
    enumerated nonzero classes, a NotStrictWitness, or Inconclusive.
    """
    ring = f.source.ring
    if not ring.integral:
        return Inconclusive("strictness search implemented over lattice rings")
    ker_basis = kernel_lattice_basis(f)
    if ker_basis:
        ker_module = WeightedFreeModule(
            ring, tuple(Fraction(1) for _ in ker_basis), f.source.flavor
        )
        ker_cols = tuple(
            tuple(ker_basis[j][i] for j in range(len(ker_basis)))
            for i in range(f.source.rank)
        )
        coim = cokernel(ModuleMap(ker_module, f.source, ker_cols))
    else:
        coim = None

    lo_ratio = None
    hi_ratio = None
    n = f.source.rank
    if n == 0:
        return StrictWithConstants(Fraction(1), Fraction(1))
    for xs in itertools.product(range(-search_bound, search_bound + 1), repeat=n):
        if all(x == 0 for x in xs):
            continue
        image_norm = vector_norm(f.target, f.apply(xs)).hi
        if coim is None:
            coim_norm = vector_norm(f.source, xs).hi
        else:
            coim_norm = residue_norm(coim, xs, search_bound + 2).hi
        if coim_norm == 0:
            continue  # class of zero in the coimage
        ratio = image_norm / coim_norm
        lo_ratio = ratio if lo_ratio is None else min(lo_ratio, ratio)
        hi_ratio = ratio if hi_ratio is None else max(hi_ratio, ratio)
    if lo_ratio is None:
        # zero map: coimage is the zero module
        return StrictWithConstants(Fraction(1), Fraction(1))
    if lo_ratio == 0:
        witness = next(
            xs
            for xs in itertools.product(
                range(-search_bound, search_bound + 1), repeat=n
            )
            if any(xs)
            and vector_norm(f.target, f.apply(xs)).hi == 0
        )
        return NotStrictWitness(tuple(Fraction(x) for x in witness))
    return StrictWithConstants(lo_ratio, hi_ratio)


# ---------------------------------------------------------------------------
# standard projectives


def standard_projective(M, sample: Sequence[Sequence], search_bound: int = 10):
    """Finite-sample sub-coproduct of the canonical projective cover.

    Given elements m of M, builds the weighted free module with weights
    |m| and the evaluation map kappa(c) = sum c_m * m, which is always a
    contraction.
    """
    ambient = M if isinstance(M, WeightedFreeModule) else M.ambient
    ring = ambient.ring
    flavor = ambient.flavor
    weights = []
    cols = []
    for m in sample:
        nv = residue_norm_element(M, m, search_bound)
        if nv.hi == 0:
            raise ZeroSampleElement(f"sample element {m} has norm zero")
        weights.append(nv.hi)
        cols.append([as_fraction(x) for x in m])
    P = WeightedFreeModule(ring, tuple(weights), flavor)
    if not sample:
        zero = zero_module(ring, flavor)
        return zero, ModuleMap(zero, ambient,
                               tuple(() for _ in range(ambient.rank)))
    mat = tuple(
        tuple(cols[j][i] for j in range(len(cols))) for i in range(ambient.rank)
    )
    return P, ModuleMap(P, ambient, mat)
