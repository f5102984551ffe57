import itertools
import math
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from daggeralg import linalg, normed_core
from daggeralg.errors import (
    DimensionMismatch,
    FlavorMismatch,
    NonElement,
    UnsupportedRing,
)
from daggeralg.normed_core import (
    MAX,
    SUM,
    ModuleMap,
    StrictWithConstants,
    WeightedFreeModule,
    check_strictness,
    cokernel,
    operator_norm,
    residue_norm,
    vector_norm,
)
from daggeralg.scalars import (
    NormValue,
    abs_value,
    integers_archimedean,
    integers_trivial,
    rationals_archimedean,
    rationals_padic,
)
from intervals import add, join, scale
from loops import (
    check_strictness_loop,
    operator_norm_loop,
    residue_window_loop,
    vector_norm_loop,
    windows_loop,
)

Z = integers_archimedean()
ZT = integers_trivial()
Q2 = rationals_padic(2)
Q3 = rationals_padic(3)
QA = rationals_archimedean()


def zmod(*weights, flavor=SUM):
    return WeightedFreeModule(Z, tuple(Fraction(w) for w in weights), flavor)


def identity(M):
    return ModuleMap(M, M, tuple(
        tuple(Fraction(int(i == j)) for j in range(M.rank))
        for i in range(M.rank)))


def column(f, j):
    return [row[j] for row in f.matrix]


def apply(f, x):
    return [sum((a * b for a, b in zip(row, x)), Fraction(0))
            for row in f.matrix]


RINGS = (Z, ZT, Q2, QA)
FLAVOR_PAIRS = [(SUM, SUM), (SUM, MAX), (MAX, SUM), (MAX, MAX)]


def scalars_of(ring):
    if ring.integral:
        return st.integers(-3, 3).map(Fraction)
    return st.fractions(-3, 3, max_denominator=4)


@st.composite
def modules(draw, ring, flavor=None):
    if flavor is None:
        flavor = draw(st.sampled_from((SUM, MAX) if ring.non_archimedean
                                      else (SUM,)))
    rank = draw(st.integers(1, 3))
    weights = draw(st.lists(st.fractions(Fraction(1, 4), 4, max_denominator=4),
                            min_size=rank, max_size=rank))
    return WeightedFreeModule(ring, tuple(weights), flavor)


@st.composite
def module_maps(draw, flavors=(None, None)):
    rings = RINGS if MAX not in flavors else (ZT, Q2)
    ring = draw(st.sampled_from(rings))
    src, tgt = (draw(modules(ring, flavor)) for flavor in flavors)
    matrix = draw(st.lists(
        st.lists(scalars_of(ring), min_size=src.rank, max_size=src.rank)
        .map(tuple), min_size=tgt.rank, max_size=tgt.rank))
    return ModuleMap(src, tgt, tuple(matrix))


# reference kernels written with NormValue folds, one interval per scalar


def reference_abs(ring, x):
    x = ring.check_element(x)
    if x == 0:
        return NormValue.exact(0)
    if not ring.non_archimedean:
        return NormValue.exact(abs(x))
    if ring.integral:
        return NormValue.exact(1)
    # v_p(x), one factor p at a time
    v, p = 0, ring.p
    while x.numerator % p == 0:
        x, v = x / p, v + 1
    while x.denominator % p == 0:
        x, v = x * p, v - 1
    return NormValue.exact(Fraction(p) ** -v)


def reference_vector_norm(M, v):
    out = NormValue.exact(0)
    for x, w in zip(v, M.weights):
        term = scale(reference_abs(M.ring, x), w)
        out = add(out, term) if M.flavor == SUM else join(out, term)
    return out


def reference_column_norm(f):
    best = NormValue.exact(0)
    for j in range(f.source.rank):
        col = reference_vector_norm(f.target, column(f, j))
        best = join(best, scale(col, 1 / f.source.weights[j]))
    return best


class TestVectorNorm:
    def test_sum_flavor(self):
        assert vector_norm(zmod(1, 1), (3, -2)) == NormValue.exact(5)

    def test_max_flavor_padic(self):
        M = WeightedFreeModule(Q2, (Fraction(1), Fraction(1)), MAX)
        assert vector_norm(M, (2, 1)) == NormValue.exact(1)

    def test_zero_vector(self):
        assert vector_norm(zmod(2, 3), (0, 0)) == NormValue.exact(0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            vector_norm(zmod(1), (1, 2))

    def test_max_requires_non_archimedean(self):
        with pytest.raises(FlavorMismatch):
            WeightedFreeModule(Z, (Fraction(1),), MAX)


def _two_three(a, i, j):
    return a * 2**i * 3**j


# integers up to 64 bits, and ones whose 2- and 3-adic valuations reach 12
_ints = st.one_of(st.integers(-2**64, 2**64),
                  st.builds(_two_three, st.integers(-2**40, 2**40),
                            st.integers(0, 12), st.integers(0, 12)))
_positive = st.one_of(st.integers(1, 2**64),
                      st.builds(_two_three, st.integers(1, 2**40),
                                st.integers(0, 12), st.integers(0, 12)))
_rationals = st.builds(Fraction, _ints, _positive)


@st.composite
def vectors_in_modules(draw):
    ring = draw(st.sampled_from((Z, ZT, QA, Q2, Q3)))
    flavor = draw(st.sampled_from((SUM, MAX) if ring.non_archimedean
                                  else (SUM,)))
    rank = draw(st.integers(0, 5))
    weights = draw(st.lists(st.builds(Fraction, _positive, _positive),
                            min_size=rank, max_size=rank))
    entries = st.builds(Fraction, _ints) if ring.integral else _rationals
    v = draw(st.lists(entries, min_size=rank, max_size=rank))
    return WeightedFreeModule(ring, tuple(weights), flavor), v


class TestVectorNormKernel:
    """The integer kernel of ``vector_norm`` against the ``Fraction``
    loop it replaced."""

    @given(vectors_in_modules())
    @settings(max_examples=400, deadline=None)
    def test_matches_fraction_loop(self, case):
        M, v = case
        assert vector_norm(M, v) == NormValue.exact(vector_norm_loop(M, v))

    @given(st.sampled_from((Z, ZT)), st.lists(st.builds(Fraction, _ints),
                                              max_size=4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_non_integer_rejected_over_lattices(self, ring, v, data):
        x = data.draw(_rationals.filter(lambda x: x.denominator != 1))
        v.insert(data.draw(st.integers(0, len(v))), x)
        M = WeightedFreeModule(ring, (Fraction(1),) * len(v), SUM)
        with pytest.raises(NonElement):
            vector_norm(M, v)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(identity(zmod(2, 3))) == NormValue.exact(1)

    def test_mixed_flavor_row(self):
        src = WeightedFreeModule(Q2, (Fraction(1), Fraction(1)), SUM)
        tgt = WeightedFreeModule(Q2, (Fraction(1),), MAX)
        f = ModuleMap(src, tgt, ((Fraction(1), Fraction(1)),))
        assert operator_norm(f) == NormValue.exact(1)

    def test_weight_rescaling(self):
        f = ModuleMap(zmod(2), zmod(1), ((Fraction(6),),))
        assert operator_norm(f) == NormValue.exact(3)

    def test_submultiplicative_on_random(self):
        rng = random.Random(11)
        for _ in range(50):
            a, b, c = (rng.randint(1, 3) for _ in range(3))
            M1, M2, M3 = zmod(*[rng.randint(1, 5) for _ in range(a)]), \
                zmod(*[rng.randint(1, 5) for _ in range(b)]), \
                zmod(*[rng.randint(1, 5) for _ in range(c)])
            f = ModuleMap(M1, M2, tuple(
                tuple(Fraction(rng.randint(-4, 4)) for _ in range(a))
                for _ in range(b)))
            g = ModuleMap(M2, M3, tuple(
                tuple(Fraction(rng.randint(-4, 4)) for _ in range(b))
                for _ in range(c)))
            gf = ModuleMap(M1, M3, tuple(
                tuple(sum(g.matrix[k][i] * f.matrix[i][j] for i in range(b))
                      for j in range(a)) for k in range(c)))
            assert operator_norm(gf).hi <= \
                operator_norm(g).hi * operator_norm(f).hi

    def test_max_source_into_sum_target(self):
        # the identity on Z_triv^2 with weights 1 sends (1, 1), of max
        # norm 1, to a vector of sum norm 2
        src = WeightedFreeModule(ZT, (Fraction(1), Fraction(1)), MAX)
        tgt = WeightedFreeModule(ZT, (Fraction(1), Fraction(1)), SUM)
        f = ModuleMap(src, tgt, ((Fraction(1), Fraction(0)),
                                 (Fraction(0), Fraction(1))))
        assert operator_norm(f) == NormValue(Fraction(1), Fraction(2))
        assert vector_norm(tgt, apply(f, (1, 1))).hi == 2

    @pytest.mark.parametrize("flavors", FLAVOR_PAIRS,
                             ids=lambda pair: "-".join(pair))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_box_oracle(self, flavors, data):
        """lo <= max |f x| / |x| over a small integer box <= hi; the box
        holds the unit vectors, which attain lo."""
        f = data.draw(module_maps(flavors))
        best = Fraction(0)
        for x in itertools.product(range(-2, 3), repeat=f.source.rank):
            if any(x):
                ratio = (vector_norm(f.target, apply(f, x)).hi
                         / vector_norm(f.source, x).hi)
                best = max(best, ratio)
        nv = operator_norm(f)
        assert nv.lo <= best
        assert best <= nv.hi


class TestNormKernels:
    """Norms computed on bare rationals equal the NormValue folds."""

    @given(st.sampled_from(RINGS).flatmap(
        lambda ring: st.tuples(st.just(ring), scalars_of(ring))))
    @settings(max_examples=150, deadline=None)
    def test_abs_value(self, ring_and_x):
        ring, x = ring_and_x
        a = abs_value(ring, x)
        assert type(a) is Fraction
        assert NormValue.exact(a) == reference_abs(ring, x)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_vector_norm(self, data):
        M = data.draw(st.sampled_from(RINGS).flatmap(modules))
        v = data.draw(st.lists(scalars_of(M.ring), min_size=M.rank,
                               max_size=M.rank))
        assert vector_norm(M, v) == reference_vector_norm(M, v)

    @given(module_maps())
    @settings(max_examples=150, deadline=None)
    def test_operator_norm(self, f):
        nv, ref = operator_norm(f), reference_column_norm(f)
        assert nv.lo == ref.lo
        if f.source.flavor == MAX and f.target.flavor == SUM:
            assert nv.hi == sum(
                vector_norm(f.target, column(f, j)).hi / w
                for j, w in enumerate(f.source.weights))
        else:
            assert nv.hi == ref.hi


class TestResidueNorm:
    def ambient(self):
        return zmod(1)

    def coker2(self):
        rel = ModuleMap(zmod(1), self.ambient(), ((Fraction(2),),))
        return cokernel(rel)

    def test_odd_coset(self):
        assert residue_norm(self.coker2(), (1,)) == NormValue.exact(1)

    def test_enumerated_minimum(self):
        assert residue_norm(self.coker2(), (3,)) == NormValue.exact(1)

    def test_zero_class(self):
        assert residue_norm(self.coker2(), (0,)) == NormValue.exact(0)
        assert residue_norm(self.coker2(), (4,)) == NormValue.exact(0)

    def test_empty_relation_lattice(self):
        # no relations, or only zero ones: the residue norm is the norm
        no_rel = ModuleMap(WeightedFreeModule(Z, (), SUM), zmod(2), ((),))
        zero_rel = ModuleMap(zmod(1), zmod(2), ((Fraction(0),),))
        for rel in (no_rel, zero_rel):
            assert residue_norm(cokernel(rel), (3,)) == NormValue.exact(6)

    def test_upper_bound_soundness(self):
        rng = random.Random(5)
        amb = zmod(1, 1, 1)
        for _ in range(30):
            s = rng.randint(1, 3)
            rel = ModuleMap(
                zmod(*[1] * s), amb,
                tuple(
                    tuple(Fraction(rng.randint(-6, 6)) for _ in range(s))
                    for _ in range(3)
                ),
            )
            v = tuple(Fraction(rng.randint(-6, 6)) for _ in range(3))
            assert residue_norm(cokernel(rel), v).hi <= vector_norm(amb, v).hi


def cokernel_of_rows(ring, weights, flavor, rows, s):
    """The cokernel of the relation columns ``rows`` (one row per ambient
    coordinate, s entries each), with unit relation weights."""
    return cokernel(ModuleMap(
        WeightedFreeModule(ring, (Fraction(1),) * s, SUM),
        WeightedFreeModule(ring, tuple(map(Fraction, weights)), flavor),
        tuple(tuple(map(Fraction, row)) for row in rows)))


def hnf_basis(M):
    """The Hermite basis of the relation lattice of M."""
    return linalg.hnf_column_basis(normed_core._relation_columns(M))


def window_points(M, v):
    """The number of points in the certified windows of a class over Z."""
    return math.prod(2 * w + 1 for w in windows_loop(M, hnf_basis(M), v))


def coset_hi(M, v, reach=2):
    """The least |v + sum_j k_j b_j|_w over |k_j| <= reach, b_j the
    Hermite basis: the norm of a coset member, so an upper bound on the
    residue norm."""
    basis = hnf_basis(M)
    return min(vector_norm(M.ambient, [x + sum(k * b for k, b in zip(ks, r))
                                       for x, r in zip(v, zip(*basis))]).hi
               for ks in itertools.product(range(-reach, reach + 1),
                                           repeat=len(basis)))


@st.composite
def residue_cases(draw, ring, ranks, flavors, entries):
    """A cokernel of 1-2 relations with entries in -6..6 over ``ring``,
    weights 1-3, a flavor from ``flavors`` and a class drawn from
    ``entries``."""
    n = draw(st.sampled_from(ranks))
    s = draw(st.integers(1, 2))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=s,
                                  max_size=s), min_size=n, max_size=n))
    v = draw(st.lists(entries, min_size=n, max_size=n))
    M = cokernel_of_rows(ring, weights, draw(st.sampled_from(flavors)),
                         rows, s)
    return M, v


# dependent relation columns: the third is the sum of the first two
DEPENDENT = (cokernel_of_rows(Z, (1, 2, 3), SUM,
                              ((2, 1, 3), (-1, 4, 3), (5, 0, 5)), 3),
             [7, -3, 10])
# the relation lattice has rank 2 in Z^3, so the rows after the last lead
# enter no level's bound, and the search reaches ``NODE_BUDGET``
RANK_DEFICIENT = (cokernel_of_rows(Z, (1, 1, 2), SUM,
                                   ((1, 1), (1, -2), (-5, -4)), 2),
                  [-785698, 572180, -281441])


# four relations past the budget: a stopped search costs its budget,
# whatever the relation count
FOUR_RELATIONS = (cokernel_of_rows(
    Z, (3, 2, 2, 1, 1, 2), SUM,
    ((-3, -2, -5, 5), (0, 1, -4, -5), (-5, -6, 0, 2), (-2, 6, 6, -6),
     (-3, 2, 2, -1), (-2, 6, -4, -5)), 4),
    [-451135, -550370, 977529, 945057, -946230, 738371])

# past the budget, and a budget of 2 * 10**6 ends in 0.07 s
CAPPED = (cokernel_of_rows(Z, (1, 2, 3), SUM, ((-2, -4), (0, 4), (4, -6)), 2),
          [-68700, 231576, -745223])


class TestResidueWindowLoop:
    """``residue_norm`` over Z against the ``Fraction`` window search it
    replaced, and its budget past the windows that search certified."""

    @given(residue_cases(Z, range(1, 5), (SUM,), st.integers(-4, 4)))
    @example(DEPENDENT)
    @settings(max_examples=150, deadline=None)
    def test_certified_windows(self, case):
        M, v = case
        assume(hnf_basis(M) and window_points(M, v) <= 20_000)
        nv = residue_norm(M, v)
        assert nv == residue_window_loop(M, v) and nv.lo == nv.hi

    def test_certified_past_the_oracle_window(self):
        # certified by 152,079 window points, on which
        # ``residue_window_loop`` takes seconds and gives [323, 323]; a
        # search that starts each level at the lead-row rounding, not at
        # the segment minimum, visits more than 20,000 coefficients here
        M = cokernel_of_rows(Z, (1, 2, 2, 3, 2), SUM,
                             ((-1, 0), (3, 2), (-1, -4), (-6, 1), (2, 3)), 2)
        v = [52, 94, -5, 5, -35]
        assert window_points(M, v) <= 200_000
        assert residue_norm(M, v) == NormValue.exact(323)

    @given(residue_cases(Z, range(2, 5), (SUM,),
                         st.integers(-10**6, 10**6)))
    @example(RANK_DEFICIENT)
    @settings(max_examples=60, deadline=None)
    def test_fallback_window(self, case):
        # past the certified windows the search is exact when it ends
        # within its budget, and else returns the best coset member it
        # found as hi
        M, v = case
        assume(hnf_basis(M) and window_points(M, v) > 200_000)
        nv = residue_norm(M, v)
        if nv.lo == nv.hi:
            assert nv.hi <= coset_hi(M, v)
        else:
            assert nv.lo == 0 and nv.hi <= vector_norm(M.ambient, v).hi

    def test_over_the_node_budget(self):
        # the same search with the budget raised to 10**7 ends at exactly
        # [805139, 805139], in 5.1 s (2 CPUs, Python 3.11)
        assert residue_norm(*RANK_DEFICIENT) == NormValue(0, 805139)

    def test_four_relations_over_the_node_budget(self):
        M, v = FOUR_RELATIONS
        assert residue_norm(M, v) == NormValue(0, 4346783)

    def test_capped_hi_bounds_the_norm(self, monkeypatch):
        M, v = CAPPED
        capped = residue_norm(M, v)
        monkeypatch.setattr(normed_core, "NODE_BUDGET", 2 * 10**6)
        exact = residue_norm(M, v)
        assert capped.lo == 0 and exact.lo == exact.hi <= capped.hi


def search_nodes(M, v):
    """``residue_norm(M, v)`` over Z and the nodes its search visits: the
    coefficient fixed by each call of its nested ``search`` below the
    root, and the minimum each of them takes on the last level."""
    search, = [c for c in normed_core._pruned_residue_norm.__code__.co_consts
               if getattr(c, "co_name", None) == "search"]
    last = len(hnf_basis(M)) - 1
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code is search:
            t = frame.f_locals["t"]
            nodes += (t > 0) + (t == last)

    sys.setprofile(profile)
    try:
        nv = residue_norm(M, v)
    finally:
        sys.setprofile(None)
    return nv, nodes


def wide_case(ring, rank, s, seed):
    """A seeded class of rank ``rank`` and unit weights, modulo s
    relations with entries in -4..4."""
    rng = random.Random(seed)
    rows = [[rng.randint(-4, 4) for _ in range(s)] for _ in range(rank)]
    M = cokernel_of_rows(ring, [1] * rank, SUM, rows, s)
    return M, [rng.randint(-5, 5) for _ in range(rank)]


class TestNodeBudget:
    """Both searches stop after ``NODE_BUDGET`` nodes, whatever the rank
    and the relation count, with a sound hi."""

    # odd, so that on two levels, a coefficient and a minimum per step,
    # a last minimum taken past the budget would show
    BUDGET = 49

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(normed_core, "NODE_BUDGET", self.BUDGET)

    def assert_capped(self, M, v, nv):
        assert nv.lo == 0 < nv.hi <= vector_norm(M.ambient, v).hi

    def test_z_search(self):
        cases = [RANK_DEFICIENT, FOUR_RELATIONS,
                 wide_case(Z, 64, 16, 1)]
        for M, v in cases:
            nv, nodes = search_nodes(M, v)
            assert nodes <= self.BUDGET
            self.assert_capped(M, v, nv)

    def test_trivial_search(self):
        cases = [wide_case(ZT, rank, s, rank)
                 for rank, s in ((9, 4), (16, 2), (64, 4), (64, 16))]
        for M, v in cases:
            with mock.patch.object(linalg, "reduce_row",
                                   wraps=linalg.reduce_row) as tests:
                nv = residue_norm(M, v)
            assert tests.call_count <= self.BUDGET
            self.assert_capped(M, v, nv)


def box_minimum(M, rels, v, box=60):
    """Least norm of v + sum_j k_j rels[j] over every k in [-box, box]^s,
    for a module M over Z_triv with at most box relations.  The leading
    coefficients are stepped through; the last is not, since coordinate i
    vanishes at one value of it, at every value or at none."""
    *head, last = rels
    zero_sets = set()
    for k in itertools.product(range(-box, box + 1), repeat=len(head)):
        base = [x + sum(kj * r[i] for kj, r in zip(k, head))
                for i, x in enumerate(v)]
        always = frozenset(i for i, b in enumerate(base)
                           if b == 0 and last[i] == 0)
        at = {}
        for i, b in enumerate(base):
            if last[i] and b % last[i] == 0 and abs(b // last[i]) <= box:
                at.setdefault(-b // last[i], set()).add(i)
        # fewer special values than box points: some k_s hits none of them
        zero_sets.add(always)
        zero_sets.update(always | extra for extra in at.values())
    return min(vector_norm(M, [int(i not in Z) for i in range(M.rank)]).hi
               for Z in zero_sets)


class TestTrivialResidueNorm:
    """Over Z_triv the residue norm is exact: a least cost over zero sets."""

    def presented(self, weights, flavor, rels):
        amb = WeightedFreeModule(ZT, tuple(weights), flavor)
        src = WeightedFreeModule(ZT, (Fraction(1),) * len(rels), SUM)
        return cokernel(ModuleMap(src, amb, tuple(
            tuple(Fraction(r[i]) for r in rels) for i in range(len(weights)))))

    def test_box_oracle(self):
        rng = random.Random(12)
        for _ in range(400):
            rank = rng.randint(1, 4)
            rels = [[rng.randint(-4, 4) for _ in range(rank)]
                    for _ in range(rng.randint(1, 2))]
            weights = [Fraction(rng.randint(1, 6), rng.randint(1, 3))
                       for _ in range(rank)]
            M = self.presented(weights, rng.choice((SUM, MAX)), rels)
            v = [rng.randint(-5, 5) for _ in range(rank)]
            assert residue_norm(M, v) == NormValue.exact(
                box_minimum(M.ambient, rels, v))

    def test_box_oracle_steps_through_every_point(self):
        # the shortcut over the last coefficient against a plain scan
        rng = random.Random(3)
        for _ in range(30):
            rels = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)]
            M = self.presented([1, 2, 3], SUM, rels)
            v = [rng.randint(-4, 4) for _ in range(3)]
            plain = min(
                vector_norm(M.ambient, [x + a * r + b * t for x, r, t
                                        in zip(v, *rels)]).hi
                for a in range(-5, 6) for b in range(-5, 6))
            assert box_minimum(M.ambient, rels, v, box=5) == plain

    def test_lower_bound_is_not_zero(self):
        # killing coordinate 2 costs the two others, which no relation
        # can clear together with it
        M = self.presented([1, 2, 3], SUM, [[1, 1, 0]])
        assert residue_norm(M, (1, 1, 1)) == NormValue.exact(3)

    def test_non_integer_entry_rejected(self):
        M = self.presented([1, 1, 1], SUM, [[1, 1, 0]])
        with pytest.raises(NonElement):
            residue_norm(M, (Fraction(1, 2), 0, 0))

    def test_zero_class(self):
        M = self.presented([1, 1], MAX, [[2, 0], [0, 3]])
        assert residue_norm(M, (4, -9)) == NormValue.exact(0)
        assert residue_norm(M, (4, -8)) == NormValue.exact(1)

    @given(residue_cases(ZT, range(9, 15), (SUM, MAX), st.integers(-4, 4)))
    @settings(max_examples=40, deadline=None)
    def test_box_oracle_at_ranks_9_to_14(self, case):
        # the zero-set tree makes at most 2^14 - 1 membership tests, within
        # ``NODE_BUDGET``, so every class up to rank 14 is exact
        M, v = case
        rels = normed_core._relation_columns(M)
        assert residue_norm(M, v) == NormValue.exact(
            box_minimum(M.ambient, rels, v))

    def test_rank_9(self):
        M = self.presented([1] * 9, SUM, [[2] + [0] * 8])
        v = (2,) + (0,) * 8
        assert residue_norm(M, v) == NormValue.exact(0)
        assert residue_norm(M, (1,) + v[1:]) == NormValue.exact(1)

    def test_rank_64_sixteen_relations_stopped(self):
        # stops after ``NODE_BUDGET`` membership tests, in 0.25 s when each
        # test reduces one row more; a Hermite basis of the restricted
        # columns rebuilt for each test took 22 s (2 CPUs, Python 3.11)
        assert residue_norm(*wide_case(ZT, 64, 16, 64)) == NormValue(0, 49)

    def test_rank_9_four_relations(self):
        # exact within 511 membership tests, whatever the relation count
        M = self.presented([1] * 9, SUM, list(zip(
            (3, 1, 0, -2), (-2, -4, 1, 4), (3, -3, 1, 4), (-4, 2, -2, 3),
            (2, -2, -2, -1), (-4, -3, -2, 4), (-3, 2, -3, 0),
            (-1, -1, 2, -3), (0, -1, 2, 0))))
        v = (0, -5, -2, -5, 1, -5, 1, 2, -3)
        assert residue_norm(M, v) == NormValue.exact(5)


def saturated_kernel(f):
    """The Q-basis of ker(f) that ``linalg.solve`` reads off, as
    primitive integer vectors: the b_j that ``check_strictness`` rounds
    in."""
    _, _, kernel = linalg.solve(f.matrix, [[] for _ in f.matrix],
                                f.source.rank)
    return kernel


class TestKernelCokernel:
    def test_kernel_span(self):
        f = ModuleMap(zmod(1, 1), zmod(1), ((Fraction(1), Fraction(-1)),))
        basis = saturated_kernel(f)
        assert len(basis) == 1
        assert basis[0] in ([1, 1], [-1, -1])

    def test_cokernel_of_two_residues(self):
        M = cokernel(ModuleMap(zmod(1), zmod(1), ((Fraction(2),),)))
        assert residue_norm(M, (0,)) == NormValue.exact(0)
        assert residue_norm(M, (1,)) == NormValue.exact(1)

    def test_cokernel_of_identity_is_trivial(self):
        M = cokernel(identity(zmod(1)))
        assert residue_norm(M, (5,)) == NormValue.exact(0)


class TestStrictness:
    def test_identity(self):
        v = check_strictness(identity(zmod(1)))
        assert isinstance(v, StrictWithConstants)
        assert v.c == v.C == 1

    def test_doubling_constants_bracket(self):
        v = check_strictness(ModuleMap(zmod(1), zmod(1), ((Fraction(2),),)))
        assert isinstance(v, StrictWithConstants)
        # image norm of the class of n is 2|n|, coimage norm is |n|
        assert v.c <= 2 <= v.C

    def test_zero_map(self):
        v = check_strictness(ModuleMap(zmod(1), zmod(1), ((Fraction(0),),)))
        assert v == StrictWithConstants(Fraction(1), Fraction(1))

    def test_kernel_basis_spanning_a_sublattice(self):
        """The saturated kernel basis (-3, 2, 0), (-1, 0, 2) of (-2 -3 -1)
        misses the kernel vector (-1, 1, -1), which a search over the
        classes modulo that basis took for a nonzero class sent to 0.
        The exact ratios on [-1, 1]^3 lie in [1, 3]."""
        f = ModuleMap(zmod(1, 1, 1), zmod(1),
                      ((Fraction(-2), Fraction(-3), Fraction(-1)),))
        assert saturated_kernel(f) == [[-3, 2, 0], [-1, 0, 2]]
        v = check_strictness(f)
        assert isinstance(v, StrictWithConstants)
        assert v.c <= 1 and v.C >= 3

    @pytest.mark.parametrize("rank", range(1, 6))
    def test_two_reductions_over_z(self, rank):
        # rref(f^T) picks the rows R, and one ``linalg.solve`` of
        # [f_R | I] gives both g and the kernel, full rank or not
        rng = random.Random(rank)
        for _ in range(20):
            rows = [[rng.randint(-2, 2) for _ in range(rank)]
                    for _ in range(rank)]
            rows[0][0] = rows[0][0] or 1
            f = ModuleMap(zmod(*[1] * rank), zmod(*[1] * rank),
                          tuple(tuple(map(Fraction, r)) for r in rows))
            with mock.patch.object(linalg, "rref", wraps=linalg.rref) as rref:
                check_strictness(f)
            assert rref.call_count == 2

    def test_field_rings_unsupported(self):
        for ring in (QA, Q2):
            M = WeightedFreeModule(ring, (Fraction(1),), SUM)
            with pytest.raises(UnsupportedRing):
                check_strictness(identity(M))

    @pytest.mark.parametrize("ring", (Z, ZT), ids=("Z", "Ztriv"))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_exact_ratios_within_constants(self, ring, data):
        """c <= |f x| / |[x]| <= C for every nonzero class of x in the box
        [-1, 1]^n, with the coimage norm |[x]| found by brute force."""
        f = data.draw(integer_maps(ring))
        v = check_strictness(f)
        coimage_norm = _coimage_norms(f)
        for x in itertools.product((-1, 0, 1), repeat=f.source.rank):
            coim = coimage_norm(x)
            if coim:
                ratio = vector_norm(f.target, apply(f, x)).hi / coim
                assert v.c <= ratio <= v.C


@st.composite
def oracle_maps(draw, rings, max_rank=4):
    """Maps over one of the rings, source and target of rank 1 to
    ``max_rank`` with weights a/b (1 <= a <= 9, 1 <= b <= 6) and any
    flavor the ring allows, with entries in -4..4 (rationals with
    denominators up to 6 over a field), and a repeated or scaled row
    mixed in so that many have lower rank."""
    ring = draw(st.sampled_from(rings))
    flavors = (SUM, MAX) if ring.non_archimedean else (SUM,)

    def module():
        rank = draw(st.integers(1, max_rank))
        weights = [Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 6)))
                   for _ in range(rank)]
        return WeightedFreeModule(ring, tuple(weights),
                                  draw(st.sampled_from(flavors)))

    src, tgt = module(), module()
    entry = st.integers(-4, 4).map(Fraction) if ring.integral else \
        st.fractions(-4, 4, max_denominator=6)
    matrix = draw(st.lists(st.lists(entry, min_size=src.rank,
                                    max_size=src.rank),
                           min_size=tgt.rank, max_size=tgt.rank))
    if tgt.rank > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(tgt.rank)))[:2]
        matrix[j] = [draw(st.integers(-2, 2)) * x for x in matrix[i]]
    return ModuleMap(src, tgt, tuple(map(tuple, matrix)))


class TestIntegerForms:
    """``operator_norm`` and ``check_strictness`` compute on integers
    from the input to the one result; their ``Fraction`` forms in
    ``tests/loops.py`` give the same values."""

    @given(oracle_maps((Z, ZT, QA, Q2, Q3)))
    @settings(max_examples=300, deadline=None)
    def test_operator_norm_matches_fraction_ratios(self, f):
        assert operator_norm(f) == operator_norm_loop(f)

    @given(oracle_maps((Z, ZT)))
    @settings(max_examples=300, deadline=None)
    def test_strictness_matches_fraction_constants(self, f):
        assert check_strictness(f) == check_strictness_loop(f)

    def test_pivots_above_one(self):
        """(2 3) with weights 1 and 5/2 into weight 3/2: C = max(2 (3/2)
        / 1, 3 (3/2) / (5/2)) = 3.  The reduction of [f_R | I] has pivot
        2, so L = 2, g e_0 = (1/2, 0) costs 1/2, and the kernel vector
        (-3, 2) costs 3 + 5 = 8, so mu = 4 and
        c = 1 / ((1/2) / (3/2) + 4 / (3/2)) = 1/3."""
        f = ModuleMap(WeightedFreeModule(Z, (Fraction(1), Fraction(5, 2)),
                                         SUM),
                      WeightedFreeModule(Z, (Fraction(3, 2),), SUM),
                      ((Fraction(2), Fraction(3)),))
        assert check_strictness(f) == StrictWithConstants(
            Fraction(1, 3), Fraction(3)) == check_strictness_loop(f)


@st.composite
def integer_maps(draw, ring):
    flavors = (SUM, MAX) if ring.non_archimedean else (SUM,)

    def module():
        weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        return WeightedFreeModule(ring, tuple(map(Fraction, weights)),
                                  draw(st.sampled_from(flavors)))

    src, tgt = module(), module()
    matrix = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=src.rank, max_size=src.rank)
        .map(tuple), min_size=tgt.rank, max_size=tgt.rank))
    return ModuleMap(src, tgt, tuple(matrix))


def _coimage_norms(f):
    """x -> the least |z|_w over the integer z with f z = f x, the
    residue norm of the class of x modulo the integer kernel.

    Over Z every such z with |z|_w <= |x|_w lies in the box
    |z_i| <= |x|_w / w_i, and |x|_w <= R = |(1, ..., 1)|_w on [-1, 1]^n,
    so one pass over the ball of radius R finds the least norm of each
    image.  Over Z_triv |z|_w depends only on the support S of z, and
    some z on S has f z = f x exactly when f x lies in the lattice of the
    columns S."""
    w = [int(x) for x in f.source.weights]
    A = [[int(a) for a in row] for row in f.matrix]

    def image(z):
        return tuple(sum(a * b for a, b in zip(row, z)) for row in A)

    if f.source.ring.non_archimedean:
        cost = sum if f.source.flavor == SUM else max
        cols = [[row[j] for row in A] for j in range(len(w))]

        def norm(x):
            y = list(image(x))
            if not any(y):
                return 0
            return min(cost(w[j] for j in S)
                       for k in range(1, len(w) + 1)
                       for S in itertools.combinations(range(len(w)), k)
                       if _in_lattice([cols[j] for j in S], y))
        return norm
    R = sum(w)
    best = {}
    for z in itertools.product(*(range(-(R // wi), R // wi + 1) for wi in w)):
        n = sum(abs(a) * wi for a, wi in zip(z, w))
        if n <= R:
            key = image(z)
            best[key] = min(best.get(key, n), n)
    return lambda x: best[image(x)]


def _minor_gcd(cols, k):
    """The gcd of the k x k minors of the matrix with the given integer
    columns (0 when there are none, 1 for k = 0)."""
    def det(M):
        return sum((-1) ** sum(p[i] > p[j]
                               for i, j in itertools.combinations(range(k), 2))
                   * math.prod(M[i][p[i]] for i in range(k))
                   for p in itertools.permutations(range(k)))
    rows = len(cols[0]) if cols else 0
    return math.gcd(*(det([[cols[j][i] for j in cs] for i in rs])
                      for cs in itertools.combinations(range(len(cols)), k)
                      for rs in itertools.combinations(range(rows), k)))


def _in_lattice(cols, y):
    """Whether y is an integer combination of the columns.  With r their
    rank, adding y keeps the rank exactly when y is a rational
    combination, and then the lattice of the columns has index
    d_r(cols) / d_r(cols + y) in that of the columns and y, where d_r is
    the gcd of the r x r minors."""
    r = max(k for k in range(len(y) + 1) if _minor_gcd(cols, k))
    return (not _minor_gcd(cols + [y], r + 1)
            and _minor_gcd(cols, r) == _minor_gcd(cols + [y], r))
