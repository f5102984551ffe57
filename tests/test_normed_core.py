import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daggeralg.errors import (
    DimensionMismatch,
    FlavorMismatch,
    NonElement,
    UnsupportedRing,
)
from daggeralg.normed_core import (
    MAX,
    MAX_EXACT_TRIVIAL_RANK,
    SUM,
    ModuleMap,
    StrictWithConstants,
    WeightedFreeModule,
    check_strictness,
    cokernel,
    kernel_lattice_basis,
    operator_norm,
    residue_norm,
    vector_norm,
)
from daggeralg.scalars import (
    NormValue,
    abs_value,
    integers_archimedean,
    integers_trivial,
    padic_valuation,
    rationals_archimedean,
    rationals_padic,
)
from intervals import add, scale

Z = integers_archimedean()
ZT = integers_trivial()
Q2 = rationals_padic(2)
QA = rationals_archimedean()


def zmod(*weights, flavor=SUM):
    return WeightedFreeModule(Z, tuple(Fraction(w) for w in weights), flavor)


def identity(M):
    return ModuleMap(M, M, tuple(
        tuple(Fraction(int(i == j)) for j in range(M.rank))
        for i in range(M.rank)))


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
        return NormValue.zero()
    if not ring.non_archimedean:
        return NormValue.exact(abs(x))
    if ring.integral:
        return NormValue.exact(1)
    return NormValue.exact(Fraction(ring.p) ** -padic_valuation(x, ring.p))


def reference_vector_norm(M, v):
    out = NormValue.zero()
    for x, w in zip(v, M.weights):
        term = scale(reference_abs(M.ring, x), w)
        out = add(out, term) if M.flavor == SUM else out.join_max(term)
    return out


def reference_column_norm(f):
    best = NormValue.zero()
    for j in range(f.source.rank):
        col = reference_vector_norm(f.target, f.column(j))
        best = best.join_max(scale(col, 1 / f.source.weights[j]))
    return best


class TestVectorNorm:
    def test_sum_flavor(self):
        assert vector_norm(zmod(1, 1), (3, -2)) == NormValue.exact(5)

    def test_max_flavor_padic(self):
        M = WeightedFreeModule(Q2, (Fraction(1), Fraction(1)), MAX)
        assert vector_norm(M, (2, 1)) == NormValue.exact(1)

    def test_zero_vector(self):
        assert vector_norm(zmod(2, 3), (0, 0)) == NormValue.zero()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            vector_norm(zmod(1), (1, 2))

    def test_max_requires_non_archimedean(self):
        with pytest.raises(FlavorMismatch):
            WeightedFreeModule(Z, (Fraction(1),), MAX)


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
                vector_norm(f.target, f.column(j)).hi / w
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
        assert residue_norm(self.coker2(), (0,)) == NormValue.zero()
        assert residue_norm(self.coker2(), (4,)) == NormValue.zero()

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
        assert residue_norm(M, (4, -9)) == NormValue.zero()
        assert residue_norm(M, (4, -8)) == NormValue.exact(1)

    def test_over_the_rank_cap_keeps_the_window(self):
        rank = MAX_EXACT_TRIVIAL_RANK + 1
        M = self.presented([1] * rank, SUM, [[2] + [0] * (rank - 1)])
        v = (2,) + (0,) * (rank - 1)
        assert residue_norm(M, v) == NormValue(0, 0)
        assert residue_norm(M, (1,) + v[1:]) == NormValue(0, 1)


class TestKernelCokernel:
    def test_kernel_span(self):
        f = ModuleMap(zmod(1, 1), zmod(1), ((Fraction(1), Fraction(-1)),))
        basis = kernel_lattice_basis(f)
        assert len(basis) == 1
        assert basis[0] in ([Fraction(1), Fraction(1)],
                            [Fraction(-1), Fraction(-1)])

    def test_cokernel_of_two_residues(self):
        M = cokernel(ModuleMap(zmod(1), zmod(1), ((Fraction(2),),)))
        assert residue_norm(M, (0,)) == NormValue.zero()
        assert residue_norm(M, (1,)) == NormValue.exact(1)

    def test_cokernel_of_identity_is_trivial(self):
        M = cokernel(identity(zmod(1)))
        assert residue_norm(M, (5,)) == NormValue.zero()


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
        assert kernel_lattice_basis(f) == [[-3, 2, 0], [-1, 0, 2]]
        v = check_strictness(f)
        assert isinstance(v, StrictWithConstants)
        assert v.c <= 1 and v.C >= 3

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
