import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daggeralg.errors import (
    DimensionMismatch,
    FlavorMismatch,
    NotCokernelForm,
    ZeroSampleElement,
)
from daggeralg.normed_core import (
    MAX,
    SUM,
    ModuleMap,
    PresentedModule,
    StrictWithConstants,
    WeightedFreeModule,
    check_strictness,
    cokernel,
    direct_sum,
    identity_map,
    kernel,
    kernel_lattice_basis,
    operator_norm,
    residue_norm,
    standard_projective,
    vector_norm,
    zero_module,
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

Z = integers_archimedean()
ZT = integers_trivial()
Q2 = rationals_padic(2)
QA = rationals_archimedean()


def zmod(*weights, flavor=SUM):
    return WeightedFreeModule(Z, tuple(Fraction(w) for w in weights), flavor)


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
        term = reference_abs(M.ring, x).scale(w)
        out = out + term if M.flavor == SUM else out.join_max(term)
    return out


def reference_column_norm(f):
    best = NormValue.zero()
    for j in range(f.source.rank):
        col = reference_vector_norm(f.target, f.column(j))
        best = best.join_max(col.scale(1 / f.source.weights[j]))
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
        assert operator_norm(identity_map(zmod(2, 3))) == NormValue.exact(1)

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
            assert operator_norm(g.compose(f)).hi <= \
                operator_norm(g).hi * operator_norm(f).hi

    def test_max_source_into_sum_target(self):
        # the identity on Z_triv^2 with weights 1 sends (1, 1), of max
        # norm 1, to a vector of sum norm 2
        src = WeightedFreeModule(ZT, (Fraction(1), Fraction(1)), MAX)
        tgt = WeightedFreeModule(ZT, (Fraction(1), Fraction(1)), SUM)
        f = ModuleMap(src, tgt, ((Fraction(1), Fraction(0)),
                                 (Fraction(0), Fraction(1))))
        assert operator_norm(f) == NormValue(Fraction(1), Fraction(2))
        assert vector_norm(tgt, f.apply((1, 1))).hi == 2

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
                ratio = (vector_norm(f.target, f.apply(x)).hi
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

    def test_requires_cokernel_form(self):
        ker = kernel(ModuleMap(zmod(1), zmod(1), ((Fraction(1),),)))
        with pytest.raises(NotCokernelForm):
            residue_norm(ker, (1,))

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
        M = cokernel(identity_map(zmod(1)))
        assert residue_norm(M, (5,)) == NormValue.zero()


class TestStrictness:
    def test_identity(self):
        v = check_strictness(identity_map(zmod(1)))
        assert isinstance(v, StrictWithConstants)
        assert v.c == v.C == 1

    def test_doubling_constants_bracket(self):
        v = check_strictness(ModuleMap(zmod(1), zmod(1), ((Fraction(2),),)))
        assert isinstance(v, StrictWithConstants)
        # image norm of the class of n is 2|n|, coimage norm is |n|
        assert v.c <= 2 <= v.C

    def test_zero_map(self):
        v = check_strictness(ModuleMap(zmod(1), zmod(1), ((Fraction(0),),)))
        assert isinstance(v, StrictWithConstants)


class TestSumsAndProjectives:
    def test_direct_sum_concatenates(self):
        S = direct_sum([zmod(2), zmod(3)], SUM)
        assert S.weights == (Fraction(2), Fraction(3))

    def test_max_coproduct_norm(self):
        M = WeightedFreeModule(Q2, (Fraction(1),), MAX)
        S = direct_sum([M, M], MAX)
        assert vector_norm(S, (1, 1)) == NormValue.exact(1)

    def test_empty_sum_is_zero_module(self):
        assert direct_sum([], SUM, ring=Z).rank == 0
        assert zero_module(Z).rank == 0

    def _presented_line(self):
        amb = zmod(1)
        rel = ModuleMap(zero_module(Z, SUM), amb, ((),))
        return PresentedModule(amb, relations=rel)

    def test_single_sample(self):
        free, kappa = standard_projective(self._presented_line(), [(2,)])
        assert free.weights == (Fraction(2),)
        assert operator_norm(kappa).hi <= 1

    def test_two_samples_sum(self):
        free, kappa = standard_projective(self._presented_line(), [(1,), (2,)])
        assert free.weights == (Fraction(1), Fraction(2))
        assert kappa.apply((1, 1)) == [Fraction(3)]
        assert operator_norm(kappa).hi <= 1

    def test_empty_sample(self):
        free, kappa = standard_projective(self._presented_line(), [])
        assert free.rank == 0

    def test_zero_sample_rejected(self):
        with pytest.raises(ZeroSampleElement):
            standard_projective(self._presented_line(), [(0,)])
