import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daggeralg.errors import DimensionMismatch, FlavorMismatch, NonElement
from daggeralg.normed_core import MAX, SUM, WeightedFreeModule, vector_norm
from daggeralg.scalars import NormValue, abs_value, integers_archimedean, \
    integers_trivial, rationals_archimedean, rationals_padic
from daggeralg.tensor import (
    TensorElement,
    tensor_modules,
    tensor_norm_certified,
    tensor_norm_upper,
)

Z = integers_archimedean()
ZT = integers_trivial()
Q2 = rationals_padic(2)
Q3 = rationals_padic(3)
QA = rationals_archimedean()


def zmod(*weights, flavor=SUM):
    return WeightedFreeModule(Z, tuple(Fraction(w) for w in weights), flavor)


class TestTensorModules:
    def test_weights_multiply(self):
        T = tensor_modules(zmod(2), zmod(3), SUM)
        assert T.weights == (Fraction(6),)

    def test_unit_weights(self):
        T = tensor_modules(zmod(1, 1), zmod(1), SUM)
        assert T.weights == (Fraction(1), Fraction(1))

    def test_zero_factor(self):
        T = tensor_modules(zmod(), zmod(3), SUM)
        assert T.rank == 0

    def test_ring_mismatch(self):
        M = WeightedFreeModule(Q2, (Fraction(1),), MAX)
        with pytest.raises(DimensionMismatch):
            tensor_modules(zmod(1), M, SUM)


class TestUpperBound:
    def test_single_term(self):
        x = TensorElement(zmod(2), zmod(3), (((1,), (1,)),))
        assert tensor_norm_upper(x, SUM) == 6

    def test_scaled_term(self):
        x = TensorElement(zmod(2), zmod(3), (((2,), (1,)),))
        assert tensor_norm_upper(x, SUM) == 12

    def test_empty_representation(self):
        x = TensorElement(zmod(2), zmod(3), ())
        assert tensor_norm_upper(x, SUM) == 0


class TestCertified:
    def test_rank_one_exact(self):
        x = TensorElement(zmod(2), zmod(3), (((1,), (1,)),))
        nv = tensor_norm_certified(x, SUM)
        assert nv.lo == nv.hi == 6

    def test_padic_unit_weights_max(self):
        M = WeightedFreeModule(Q2, (Fraction(1),), MAX)
        x = TensorElement(M, M, (((1,), (1,)),))
        nv = tensor_norm_certified(x, MAX)
        assert nv.lo == nv.hi == 1

    def test_zero(self):
        x = TensorElement(zmod(2), zmod(3), ())
        nv = tensor_norm_certified(x, SUM)
        assert nv.lo == nv.hi == 0

    def test_redundant_representation_collapses(self):
        x = TensorElement(
            zmod(2), zmod(3),
            (((1,), (1,)), ((1,), (1,))),
        )
        nv = tensor_norm_certified(x, SUM)
        assert nv.hi == 12

    def test_probe_2x2_exact(self):
        # T = [[1, 1], [1, -1]]: no cheaper representation than the rows
        x = TensorElement(zmod(1, 1), zmod(1, 1),
                          (((1, 0), (1, 1)), ((0, 1), (1, -1))))
        assert tensor_norm_certified(x, SUM) == NormValue(4, 4)

    def test_trivial_valuation_2x2_exact(self):
        M = WeightedFreeModule(ZT, (Fraction(1), Fraction(1)), SUM)
        x = TensorElement(M, M, (((1, 0), (1, 1)), ((0, 1), (1, -1))))
        assert tensor_norm_certified(x, SUM) == NormValue(4, 4)

    # T = [[1, 3], [1/3, 9]] over Q_3 with unit weights has the cells
    # [[1, 1/3], [3, 1/9]], given as (1, 1) (x) (1, 3) + (0, 1) (x) (-2/3, 6)
    Q3_TERMS = (((1, 1), (1, 3)), ((0, 1), (Fraction(-2, 3), 6)))

    def test_l1_left_factor_sums_the_row_maxima(self):
        # l^1 (x) l^oo: max(1, 1/3) + max(3, 1/9) = 4; the given
        # representation costs 2 * 1 + 1 * 3 = 5
        L = WeightedFreeModule(Q3, (Fraction(1), Fraction(1)), SUM)
        R = WeightedFreeModule(Q3, (Fraction(1), Fraction(1)), MAX)
        x = TensorElement(L, R, self.Q3_TERMS)
        assert tensor_norm_certified(x, SUM) == NormValue.exact(4)

    def test_l1_right_factor_sums_the_column_maxima(self):
        # l^oo (x) l^1: max(1, 3) + max(1/3, 1/9) = 10/3; the given
        # representation costs 1 * 4/3 + 1 * 10/3 = 14/3
        L = WeightedFreeModule(Q3, (Fraction(1), Fraction(1)), MAX)
        R = WeightedFreeModule(Q3, (Fraction(1), Fraction(1)), SUM)
        x = TensorElement(L, R, self.Q3_TERMS)
        assert tensor_norm_certified(x, SUM) == \
            NormValue.exact(Fraction(10, 3))

    def test_max_cost_over_archimedean_ring_rejected(self):
        x = TensorElement(zmod(1), zmod(1), (((2,), (1,)),))
        with pytest.raises(FlavorMismatch):
            tensor_norm_certified(x, MAX)

    def test_non_element_entry_rejected(self):
        with pytest.raises(NonElement):
            TensorElement(zmod(1), zmod(1), (((Fraction(1, 2),), (2,)),))

    def test_ring_mismatch_rejected(self):
        M = WeightedFreeModule(Q2, (Fraction(1),), SUM)
        with pytest.raises(DimensionMismatch):
            TensorElement(zmod(1), M, ())

    def test_rank_one_brute_force_oracle(self):
        # every representation of e (x) e' has cost >= w*v: brute force
        # over 2-term integer representations with coefficients <= 4
        L, R = zmod(2), zmod(3)
        target = 6
        best = None
        span = range(-4, 5)
        for m1, n1, m2, n2 in itertools.product(span, repeat=4):
            if m1 * n1 + m2 * n2 != 1:
                continue
            cost = vector_norm(L, (m1,)).hi * vector_norm(R, (n1,)).hi \
                + vector_norm(L, (m2,)).hi * vector_norm(R, (n2,)).hi
            best = cost if best is None else min(best, cost)
        assert best == target

    def test_max_never_exceeds_sum(self):
        M = WeightedFreeModule(Q2, (Fraction(1), Fraction(2)), MAX)
        x = TensorElement(M, M, (((1, 1), (1, 0)), ((0, 1), (1, 1))))
        assert tensor_norm_upper(x, MAX) <= tensor_norm_upper(x, SUM)


def coefficient_matrix(x):
    """The coefficient matrix T_ij = sum_k m_ki n_kj of x, in Fractions."""
    T = [[Fraction(0)] * x.right.rank for _ in range(x.left.rank)]
    for m, n in x.terms:
        for i in range(x.left.rank):
            for j in range(x.right.rank):
                T[i][j] += m[i] * n[j]
    return T


# -- oracle: the certified interval against every small representation


def _cheapest_small_representation(x, flavor):
    """Least cost, in the given flavor, of a representation of x's
    coefficient matrix by at most two integer terms with entries in
    [-2, 2]; None when no such representation exists."""
    span = range(-2, 3)
    rl, rr = x.left.rank, x.right.rank
    left = {m: vector_norm(x.left, m).hi
            for m in itertools.product(span, repeat=rl)}
    right = {n: vector_norm(x.right, n).hi
             for n in itertools.product(span, repeat=rr)}
    cheapest = {}  # outer product m n^T -> least cost of a term giving it
    for m, a in left.items():
        for n, b in right.items():
            key = tuple(u * v for u in m for v in n)
            if key not in cheapest or a * b < cheapest[key]:
                cheapest[key] = a * b
    target = tuple(v for row in coefficient_matrix(x) for v in row)
    best = None
    for key, c1 in cheapest.items():
        c2 = cheapest.get(tuple(t - a for t, a in zip(target, key)))
        if c2 is not None:
            c = c1 + c2 if flavor == SUM else max(c1, c2)
            best = c if best is None else min(best, c)
    return best


def _decompositions(x):
    """The given representation and the row, column and single-cell
    decompositions of x's coefficient matrix."""
    T = coefficient_matrix(x)
    rl, rr = x.left.rank, x.right.rank

    def unit(rank, k):
        return tuple(int(i == k) for i in range(rank))

    rows = tuple((unit(rl, i), tuple(T[i])) for i in range(rl))
    cols = tuple((tuple(T[i][j] for i in range(rl)), unit(rr, j))
                 for j in range(rr))
    cells = tuple((tuple(T[i][j] * u for u in unit(rl, i)), unit(rr, j))
                  for i in range(rl) for j in range(rr))
    return {name: TensorElement(x.left, x.right, terms) for name, terms in
            (("given", x.terms), ("rows", rows), ("cols", cols),
             ("cells", cells))}


def _assert_oracle(x, flavor):
    if flavor == MAX and not x.left.ring.non_archimedean:
        with pytest.raises(FlavorMismatch):
            tensor_norm_certified(x, flavor)
        return
    nv = tensor_norm_certified(x, flavor)
    cheapest = _cheapest_small_representation(x, flavor)
    assert cheapest is None or nv.lo <= cheapest
    reps = {k: tensor_norm_upper(v, flavor)
            for k, v in _decompositions(x).items()}
    if flavor == MAX:
        assert nv.lo == nv.hi == reps["cells"]
    elif x.left.flavor == SUM:
        # l^1 (x) X = l^1(X): the rows, whatever the right factor
        assert nv.lo == nv.hi == reps["rows"]
    elif x.right.flavor == SUM:
        assert nv.lo == nv.hi == reps["cols"]
    else:
        assert nv.hi == min(reps["given"], reps["rows"], reps["cols"])


_RINGS = {"Z": (Z, [1, 2, 3]), "Ztriv": (ZT, [1, 2, 3]),
          "Q3": (Q3, [Fraction(1, 3), Fraction(1, 2), 1, 2, 3])}


@st.composite
def _oracle_cases(draw):
    ring, weights = _RINGS[draw(st.sampled_from(sorted(_RINGS)))]
    flavors = [SUM, MAX] if ring.non_archimedean else [SUM]
    rl, rr = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (2, 3),
                                   (3, 2)]))
    L = WeightedFreeModule(ring, tuple(Fraction(draw(st.sampled_from(weights)))
                                       for _ in range(rl)),
                           draw(st.sampled_from(flavors)))
    R = WeightedFreeModule(ring, tuple(Fraction(draw(st.sampled_from(weights)))
                                       for _ in range(rr)),
                           draw(st.sampled_from(flavors)))
    entry = st.integers(-2, 2)
    terms = draw(st.lists(st.tuples(st.tuples(*[entry] * rl),
                                    st.tuples(*[entry] * rr)),
                          min_size=0, max_size=2))
    return TensorElement(L, R, tuple(terms)), draw(st.sampled_from([SUM, MAX]))


@st.composite
def _rank_one_cases(draw):
    """Elements of Z (x) Z with one-dimensional factors and up to three
    terms, coefficients in [-3, 3]."""
    coeff = st.integers(-3, 3)
    L = zmod(draw(st.integers(1, 4)))
    R = zmod(draw(st.integers(1, 4)))
    terms = draw(st.lists(st.tuples(st.tuples(coeff), st.tuples(coeff)),
                          min_size=1, max_size=3))
    return TensorElement(L, R, tuple(terms)), SUM


class TestOracle:
    @settings(max_examples=150, deadline=None)
    @given(_oracle_cases() | _rank_one_cases())
    def test_interval_against_small_representations(self, case):
        _assert_oracle(*case)


class TestScalarContraction:
    """|lambda x| = |lambda| |x| for the certified norm: the bound that
    criterion 1 checks."""

    def test_doubling(self):
        x = TensorElement(zmod(2), zmod(3), (((1,), (1,)),))
        assert tensor_norm_certified(x.scale(2), SUM) == NormValue.exact(12)

    def test_identity_scalar(self):
        x = TensorElement(zmod(2), zmod(3), (((1,), (1,)),))
        assert tensor_norm_certified(x.scale(1), SUM) == \
            tensor_norm_certified(x, SUM)

    def test_zero_scalar(self):
        x = TensorElement(zmod(2), zmod(3), (((1,), (1,)),))
        assert tensor_norm_certified(x.scale(0), SUM) == NormValue.exact(0)

    def test_p_adic_scalar_shrinks(self):
        M = WeightedFreeModule(Q3, (Fraction(1),), MAX)
        x = TensorElement(M, M, (((1,), (1,)),))
        assert tensor_norm_certified(x.scale(3), MAX) == \
            NormValue.exact(Fraction(1, 3))


# -- the integer kernel against the Fraction loop it replaced


def fraction_tensor_norm(x, flavor):
    """``tensor_norm_certified`` on Fraction cells, one ``abs_value`` per
    entry, and the row and column decompositions' costs from one
    ``vector_norm`` per row and column."""
    ring, wl, wr = x.left.ring, x.left.weights, x.right.weights
    if flavor == MAX and not ring.non_archimedean:
        raise FlavorMismatch("max term cost needs a non-Archimedean ring")
    T = coefficient_matrix(x)
    cells = [abs_value(ring, T[i][j]) * wl[i] * wr[j]
             for i in range(x.left.rank) for j in range(x.right.rank)]
    lo = max(cells, default=Fraction(0))
    if flavor == MAX:
        return NormValue.exact(lo)
    if x.left.flavor == SUM and x.right.flavor == SUM:
        return NormValue.exact(sum(cells, Fraction(0)))
    rows = sum((w * vector_norm(x.right, T[i]).hi for i, w in enumerate(wl)),
               Fraction(0))
    cols = sum((v * vector_norm(x.left, [row[j] for row in T]).hi
                for j, v in enumerate(wr)), Fraction(0))
    if x.left.flavor == SUM:
        return NormValue.exact(rows)
    if x.right.flavor == SUM:
        return NormValue.exact(cols)
    return NormValue(lo, min(tensor_norm_upper(x, SUM), rows, cols))


_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=18)


@st.composite
def _kernel_cases(draw):
    """Elements over every ring, in every module-flavor pair, with ranks
    0-3, 0-4 terms and entries whose numerators and denominators the
    prime divides (Q_2, Q_3)."""
    ring = draw(st.sampled_from([Z, ZT, Q2, Q3, QA]))
    entry = st.integers(-20, 20) if ring.integral else _fractions
    flavors = [SUM, MAX] if ring.non_archimedean else [SUM]
    weight = st.fractions(min_value=Fraction(1, 12), max_value=12,
                          max_denominator=12)
    L, R = (WeightedFreeModule(ring, tuple(draw(st.lists(weight, max_size=3))),
                               draw(st.sampled_from(flavors)))
            for _ in range(2))
    terms = draw(st.lists(st.tuples(st.tuples(*[entry] * L.rank),
                                    st.tuples(*[entry] * R.rank)),
                          max_size=4))
    return TensorElement(L, R, tuple(terms)), draw(st.sampled_from([SUM, MAX]))


class TestIntegerKernel:
    @settings(max_examples=300, deadline=None)
    @given(_kernel_cases())
    def test_matches_fraction_loop(self, case):
        x, flavor = case
        if flavor == MAX and not x.left.ring.non_archimedean:
            with pytest.raises(FlavorMismatch):
                tensor_norm_certified(x, flavor)
            return
        assert tensor_norm_certified(x, flavor) == \
            fraction_tensor_norm(x, flavor)
