from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daggeralg.errors import (
    DimensionMismatch,
    NonElement,
    NotACover,
    UnitIdealWitnessMissing,
)
from daggeralg.localization import (
    LAURENT,
    RATIONAL,
    WEIERSTRASS,
    LocalizationSpec,
    koszul_h_check,
    laurent_solve,
    mayer_vietoris,
    present_localization,
)
from daggeralg.scalars import (
    integers_archimedean,
    integers_trivial,
    rationals_archimedean,
    rationals_padic,
)
from daggeralg.series import (
    Tail,
    TruncatedSeries,
    multiply,
    polyradius,
    unit_polydisk,
)

Q2 = rationals_padic(2)
Q3 = rationals_padic(3)
QA = rationals_archimedean()
Z = integers_archimedean()
ZT = integers_trivial()


def x_var(ring):
    return TruncatedSeries.monomial(ring, (1,))


class TestPresentLocalization:
    def test_weierstrass_adds_variable_and_relation(self):
        A = unit_polydisk(Q2)
        B = present_localization(A, LocalizationSpec(WEIERSTRASS, (x_var(Q2),)))
        assert B.n == 2
        assert len(B.relations) == 1
        rel = B.relations[0]
        # relation Y - X
        assert rel.coefficient((0, 1)) == 1
        assert rel.coefficient((1, 0)) == -1

    def test_laurent_relation(self):
        A = unit_polydisk(Q2)
        B = present_localization(A, LocalizationSpec(LAURENT, (x_var(Q2),)))
        rel = B.relations[0]
        # relation X*Y - 1
        assert rel.coefficient((1, 1)) == 1
        assert rel.coefficient((0, 0)) == -1

    def test_rational_relation_with_witness(self):
        A = unit_polydisk(QA)
        h = TruncatedSeries.constant(QA, 2)
        witness = (
            TruncatedSeries.constant(QA, Fraction(1, 2)),
            TruncatedSeries.constant(QA, 0),
        )
        spec = LocalizationSpec(RATIONAL, (x_var(QA),), None, h, witness)
        B = present_localization(A, spec)
        rel = B.relations[0]
        # relation h*Y - f = 2Y - X
        assert rel.coefficient((0, 1)) == 2
        assert rel.coefficient((1, 0)) == -1

    def test_rational_requires_witness(self):
        A = unit_polydisk(QA)
        spec = LocalizationSpec(RATIONAL, (x_var(QA),), (Fraction(1),),
                                TruncatedSeries.constant(QA, 2))
        with pytest.raises(UnitIdealWitnessMissing):
            present_localization(A, spec)

    def test_bad_witness_rejected(self):
        A = unit_polydisk(QA)
        h = TruncatedSeries.constant(QA, 2)
        witness = (TruncatedSeries.constant(QA, 1),
                   TruncatedSeries.constant(QA, 0))
        spec = LocalizationSpec(RATIONAL, (x_var(QA),), None, h, witness)
        with pytest.raises(UnitIdealWitnessMissing):
            present_localization(A, spec)

    def test_empty_spec_is_identity(self):
        A = unit_polydisk(Q2)
        assert present_localization(A, LocalizationSpec(WEIERSTRASS)) is A

    def test_ring_mismatch(self):
        A = unit_polydisk(Q2)
        with pytest.raises(DimensionMismatch):
            present_localization(A, LocalizationSpec(WEIERSTRASS, (x_var(QA),)))

    def test_spec_json_round_trip(self):
        h = TruncatedSeries.constant(QA, 2)
        witness = (
            TruncatedSeries.constant(QA, Fraction(1, 2)),
            TruncatedSeries.constant(QA, 0),
        )
        spec = LocalizationSpec(RATIONAL, (x_var(QA),), (Fraction(1, 2),), h,
                                witness)
        obj = {"variant": "rational", "fs": [x_var(QA).to_json()],
               "radii": ["1/2"], "h": h.to_json(),
               "witness": [c.to_json() for c in witness]}
        assert LocalizationSpec.from_json(obj, QA) == spec


class TestLaurentSolve:
    def test_geometric_solution(self):
        g = TruncatedSeries.constant(QA, 2)
        t = TruncatedSeries.constant(QA, -1)
        a = laurent_solve(g, t, D=2)
        assert a.coefficient((0, 0)) == 1
        assert a.coefficient((0, 1)) == 2
        assert a.coefficient((0, 2)) == 4

    def test_zero_target(self):
        g = TruncatedSeries.constant(QA, 3)
        t = TruncatedSeries.constant(QA, 0)
        a = laurent_solve(g, t, D=4)
        assert not a.coeffs

    def test_round_trip_against_operator(self):
        g = TruncatedSeries.from_univariate(QA, [1, 2])
        t = TruncatedSeries.from_univariate(QA, [2, -1, 3])
        D = 6
        assert_round_trip(g, t, laurent_solve(g, t, D), D)

    def test_tails_rejected(self):
        g = TruncatedSeries.constant(QA, 2)
        t = TruncatedSeries.constant(QA, 1)
        tailed = TruncatedSeries(QA, 1, {(0,): Fraction(2)}, 0,
                                 Tail(Fraction(1), polyradius(2)))
        with pytest.raises(ValueError):
            laurent_solve(tailed, t, 3)
        with pytest.raises(ValueError):
            laurent_solve(g, tailed, 3)

    def test_two_variable_rational_g(self):
        g = TruncatedSeries(QA, 2, {(0, 0): Fraction(1, 2),
                                    (1, 0): Fraction(-2, 3),
                                    (0, 1): Fraction(3, 4)}, 1)
        t = TruncatedSeries(QA, 3, {(0, 0, 0): Fraction(5, 6),
                                    (1, 1, 1): Fraction(-1, 9)}, 3)
        a = laurent_solve(g, t, 5)
        assert a.coeffs == fraction_laurent_solve(g, t, 5)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_recursion(self, data):
        # the recursion runs through ``multiply``, whose ring checks each
        # ring's coefficients meet
        ring = data.draw(st.sampled_from([Z, ZT, Q3, QA]))
        n = data.draw(st.integers(1, 2))
        coeff = (st.integers(-4, 4).map(Fraction) if ring.integral
                 else st.fractions(-4, 4, max_denominator=6))
        g_terms = data.draw(st.lists(st.tuples(
            st.tuples(*[st.integers(0, 2)] * n), coeff), min_size=1,
            max_size=4))
        t_terms = data.draw(st.lists(st.tuples(
            st.tuples(*[st.integers(0, 2)] * n, st.integers(0, 3)), coeff),
            max_size=4))
        D = data.draw(st.integers(0, 5))
        g = TruncatedSeries(ring, n, dict(g_terms), 2 * n)
        t = TruncatedSeries(ring, n + 1, dict(t_terms), 2 * n + 3)
        a = laurent_solve(g, t, D)
        assert a.coeffs == fraction_laurent_solve(g, t, D)
        assert a.degree_bound == max([sum(I) for I in a.coeffs] + [0])
        assert_round_trip(g, t, a, D)


def assert_round_trip(g, t, a, D):
    """(g*X - 1)*a = t modulo X^(D+1), rebuilt through ``multiply``: the
    identity that ``laurent_solve`` satisfies by construction."""
    n = g.n + 1
    X = TruncatedSeries.monomial(g.ring, (0,) * g.n + (1,))
    op = multiply(g.embed(n), X).sub(TruncatedSeries.constant(g.ring, 1, n))
    prod = multiply(op, a)
    t = t.embed(n)
    for I in set(prod.coeffs) | set(t.coeffs):
        if I[-1] <= D:
            assert prod.coefficient(I) == t.coefficient(I)


def fraction_laurent_solve(g, t, D):
    """Coefficients of the slice recursion a_0 = -t_0,
    a_k = g*a_(k-1) - t_k, computed with Fraction loops."""
    slices = {}
    for I, c in t.coeffs.items():
        slices.setdefault(I[-1], {})[I[:-1]] = c
    prev = {I: -c for I, c in slices.get(0, {}).items()}
    out = {I + (0,): c for I, c in prev.items()}
    for k in range(1, D + 1):
        cur = {}
        for I, a in g.coeffs.items():
            for J, b in prev.items():
                K = tuple(i + j for i, j in zip(I, J))
                cur[K] = cur.get(K, Fraction(0)) + a * b
        for I, c in slices.get(k, {}).items():
            cur[I] = cur.get(I, Fraction(0)) - c
        prev = {I: c for I, c in cur.items() if c != 0}
        out.update({I + (k,): c for I, c in prev.items()})
    return out


class TestKoszul:
    def test_weierstrass_concentrated(self):
        A = unit_polydisk(Q2)
        assert koszul_h_check(A, LocalizationSpec(WEIERSTRASS, (x_var(Q2),))) is None

    def test_laurent_concentrated(self):
        A = unit_polydisk(QA)
        assert koszul_h_check(A, LocalizationSpec(LAURENT, (x_var(QA),))) is None

    def test_single_variable_only(self):
        A = unit_polydisk(Q2)
        with pytest.raises(DimensionMismatch):
            koszul_h_check(A, LocalizationSpec(WEIERSTRASS, (x_var(Q2), x_var(Q2))))

    def test_rational_spec_rejected(self):
        A = unit_polydisk(Q2)
        with pytest.raises(DimensionMismatch):
            koszul_h_check(A, LocalizationSpec(RATIONAL, (x_var(Q2),), None,
                                                  x_var(Q2)))

    def test_spec_validated_as_localize_does(self):
        """A series in two variables over the one-variable disk and a zero
        radius are rejected, as present_localization rejects them."""
        A = unit_polydisk(Q2)
        y = TruncatedSeries.monomial(Q2, (0, 1))
        with pytest.raises(DimensionMismatch):
            koszul_h_check(A, LocalizationSpec(WEIERSTRASS, (y,)))
        with pytest.raises(ValueError):
            koszul_h_check(A, LocalizationSpec(WEIERSTRASS, (x_var(Q2),), (0,)))


class TestMayerVietoris:
    def test_exact_on_samples(self):
        # exact by theorem; the check returns how many elements validate
        elements = [{-1: Fraction(1), 0: Fraction(2), 3: Fraction(1)}, {}]
        assert mayer_vietoris(Q2, 8, elements) == 2

    def test_coefficient_outside_the_ring(self):
        with pytest.raises(NonElement):
            mayer_vietoris(integers_archimedean(), 4, [{1: Fraction(1, 2)}])

    def test_not_a_cover(self):
        with pytest.raises(NotACover):
            mayer_vietoris(Q2, 4, [], disk_radius=Fraction(1, 2),
                           annulus_inner=Fraction(1))

    def test_degree_guard(self):
        with pytest.raises(DimensionMismatch):
            mayer_vietoris(Q2, 2, [{5: Fraction(1)}])

    @pytest.mark.parametrize("key", [1.9, True, "3", Fraction(2)])
    def test_exponent_keys_must_be_ints(self, key):
        # int() would read 1.9 as 1, True as 1 and "3" as 3
        elements = [{0: Fraction(1), key: Fraction(2)}]
        with pytest.raises(ValueError, match="Laurent exponents must be "
                           "integers") as info:
            mayer_vietoris(integers_archimedean(), 8, elements)
        assert repr(key) in str(info.value)
