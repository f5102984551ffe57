"""Member-sampling oracles for tailed series.

A tailed series stands for every power series whose coefficients equal
the known ones up to the degree bound D and satisfy |c_I| <= C sigma^-I
past it.  Each strategy here draws such a series together with one
concrete member: a polynomial with the known coefficients and exact
coefficients up to degree D + 3 inside the majorant.  The oracles then
check the package's promise on that member: the result of an operation
on members is a member of the reported series, and every reported norm
interval holds the member's norm.
"""

import itertools
import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from daggeralg.scalars import (
    integers_archimedean,
    integers_trivial,
    rationals_archimedean,
    rationals_padic,
)
from daggeralg.series import (
    PolyRadius,
    Tail,
    TruncatedSeries,
    multiply,
    norm_S,
    norm_T,
    polyradius,
)
from daggeralg.spectrum import fiber_sup, shilov_check, spectral_via_powers
from intervals import contains

RINGS = {"Z": integers_archimedean(), "Ztriv": integers_trivial(),
         "Q2": rationals_padic(2), "R": rationals_archimedean()}
EXTRA_DEGREES = 3
# circle samples per half turn on each axis; the angular half-gap is 1/N
CIRCLE_N = {1: 48, 2: 16}


def _indices(n, D):
    if n == 1:
        return [(d,) for d in range(D + 1)]
    return [(i, d - i) for d in range(D + 1) for i in range(d + 1)]


def _val(p, c):
    c, v = Fraction(c), 0
    num, den = c.numerator, c.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _abs(kind, c):
    """The ring's absolute value, written out independently."""
    if not c:
        return Fraction(0)
    if kind == "Ztriv":
        return Fraction(1)
    if kind == "Q2":
        return Fraction(2) ** -_val(2, c)
    return abs(Fraction(c))


def _power(rho, I):
    return math.prod((Fraction(r) ** e for r, e in zip(rho, I)), start=Fraction(1))


def _known(draw, kind):
    num = draw(st.integers(-5, 5))
    if kind == "Q2":
        return Fraction(num) * Fraction(2) ** draw(st.integers(-2, 2))
    if kind == "R":
        return Fraction(num, draw(st.integers(1, 4)))
    return Fraction(num)


def _within(draw, kind, bound, largest):
    """A ring element c with |c| <= bound; the largest such size (with a
    positive sign) when largest is set, so that products and sums of
    members press against the reported majorants."""
    if kind == "Z":
        m = math.floor(bound)
        return Fraction(m if largest else draw(st.integers(-m, m)))
    if kind == "R":
        return bound * Fraction(4 if largest else draw(st.integers(-4, 4)), 4)
    if kind == "Ztriv":
        if bound < 1:
            return Fraction(0)
        return Fraction(1 if largest else draw(st.integers(-5, 5)))
    if not bound:
        return Fraction(0)
    k = -16  # smallest k with |2^k|_2 = 2^-k <= bound
    while Fraction(2) ** -k > bound:
        k += 1
    if largest:
        return Fraction(2) ** k
    unit = draw(st.sampled_from([0, 1, -1, 3, -3]))
    return unit * Fraction(2) ** (k + draw(st.integers(0, 2)))


@st.composite
def tailed(draw, kind, n):
    """(series, member): a tailed series over RINGS[kind] in n variables
    and one member, as {index: coefficient}."""
    D = draw(st.integers(0, 3 if n == 1 else 1))
    coeffs = {I: _known(draw, kind) for I in _indices(n, D)}
    C = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(3),
                              Fraction(100)]))
    sigma = tuple(draw(st.sampled_from([Fraction(3, 2), Fraction(2),
                                        Fraction(3)])) for _ in range(n))
    f = TruncatedSeries(RINGS[kind], n, coeffs, D, Tail(C, PolyRadius(sigma)))
    member, largest = dict(f.coeffs), draw(st.booleans())
    for I in _indices(n, D + EXTRA_DEGREES):
        if sum(I) > D:
            member[I] = _within(draw, kind, C / _power(sigma, I), largest)
    return f, {I: c for I, c in member.items() if c}


kinds = st.sampled_from(sorted(RINGS))
arities = st.integers(1, 2)
radii = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(5, 4)])


@st.composite
def single(draw, kind_choices=kinds):
    """(kind, series, member, rho), rho strictly inside the tail radius."""
    kind, n = draw(kind_choices), draw(arities)
    f, member = draw(tailed(kind, n))
    return kind, f, member, tuple(draw(radii) for _ in range(n))


@st.composite
def pair(draw):
    kind, n = draw(kinds), draw(arities)
    return (kind,) + draw(tailed(kind, n)) + draw(tailed(kind, n))


def _add(a, b):
    out = dict(a)
    for I, c in b.items():
        out[I] = out.get(I, 0) + c
    return {I: c for I, c in out.items() if c}


def _mul(a, b):
    out = {}
    for I, x in a.items():
        for J, y in b.items():
            K = tuple(i + j for i, j in zip(I, J))
            out[K] = out.get(K, 0) + x * y
    return {I: c for I, c in out.items() if c}


def assert_member(kind, series, member):
    """member agrees with the known coefficients and lies under the tail
    majorant past the degree bound."""
    D, tail = series.degree_bound, series.tail
    for I in set(member) | set(series.coeffs):
        c = member.get(I, Fraction(0))
        if sum(I) <= D:
            assert c == series.coefficient(I), (I, c)
        elif c:
            assert tail is not None, (I, c)
            assert _abs(kind, c) <= tail.C / _power(tail.sigma, I), (I, c)


# FOUND member: 1 + X with tail(C=100, sigma=2) over R has the member
# 1 + z - (9/20) z^2 + (3/20) z^3, whose sup on |z| = 1 is about 1.70
FOUND = ("R",
         TruncatedSeries(RINGS["R"], 1, {(0,): Fraction(1), (1,): Fraction(1)},
                         1, Tail(Fraction(100), polyradius(2))),
         {(0,): Fraction(1), (1,): Fraction(1), (2,): Fraction(-9, 20),
          (3,): Fraction(3, 20)},
         (Fraction(1),))


class TestOperationsKeepMembers:
    @given(pair())
    @settings(max_examples=100, deadline=None)
    def test_add(self, case):
        kind, f, mf, g, mg = case
        assert_member(kind, f.add(g), _add(mf, mg))

    @given(single(), st.integers(-6, 6), st.integers(-2, 2))
    @settings(max_examples=100, deadline=None)
    def test_scale(self, case, num, k):
        kind, f, member, _ = case
        c = Fraction(num) if kind in ("Z", "Ztriv") else \
            Fraction(num) * Fraction(2) ** k
        assert_member(kind, f.scale(c), {I: c * a for I, a in member.items()
                                         if c * a})

    @given(pair())
    @settings(max_examples=200, deadline=None)
    def test_multiply(self, case):
        kind, f, mf, g, mg = case
        assert_member(kind, multiply(f, g), _mul(mf, mg))

    @given(single(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_multiply_by_a_polynomial(self, case, data):
        # an untailed factor is its own member and imposes no radius: the
        # product's tail reaches 3/4 of f's radius over Z and R, all of it
        # over Z_triv and Q_2, and the sum norm there, past the radius 2
        # once taken for the polynomial, holds the member's
        kind, f, member, _ = case
        D = data.draw(st.integers(0, 2))
        poly = {I: c for I in _indices(f.n, D)
                if (c := data.draw(st.sampled_from([0, 1, -3])))}
        product = multiply(f, TruncatedSeries(RINGS[kind], f.n, poly, D))
        value = _mul(member, poly)
        assert_member(kind, product, value)
        shrink = Fraction(3, 4) if kind in ("Z", "R") else 1
        rho = tuple(s * shrink * Fraction(9, 10) for s in f.tail.sigma)
        assert contains(norm_S(product, PolyRadius(rho)),
                        sum((_abs(kind, c) * _power(rho, I)
                             for I, c in value.items()), Fraction(0)))


class TestNormsHoldMembers:
    @given(single())
    @settings(max_examples=100, deadline=None)
    def test_norm_S(self, case):
        kind, f, member, rho = case
        value = sum((_abs(kind, c) * _power(rho, I) for I, c in member.items()),
                    Fraction(0))
        assert contains(norm_S(f, PolyRadius(rho)), value)

    @given(single(st.sampled_from(["Ztriv", "Q2"])))
    @settings(max_examples=100, deadline=None)
    def test_gauss_norm_T(self, case):
        kind, f, member, rho = case
        value = max((_abs(kind, c) * _power(rho, I) for I, c in member.items()),
                    default=Fraction(0))
        assert contains(norm_T(f, PolyRadius(rho)), value)

    @given(single(st.just("Z")), st.sampled_from([None, 2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_nonarchimedean_fiber_sup(self, case, p):
        # the trivial (p = None) or the p-adic fiber sup of the member is
        # max |c_I|_v rho^I
        _, f, member, rho = case
        nv = fiber_sup(f, _place_ring(p), PolyRadius(rho))
        assert contains(nv, _place_gauss(p, member, rho))

    @given(single(st.just("Z")), st.booleans(), st.sampled_from([None, 2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_integer_tail_bound(self, case, on_sigma, p):
        # at rho <= sigma every nonzero tail coefficient c_I of an integer
        # member has rho^I <= sigma^I <= C, so the trivial and p-adic
        # fiber sups and shilov's other fibers are bounded; rho = sigma
        # presses the members' largest coefficients against the bound
        _, f, member, rho = case
        if on_sigma:
            rho = f.tail.sigma.components
        nv = fiber_sup(f, _place_ring(p), PolyRadius(rho))
        assert nv.hi is not None and contains(nv, _place_gauss(p, member,
                                                               rho))
        if f.coeffs and not on_sigma:
            # the other fibers of the member are at most its trivial one
            other = shilov_check(f, PolyRadius(rho)).max_other
            assert contains(other, max(_power(rho, I) for I in member))

    @given(single(st.sampled_from(["Z", "R"])))
    @example(FOUND)
    @settings(max_examples=60, deadline=None)
    def test_archimedean_norm_T(self, case):
        # lo must not exceed an upper bound on the member's sup, and hi
        # must reach every sampled value
        _, f, member, rho = case
        nv = norm_T(f, PolyRadius(rho))
        best_sq, factor = _sampled_sup(member, rho, CIRCLE_N[f.n])
        assert nv.hi ** 2 >= best_sq
        assert (nv.lo * factor) ** 2 <= best_sq


def _place_ring(p):
    return integers_trivial() if p is None else rationals_padic(p)


def _place_gauss(p, member, rho):
    """max |c_I|_v rho^I over the member at the trivial place (p = None)
    or the p-adic one."""
    size = (lambda c: Fraction(1)) if p is None else \
        (lambda c: Fraction(p) ** -_val(p, c))
    return max((size(c) * _power(rho, I) for I, c in member.items()),
               default=Fraction(0))


class TestPowerEstimatesHoldMembers:
    @given(single(), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_spectral_via_powers(self, case, n_max):
        # each estimate is at least |F^k|_S^(1/k) of the member F: compare
        # k-th powers, which are rational
        kind, f, member, rho = case
        estimates = spectral_via_powers(f, PolyRadius(rho), n_max)
        power = {(0,) * f.n: Fraction(1)}
        for k, nv in enumerate(estimates, 1):
            power = _mul(power, member)
            value = sum((_abs(kind, c) * _power(rho, I)
                         for I, c in power.items()), Fraction(0))
            assert nv.hi ** k >= value


def _circle(N, r):
    """Points of the circle |z| = r as (a, b, q), z = (a + bi) / q: r times
    the rational unit points at the angles 2 arctan(j/N), |j| <= N, and
    those turned by pi.  Together they close the circle, and neighbouring
    angles differ by at most 2/N, since arctan' <= 1."""
    for j in range(-N, N + 1):
        a, b = r.numerator * (N * N - j * j), r.numerator * 2 * j * N
        q = r.denominator * (N * N + j * j)
        yield a, b, q
        yield -a, -b, q


def _sampled_sup(member, rho, N):
    """(best, factor): best is the largest |f(z)|^2 over a grid of circle
    samples on the torus |z_i| = rho_i, and sup |f| <= sqrt(best) / factor.

    Along axis i, f is a trigonometric polynomial of degree d_i in the
    angle, so Bernstein's inequality bounds |f'| by d_i sup |f|.  Every
    angle is within h = 1/N of a sample, so the sup over a circle is at
    most the sampled maximum over (1 - d_i h); the factor is the product
    over the axes.  The samples are computed on integers: with L the
    coefficients' common denominator, f(z) is a Gaussian integer over
    L * prod q_i^d_i.
    """
    degrees = [max((I[i] for I in member), default=0) for i in range(len(rho))]
    factor = math.prod((1 - Fraction(d, N) for d in degrees), start=Fraction(1))
    assert factor > 0
    L = math.lcm(*(c.denominator for c in member.values()))
    terms = [(I, int(c * L)) for I, c in member.items()]
    axes = []
    for r, d in zip(rho, degrees):
        table = []
        for a, b, q in _circle(N, Fraction(r)):
            # (a + bi)^e * q^(d - e) for e = 0..d, over q^d
            row, pr, pi = [], 1, 0
            for e in range(d + 1):
                row.append((pr * q ** (d - e), pi * q ** (d - e)))
                pr, pi = pr * a - pi * b, pr * b + pi * a
            table.append((row, q ** d))
        axes.append(table)
    best_num, best_den = 0, 1
    for point in itertools.product(*axes):
        re = im = 0
        for I, c in terms:
            pr, pi = c, 0
            for (row, _), e in zip(point, I):
                qr, qi = row[e]
                pr, pi = pr * qr - pi * qi, pr * qi + pi * qr
            re += pr
            im += pi
        den = math.prod(qd for _, qd in point) ** 2
        num = re * re + im * im
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(best_num, best_den * L * L), factor
