"""Truncated overconvergent power series over a Banach ring.

A series is a finite coefficient table supported in total degree <= D,
optionally carrying a geometric tail majorant (C, sigma) asserting
|a_I| <= C * sigma^(-I) for |I| > D.  The majorant is what certifies that
a truncation represents an overconvergent germ: every norm evaluated at a
polyradius strictly inside sigma gets a finite certified tail bound.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Dict, List, Optional, Tuple

from .errors import (
    DimensionMismatch,
    NotStrictlySmaller,
    TailDiverges,
    UnsupportedRing,
    reads_json,
)
from .scalars import (
    BanachRing,
    NormValue,
    abs_ints,
    abs_value,
    as_fraction,
    integers_archimedean,
    nth_root_interval,
    read_rational,
)

Index = Tuple[int, ...]

# radius assumed for tail majorants synthesised out of discarded exact
# terms when no input majorant supplies one
DEFAULT_DISCARD_SIGMA = Fraction(2)

# caps on a series read from JSON: the largest degree bound D for each
# variable count n, and the number of listed coefficients.  The
# Archimedean sup samples (8(D+1))^n torus points for n <= 2 and 12^n for
# n >= 3 (ranking about half of them in floats and evaluating the top
# few exactly), and `spectrum --grid 16` does so at 31 radii; at these
# caps a dense series takes it under 1 s, and took about 4 s when the
# caps were set (measured table in README)
MAX_DEGREE = {1: 48, 2: 6, 3: 4, 4: 1}
MAX_COEFFS = 64


@dataclass(frozen=True)
class PolyRadius:
    components: Tuple[Fraction, ...]

    def __post_init__(self):
        comps = tuple(map(as_fraction, self.components))
        object.__setattr__(self, "components", comps)
        if any(c.numerator <= 0 for c in comps):
            raise ValueError("polyradius components must be positive")

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def powers(self, indices) -> Tuple[List[int], int]:
        """rho^I for each index I over one denominator, on integers: with
        rho_i = x_i / y_i returns the numerators
        prod x_i^I_i y_i^(E_i - I_i) and the denominator prod y_i^E_i,
        where E_i is the largest exponent of variable i."""
        nums, den = [1] * len(indices), 1
        for i, r in enumerate(self.components):
            E = max((I[i] for I in indices), default=0)
            x, y = r.numerator, r.denominator
            xs, ys = [1], [1]
            for _ in range(E):
                xs.append(xs[-1] * x)
                ys.append(ys[-1] * y)
            nums = [P * xs[I[i]] * ys[E - I[i]] for P, I in zip(nums, indices)]
            den *= ys[E]
        return nums, den

    def strictly_less(self, other: "PolyRadius") -> bool:
        if len(self) != len(other):
            raise DimensionMismatch("polyradius length mismatch")
        return all(a < b for a, b in zip(self, other))

    def to_json(self):
        return [str(c) for c in self.components]

    @staticmethod
    def from_json(obj):
        return PolyRadius(tuple(read_rational(c) for c in obj))


def polyradius(*cs) -> PolyRadius:
    return PolyRadius(tuple(as_fraction(c) for c in cs))


@dataclass(frozen=True)
class Tail:
    C: Fraction
    sigma: PolyRadius

    def __post_init__(self):
        object.__setattr__(self, "C", as_fraction(self.C))
        if self.C < 0:
            raise ValueError("tail constant must be non-negative")


@dataclass(frozen=True)
class TruncatedSeries:
    ring: BanachRing
    n: int
    coeffs: Dict[Index, Fraction]
    degree_bound: int
    tail: Optional[Tail] = None

    def __post_init__(self):
        n, D, check = self.n, self.degree_bound, self.ring.check_element
        clean = {}
        for I, a in self.coeffs.items():
            I = tuple(map(int, I))
            if len(I) != n or (n and min(I) < 0):
                raise DimensionMismatch(f"bad multi-index {I}")
            if sum(I) > D:
                raise ValueError(f"coefficient at {I} beyond degree bound")
            a = check(a)
            if a:
                clean[I] = a
        object.__setattr__(self, "coeffs", clean)
        if self.tail is not None and len(self.tail.sigma) != self.n:
            raise DimensionMismatch("tail polyradius length mismatch")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(ring: BanachRing, c, n: int = 1,
                 degree_bound: int = 0) -> "TruncatedSeries":
        return TruncatedSeries(ring, n, {(0,) * n: as_fraction(c)}, degree_bound)

    @staticmethod
    def monomial(ring: BanachRing, I: Index, c=1, degree_bound=None,
                 n=None) -> "TruncatedSeries":
        I = tuple(I)
        n = len(I) if n is None else n
        D = sum(I) if degree_bound is None else degree_bound
        return TruncatedSeries(ring, n, {I: as_fraction(c)}, D)

    @staticmethod
    def from_univariate(ring: BanachRing, coeff_list,
                        degree_bound=None) -> "TruncatedSeries":
        D = len(coeff_list) - 1 if degree_bound is None else degree_bound
        return TruncatedSeries(
            ring, 1, {(i,): as_fraction(c) for i, c in enumerate(coeff_list)}, D
        )

    # -- basic algebra ----------------------------------------------------

    def coefficient(self, I: Index) -> Fraction:
        return self.coeffs.get(tuple(I), Fraction(0))

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        # past the smallest degree bound of a tailed operand the sum is
        # unknown; an untailed operand is exact to any degree
        tailed = [h.degree_bound for h in (self, other) if h.tail is not None]
        D = min(tailed) if tailed else max(self.degree_bound,
                                           other.degree_bound)
        coeffs = dict(self.coeffs)
        for I, a in other.coeffs.items():
            b = coeffs.get(I)
            coeffs[I] = a if b is None else b + a
        kept, dropped = {}, {}
        for I, a in coeffs.items():
            if a:
                (kept if sum(I) <= D else dropped)[I] = a
        tail = _combine_tails_add(self, other, dropped)
        return TruncatedSeries(self.ring, self.n, kept, D, tail)

    def scale(self, c) -> "TruncatedSeries":
        c = as_fraction(c)
        tail = self.tail
        if tail is not None:
            bound = abs_value(self.ring, c)
            tail = Tail(tail.C * max(bound, Fraction(1)), tail.sigma)
        return TruncatedSeries(
            self.ring,
            self.n,
            {I: c * a for I, a in self.coeffs.items()},
            self.degree_bound,
            tail,
        )

    def negate(self) -> "TruncatedSeries":
        return self.scale(Fraction(-1))

    def sub(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self.add(other.negate())

    def embed(self, n: int, offset: int = 0) -> "TruncatedSeries":
        """View in a larger variable set; original variable i becomes
        variable offset + i."""
        if offset + self.n > n:
            raise DimensionMismatch("embedding does not fit")
        coeffs = {}
        for I, a in self.coeffs.items():
            J = [0] * n
            for i, e in enumerate(I):
                J[offset + i] = e
            coeffs[tuple(J)] = a
        tail = None
        if self.tail is not None:
            # unconstrained new variables get the discard radius
            sigma = [DEFAULT_DISCARD_SIGMA] * n
            for i, s in enumerate(self.tail.sigma):
                sigma[offset + i] = s
            tail = Tail(self.tail.C, PolyRadius(tuple(sigma)))
        return TruncatedSeries(self.ring, n, coeffs, self.degree_bound, tail)

    def with_ring(self, ring: BanachRing) -> "TruncatedSeries":
        return TruncatedSeries(ring, self.n, dict(self.coeffs),
                               self.degree_bound, self.tail)

    def _check_compatible(self, other: "TruncatedSeries"):
        if self.ring != other.ring or self.n != other.n:
            raise DimensionMismatch("series over different rings or arities")

    def to_json(self):
        obj = {
            "n": self.n,
            "D": self.degree_bound,
            "coeffs": [[list(I), str(a)] for I, a in sorted(self.coeffs.items())],
        }
        if self.tail is not None:
            obj["tail"] = {"C": str(self.tail.C),
                           "sigma": self.tail.sigma.to_json()}
        return obj

    @staticmethod
    @reads_json("series")
    def from_json(obj, ring: BanachRing) -> "TruncatedSeries":
        n, D = obj["n"], obj["D"]
        if type(n) is not int or type(D) is not int:
            raise ValueError("series n and D must be integers")
        if n not in MAX_DEGREE:
            raise ValueError(f"series in {n} variables: 1 to "
                             f"{max(MAX_DEGREE)} are accepted")
        if not 0 <= D <= MAX_DEGREE[n]:
            raise ValueError(f"series degree bound {D} is outside 0.."
                             f"{MAX_DEGREE[n]} for {n} variables")
        if len(obj["coeffs"]) > MAX_COEFFS:
            raise ValueError(f"{len(obj['coeffs'])} series coefficients are "
                             f"over the cap of {MAX_COEFFS}")
        coeffs = {}
        for I, a in obj["coeffs"]:
            # each exponent a JSON integer: int() read 1.9, "2" and true
            # as 1, 2 and 1
            if any(type(e) is not int for e in I):
                raise ValueError(f"series exponents must be integers, "
                                 f"not {I!r}")
            I = tuple(I)
            if I in coeffs:
                raise ValueError(f"series multi-index {list(I)} is listed "
                                 f"twice")
            coeffs[I] = read_rational(a)
        tail = None
        if obj.get("tail"):
            tail = Tail(read_rational(obj["tail"]["C"]),
                        PolyRadius.from_json(obj["tail"]["sigma"]))
        return TruncatedSeries(ring, n, coeffs, D, tail)


def _combine_tails_add(f: TruncatedSeries, g: TruncatedSeries,
                       dropped: Dict[Index, Fraction]):
    """Tail of f + g: the summed majorants at the smaller radius, widened
    so that it also bounds the known coefficients cut off above the
    smaller degree bound."""
    if f.tail is None and g.tail is None:
        return None
    tails = [t for t in (f.tail, g.tail) if t is not None]
    sigma = PolyRadius(tuple(
        min(t.sigma[i] for t in tails) for i in range(f.n)
    ))
    extra = _gauss_norm(f.ring, dropped, sigma)
    return Tail(sum(t.C for t in tails) + extra, sigma)


# ---------------------------------------------------------------------------
# integer kernels


def _scaled_ints(coeffs: Dict[Index, Fraction]):
    """Coefficients as integer numerators over one shared denominator:
    returns ([(I, N_I)], L) with coeffs[I] == N_I / L, L the lcm of the
    coefficients' denominators.  The series kernels compute on these
    numerators and build a ``Fraction`` only when they write a result."""
    L = math.lcm(*[a.denominator for a in coeffs.values()])
    return [(I, a.numerator * (L // a.denominator))
            for I, a in coeffs.items()], L


def _convolve(fs, gs) -> Dict[Index, int]:
    """Integer convolution of two (index, numerator) lists."""
    conv: Dict[Index, int] = {}
    for I, a in fs:
        for J, b in gs:
            K = tuple(map(add, I, J))
            conv[K] = conv.get(K, 0) + a * b
    return conv


def _gauss_norm(ring: BanachRing, coeffs: Dict[Index, Fraction],
                r: PolyRadius) -> Fraction:
    """max |a_I| r^I over a coefficient table, exact (0 for an empty
    one): the sizes |a_I| = A_I / den of ``scalars.abs_ints`` times the
    radius powers r^I = P_I / Q of ``PolyRadius.powers``, compared as
    integers over the one denominator den * Q."""
    terms, L = _scaled_ints(coeffs)
    A, den = abs_ints(ring, [N for _, N in terms], L)
    P, Q = r.powers(list(coeffs))
    return Fraction(max(map(mul, A, P), default=0), den * Q)


def _homogeneous(cs, x: int, y: int) -> int:
    """sum c_k x^k y^(m - k) over cs = [c_0, ..., c_m]: by Horner's rule
    for short lists, else as the low half times y^len(high) plus the high
    half times x^len(low), which keeps the large products balanced."""
    if len(cs) <= 16:
        acc, yk = 0, 1
        for c in reversed(cs):
            acc, yk = acc * x + c * yk, yk * y
        return acc
    h = len(cs) // 2
    return (_homogeneous(cs[:h], x, y) * y ** (len(cs) - h)
            + _homogeneous(cs[h:], x, y) * x ** h)


def _weighted_sum(sizes, r: PolyRadius) -> Tuple[int, int]:
    """(S, Q) with sum s_I r^I == S / Q for (I, s_I) pairs of integers:
    with r_i = x_i / y_i and E_i the largest exponent of variable i,
    S = sum s_I prod x_i^I_i y_i^(E_i - I_i) and Q = prod y_i^E_i.
    S is folded one variable at a time, from the last, by
    ``_homogeneous``: no radius numerator is built per index."""
    if not sizes:
        return 0, 1
    Q = 1
    for ri in reversed(r.components):
        E = max([I[-1] for I, _ in sizes])
        columns = {}
        for I, s in sizes:
            J = I[:-1]
            column = columns.get(J)
            if column is None:
                column = columns[J] = [0] * (E + 1)
            column[I[-1]] = s
        x, y = ri.numerator, ri.denominator
        sizes = [(J, _homogeneous(cs, x, y)) for J, cs in columns.items()]
        Q *= y**E
    return sizes[0][1], Q


def _sum_norm(ring: BanachRing, terms, L: int, r: PolyRadius) -> Fraction:
    """sum |N_I / L| r^I over (I, N_I) pairs of integers, exact: the sizes
    of ``scalars.abs_ints`` summed by ``_weighted_sum``."""
    A, den = abs_ints(ring, [N for _, N in terms], L)
    S, Q = _weighted_sum([(I, a) for (I, _), a in zip(terms, A)], r)
    return Fraction(S, den * Q)


# ---------------------------------------------------------------------------
# norms


def _check_tail_radius(f: TruncatedSeries, rho: PolyRadius):
    if f.tail is not None:
        if not all(r < s for r, s in zip(rho, f.tail.sigma)):
            raise TailDiverges(
                f"tail radius {','.join(map(str, f.tail.sigma))} does not "
                f"dominate evaluation radius {','.join(map(str, rho))}"
            )


def _tail_sum_bound(f: TruncatedSeries, rho: PolyRadius) -> Fraction:
    """Upper bound on sum over |I| > D of |a_I| rho^I under the majorant:
    C * (prod 1/(1 - rho_i/sigma_i) - partial sum over |I| <= D)."""
    if f.tail is None or f.tail.C == 0:
        return Fraction(0)
    ratios = PolyRadius(tuple(r / s for r, s in zip(rho, f.tail.sigma)))
    full = Fraction(1)
    for q in ratios:
        full /= 1 - q
    D = f.degree_bound
    S, Q = _weighted_sum([(I, 1) for I in itertools.product(
        range(D + 1), repeat=f.n) if sum(I) <= D], ratios)
    return f.tail.C * (full - Fraction(S, Q))


def _tail_max_bound(f: TruncatedSeries, rho: PolyRadius) -> Fraction:
    """Upper bound on max over |I| > D of |a_I| rho^I under the majorant."""
    if f.tail is None or f.tail.C == 0:
        return Fraction(0)
    r = max(x / s for x, s in zip(rho, f.tail.sigma))
    return f.tail.C * r ** (f.degree_bound + 1)


def _weighted_ints(terms, L: int, rho: PolyRadius):
    """The terms a_I rho^I on integers, for coefficients a_I = N_I / L
    given as (I, N_I) pairs: returns ([(I, w_I)], den) with
    a_I rho^I == w_I / den, where w_I = N_I P_I and den = L Q for the
    radius powers rho^I = P_I / Q of ``PolyRadius.powers``."""
    nums, Q = rho.powers([I for I, _ in terms])
    return [(I, N * P) for (I, N), P in zip(terms, nums)], L * Q


def norm_S(f: TruncatedSeries, rho: PolyRadius) -> NormValue:
    """Coefficient-sum norm: sum |a_I| rho^I, tail bounded above."""
    if len(rho) != f.n:
        raise DimensionMismatch("polyradius arity mismatch")
    _check_tail_radius(f, rho)
    poly = _sum_norm(f.ring, *_scaled_ints(f.coeffs), rho)
    if f.tail is None:
        return NormValue(poly, poly)
    return NormValue(poly, poly + _tail_sum_bound(f, rho))


# rational points on the unit circle via the tangent half-angle map, built
# once per count (of the last 64 asked for), as an immutable tuple
@functools.lru_cache(maxsize=64)
def _unit_circle_points(count: int) -> Tuple[Tuple[Fraction, Fraction], ...]:
    pts = [(Fraction(1), Fraction(0))]
    k = 1
    denom = max(count // 8, 1)
    while len(pts) < max(count // 8, 2):
        t = Fraction(k, denom + k)
        c = (1 - t * t) / (1 + t * t)
        s = 2 * t / (1 + t * t)
        pts.append((c, s))
        k += 1
    out = []
    for c, s in pts:
        for cc, ss in ((c, s), (-c, s), (c, -s), (-c, -s),
                       (s, c), (-s, c), (s, -c), (-s, -c)):
            out.append((cc, ss))
    # drop repeats, keeping first occurrences in order
    return tuple(dict.fromkeys(out))


def _power_table(zr: Fraction, zi: Fraction, E: int):
    """Powers of z = zr + i*zi = (x + iy)/q over one denominator: returns
    ([(re, im) of (x + iy)^e * q^(E - e) for e = 0..E], q^E)."""
    q = math.lcm(zr.denominator, zi.denominator)
    x = zr.numerator * (q // zr.denominator)
    y = zi.numerator * (q // zi.denominator)
    qpow = q**E
    table = []
    re, im, scale = 1, 0, qpow
    for _ in range(E + 1):
        table.append((re * scale, im * scale))
        re, im, scale = re * x - im * y, re * y + im * x, scale // q
    return table, qpow


def _combine(terms, tables):
    """Sum of N_I * prod_i tables[i][I_i] over the (I, N_I) terms, as a
    Gaussian integer (re, im)."""
    re_total = im_total = 0
    for I, N in terms:
        re, im = N, 0
        for table, e in zip(tables, I):
            tr, ti = table[e]
            re, im = re * tr - im * ti, re * ti + im * tr
        re_total += re
        im_total += im
    return re_total, im_total


def evaluate_complex(f: TruncatedSeries, points):
    """Evaluate at z_i = (re_i, im_i) exactly; returns (re, im).

    Works in Gaussian integers: with z_i = (x_i + i*y_i)/q_i and E_i the
    largest exponent of variable i, every term is brought over the one
    denominator L * prod q_i^E_i, where L is the coefficients' lcm.
    """
    terms, den = _scaled_ints(f.coeffs)
    tables = []
    for i, (zr, zi) in zip(range(f.n), points):
        E = max((I[i] for I, _ in terms), default=0)
        table, qpow = _power_table(zr, zi, E)
        tables.append(table)
        den *= qpow
    re, im = _combine(terms, tables)
    return Fraction(re, den), Fraction(im, den)


# the float ranking of torus samples is skipped, and every sample is
# evaluated exactly, when its error bound delta is above this; delta is
# far below it at every input cap
MAX_RANKING_ERROR = 2.0**-30


def _float_magnitudes(weighted, axes, exps) -> List[float]:
    """|g(u)| in floats at every torus sample u, in the order of
    ``itertools.product`` over the axes, for g(u) = sum beta_I u^I with
    beta_I = w_I / S and S = sum |w_I|.

    Every axis but the last is folded into a dense coefficient list over
    the last axis's exponent, which is then evaluated at each point of
    the last axis."""
    S = sum(abs(w) for _, w in weighted)
    beta = [(I, w / S) for I, w in weighted]
    tables = []
    for points, E in zip(axes, exps):
        rows = []
        for c, s in points:
            u, powers = complex(float(c), float(s)), [1 + 0j]
            for _ in range(E):
                powers.append(powers[-1] * u)
            rows.append(powers)
        tables.append(rows)
    *prefix_axes, last_axis = tables
    mags = []
    for prefix in itertools.product(*prefix_axes):
        h = [0j] * (exps[-1] + 1)
        for I, b in beta:
            for powers, e in zip(prefix, I):
                b = b * powers[e]
            h[I[-1]] += b
        mags.extend(abs(sum(map(mul, h, powers))) for powers in last_axis)
    return mags


def _torus_max_sq(f: TruncatedSeries, weighted,
                  points_per_var: Optional[int] = None) -> Fraction:
    """Largest |sum w_I u^I|^2 over the torus samples u, exact, for the
    (I, w_I) pairs of ``_weighted_ints``: this is den^2 times the
    largest |f(z)|^2 over the samples z = rho * u of |z_i| = rho_i.

    Two passes.  Floats rank every sample by |g(u)|, where
    g = sum beta_I u^I with beta_I = w_I / S and S = sum |w_I|, so that
    sum |beta_I| = 1 at any radius and any coefficient size and nothing
    overflows or underflows beyond an absolute 2^-1074 per operation.
    Only the samples within 2*delta of the float maximum are then
    evaluated exactly, and the exact maximum among them is returned.

    The error bound.  Let eps = 2^-53, T the number of terms, n the
    number of variables and D the largest total degree.  Every sample u
    has |u_i| = 1 exactly (c^2 + s^2 = 1), so |beta_I u^I| = |beta_I|.
    Correctly rounded int division and ``float`` of a ``Fraction`` give
    each beta_I and each u_i within relative eps; a complex product,
    computed with or without a fused multiply-add, is within
    sqrt(8)*eps*|x||y| of xy, a complex sum within eps*|x + y| of x + y
    (a compensated ``sum`` only tightens this), and ``abs`` of a value
    below 2 within 2*eps.  So the computed power u_i^e is within
    (1 + sqrt(8))*e*eps < 4*e*eps of u_i^e; a computed term, after its
    n products, within (1 + 4|I| + 3n)*eps*|beta_I|; and each term meets
    at most T - 1 + D additions (into its bucket, then across the D + 1
    buckets).  With sum |beta_I| = 1 the computed |g(u)| is within
    delta_0 = 1.01*(T + 5D + 3n + 2)*eps + 2^-1000 of the exact one: the
    factor 1.01 covers the second-order terms and 2^-1000 underflow,
    since delta <= MAX_RANKING_ERROR keeps T, n and D below 2^20.  That
    is below delta - 4*eps for delta = 8*eps*(T + n(D + 1) + 4).

    Why the exact maximum survives.  Let u* attain the exact maximum M.
    Its float magnitude is at least M - delta_0, and no float magnitude
    exceeds M + delta_0, so u*'s is at least (float max) - 2*delta_0.
    The cutoff (float max) - 2*delta is rounded by at most 2*eps (it
    lies below 2), which keeps it below that, so u* is evaluated
    exactly.  Floats only choose which samples to evaluate: a wrong
    delta could lower the result, never raise it above a sampled value.
    """
    if not weighted:
        return Fraction(0)
    if points_per_var is None:
        points_per_var = 8 * (f.degree_bound + 1) if f.n <= 2 else 8
    circle = _unit_circle_points(points_per_var)
    exps = [max(I[i] for I, _ in weighted) for i in range(f.n)]
    # rational coefficients give |f(conj z)| = |f(z)|, and the circle is
    # closed under conjugation: the first axis needs only im >= 0
    axes = [[p for p in circle if i or p[1] >= 0] for i in range(f.n)]
    samples = itertools.product(*(range(len(points)) for points in axes))
    D = max(sum(I) for I, _ in weighted)
    delta = (len(weighted) + f.n * (D + 1) + 4) * 2.0**-50
    if delta <= MAX_RANKING_ERROR:
        mags = _float_magnitudes(weighted, axes, exps)
        cutoff = max(mags) - 2 * delta
        samples = itertools.compress(samples, map(cutoff.__le__, mags))
    # each axis's power tables, built once per evaluated circle point; the
    # largest (re^2 + im^2) / prod(q_i^E_i)^2 so far as num/den
    tables = [{} for _ in axes]
    num, den = 0, 1
    for sample in samples:
        row, q = [], 1
        for points, E, built, j in zip(axes, exps, tables, sample):
            if j not in built:
                built[j] = _power_table(*points[j], E)
            table, qpow = built[j]
            row.append(table)
            q *= qpow
        re, im = _combine(weighted, row)
        sq_num, sq_den = re * re + im * im, q * q
        if sq_num * den > num * sq_den:
            num, den = sq_num, sq_den
    return Fraction(num, den)


def _torus_lower_bound(f: TruncatedSeries, weighted, den: int,
                       points_per_var: Optional[int] = None) -> Fraction:
    """Certified lower bound for sup |f(z)| on the torus |z_i| = rho_i of
    the known coefficients alone, from ``_weighted_ints``: the
    largest exactly evaluated sample, rounded down by the root bracket."""
    best_sq = _torus_max_sq(f, weighted, points_per_var) / (den * den)
    return nth_root_interval(NormValue.exact(best_sq), 2, Fraction(1, 10**9)).lo


def norm_T(f: TruncatedSeries, rho: PolyRadius) -> NormValue:
    """Spectral/sup norm on the polydisk.

    Non-Archimedean ring: the Gauss norm max |a_I| rho^I, exact up to the
    tail bound.  Archimedean ring: bracketed between the Cauchy
    coefficient bound max |a_I| rho^I (raised by exact torus samples when
    the tail is zero: a member's unknown tail terms can cancel the known
    ones on the torus) and the coefficient sum.
    """
    if len(rho) != f.n:
        raise DimensionMismatch("polyradius arity mismatch")
    _check_tail_radius(f, rho)
    if f.ring.non_archimedean:
        gauss = _gauss_norm(f.ring, f.coeffs, rho)
        if f.tail is None:
            return NormValue(gauss, gauss)
        return NormValue(gauss, max(gauss, _tail_max_bound(f, rho)))
    # the Cauchy bound, the coefficient sum and the torus sampler share
    # the integers a_I rho^I = w_I / den
    weighted, den = _weighted_ints(*_scaled_ints(f.coeffs), rho)
    sizes = [abs(w) for _, w in weighted]
    hi = Fraction(sum(sizes), den) + _tail_sum_bound(f, rho)
    lo = Fraction(max(sizes, default=0), den)
    if f.tail is None or not f.tail.C:
        lo = max(lo, _torus_lower_bound(f, weighted, den))
    return NormValue(min(lo, hi), hi)


# ---------------------------------------------------------------------------
# multiplication


def _poly_growth_constant(n: int) -> Fraction:
    """max over m >= 0 of (m+1)^n * (3/4)^m, exact.

    The ratio of consecutive terms, ((m+2)/(m+1))^n * 3/4, falls with m,
    so the sequence is unimodal: its maximum is the first term that the
    next one falls strictly below."""
    mu = Fraction(3, 4)
    m, cur = 0, Fraction(1)
    while (nxt := (m + 2) ** n * mu ** (m + 1)) >= cur:
        m, cur = m + 1, nxt
    return cur


def multiply(f: TruncatedSeries, g: TruncatedSeries,
             D: Optional[int] = None) -> TruncatedSeries:
    """Coefficient convolution truncated at D with a combined tail majorant.

    Known coefficients below the bound are exact; anything discarded or
    unknown is folded into a geometric tail with radius shrunk by 3/4 to
    absorb the polynomial count of convolution cross terms.  A factor
    with a tail leaves its product coefficients above its own degree
    bound unknown, so the exact part then stops there.
    """
    f._check_compatible(g)
    if D is None:
        D = f.degree_bound + g.degree_bound
    tailed = [h for h in (f, g) if h.tail is not None]
    D = min([D] + [h.degree_bound for h in tailed])
    fs, Lf = _scaled_ints(f.coeffs)
    gs, Lg = _scaled_ints(g.coeffs)
    conv = _convolve(fs, gs)
    L = Lf * Lg
    kept = {K: Fraction(c, L) for K, c in conv.items() if c and sum(K) <= D}

    tail = None
    if tailed:
        # the majorant bounds every true product coefficient, so the
        # partial sums above D are dropped
        sigma_min = tuple(
            min(
                f.tail.sigma[i] if f.tail else DEFAULT_DISCARD_SIGMA,
                g.tail.sigma[i] if g.tail else DEFAULT_DISCARD_SIGMA,
            )
            for i in range(f.n)
        )
        Cf = _global_majorant_constant(f, sigma_min)
        Cg = _global_majorant_constant(g, sigma_min)
        sigma = PolyRadius(tuple(s * Fraction(3, 4) for s in sigma_min))
        tail = Tail(Cf * Cg * _poly_growth_constant(f.n), sigma)
    else:
        discarded = {K: Fraction(c, L) for K, c in conv.items()
                     if c and sum(K) > D}
        if discarded:
            sigma = PolyRadius((DEFAULT_DISCARD_SIGMA,) * f.n)
            tail = Tail(_gauss_norm(f.ring, discarded, sigma), sigma)
    return TruncatedSeries(f.ring, f.n, kept, D, tail)


def _global_majorant_constant(f: TruncatedSeries, sigma) -> Fraction:
    """Smallest C with |a_I| <= C * sigma^(-I) for all I (known and tail)."""
    C = f.tail.C if f.tail is not None else Fraction(0)
    return max(C, _gauss_norm(f.ring, f.coeffs, PolyRadius(tuple(sigma))))


# ---------------------------------------------------------------------------
# cofinality of the S- and T-systems


def cofinality_constant(rho: PolyRadius, rho_prime: PolyRadius) -> Fraction:
    """Bound constant for restriction from the sup norm at rho' to the sum
    norm at rho: max over i of rho'_i / (rho'_i - rho_i)."""
    if not rho.strictly_less(rho_prime):
        raise NotStrictlySmaller("need rho < rho' componentwise")
    return max(rp / (rp - r) for r, rp in zip(rho, rho_prime))


def base_change(f: TruncatedSeries, target: BanachRing) -> TruncatedSeries:
    """Termwise coefficient transport from the Archimedean integers."""
    if f.ring != integers_archimedean():
        raise UnsupportedRing("base change starts from the integer ring")
    return f.with_ring(target)


# ---------------------------------------------------------------------------
# dagger-algebra presentations


@dataclass(frozen=True)
class DaggerPresentation:
    """Quotient presentation of an overconvergent polydisk algebra:
    n variables at the given polyradius, modulo the listed relations."""

    ring: BanachRing
    n: int
    rho: PolyRadius
    relations: Tuple[TruncatedSeries, ...] = ()

    def __post_init__(self):
        if len(self.rho) != self.n:
            raise DimensionMismatch("polyradius arity mismatch")
        for rel in self.relations:
            if rel.ring != self.ring or rel.n != self.n:
                raise DimensionMismatch("relation in the wrong algebra")

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "n": self.n,
            "rho": self.rho.to_json(),
            "relations": [r.to_json() for r in self.relations],
        }

    @staticmethod
    @reads_json("algebra")
    def from_json(obj):
        ring = BanachRing.from_json(obj["ring"])
        return DaggerPresentation(
            ring,
            obj["n"],
            PolyRadius.from_json(obj["rho"]),
            tuple(TruncatedSeries.from_json(r, ring) for r in obj["relations"]),
        )


def unit_polydisk(ring: BanachRing, n: int = 1) -> DaggerPresentation:
    return DaggerPresentation(ring, n, PolyRadius((Fraction(1),) * n))
