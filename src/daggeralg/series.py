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
    NULL,
    DimensionMismatch,
    NotStrictlySmaller,
    TailDiverges,
    UnsupportedRing,
    members,
)
from .scalars import (
    BanachRing,
    NormValue,
    abs_ints,
    abs_value,
    as_fraction,
    integers_archimedean,
    nth_root_interval,
    over_lcm,
    read_rational,
)

Index = Tuple[int, ...]

# tail radius along a variable that no majorant constrains: the new
# variables of ``embed`` and an untailed factor of a tailed ``multiply``
DEFAULT_DISCARD_SIGMA = Fraction(2)

# caps on a series read from JSON: the largest degree bound D for each
# variable count n, which allows C(D + n, n) <= 49 listed coefficients,
# one per multi-index.  The Archimedean sup samples at most (8(D+1))^n
# torus points for n <= 2 and 12^n for n >= 3 (ranking about half of
# them in floats, row by row, skipping the rows that cannot reach the
# float maximum, and evaluating the top few exactly); at these caps a
# dense series takes `norm` under 10 ms and `spectrum` about 0.1 s in
# process, and `spectrum` took about 4 s at 31 radii when the caps were
# set (measured table in README)
MAX_DEGREE = {1: 48, 2: 6, 3: 4, 4: 1}


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Tail:
    C: Fraction
    sigma: PolyRadius

    def __post_init__(self):
        object.__setattr__(self, "C", as_fraction(self.C))
        if self.C < 0:
            raise ValueError("tail constant must be non-negative")


@dataclass(frozen=True, slots=True)
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
            if any(type(e) is not int for e in I):  # int() reads 1.9 as 1
                raise ValueError(f"series exponents must be integers, "
                                 f"not {list(I)!r}")
            I = tuple(I)
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
    def monomial(ring: BanachRing, I: Index, c=1,
                 degree_bound=None) -> "TruncatedSeries":
        I = tuple(I)
        D = sum(I) if degree_bound is None else degree_bound
        return TruncatedSeries(ring, len(I), {I: as_fraction(c)}, D)

    @staticmethod
    def from_univariate(ring: BanachRing, coeff_list) -> "TruncatedSeries":
        return TruncatedSeries(
            ring, 1, {(i,): as_fraction(c) for i, c in enumerate(coeff_list)},
            len(coeff_list) - 1)

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

    def embed(self, n: int) -> "TruncatedSeries":
        """View in a larger variable set: the variables keep their
        places, and the new ones come last."""
        new = n - self.n
        if new < 0:
            raise DimensionMismatch("embedding does not fit")
        coeffs = {I + (0,) * new: a for I, a in self.coeffs.items()}
        tail = self.tail
        if tail is not None:
            # unconstrained new variables get the discard radius
            tail = Tail(tail.C, PolyRadius(
                tail.sigma.components + (DEFAULT_DISCARD_SIGMA,) * new))
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
    def from_json(obj, ring: BanachRing) -> "TruncatedSeries":
        n, D, pairs, tail = members(obj, "series", {
            "n": int, "D": int, "coeffs": list, "tail": (dict, NULL)})
        if n not in MAX_DEGREE:
            raise ValueError(f"series in {n} variables: 1 to "
                             f"{max(MAX_DEGREE)} are accepted")
        if not 0 <= D <= MAX_DEGREE[n]:
            raise ValueError(f"series degree bound {D} is outside 0.."
                             f"{MAX_DEGREE[n]} for {n} variables")
        cap = math.comb(D + n, n)
        if len(pairs) > cap:
            raise ValueError(f"{len(pairs)} series coefficients are over "
                             f"the cap of C(D + n, n) = {cap}")
        coeffs = {}
        for pair in pairs:
            I = pair[0] if type(pair) is list and len(pair) == 2 else None
            # the exponents are checked before the multi-index is hashed
            if type(I) is not list or any(type(e) is not int for e in I):
                raise ValueError("malformed series: a coefficient is "
                                 "[[integer exponents], rational]")
            I = tuple(I)
            # a dict cannot repeat a key, but a JSON list can
            if I in coeffs:
                raise ValueError(f"series multi-index {list(I)} is listed "
                                 f"twice")
            coeffs[I] = read_rational(pair[1])
        if tail is not None:
            C, sigma = members(tail, "series tail", {"C": (str, int),
                                                     "sigma": list})
            tail = Tail(read_rational(C), PolyRadius.from_json(sigma))
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
    """``over_lcm`` of the coefficients, as ([(I, N_I)], L)."""
    nums, L = over_lcm(list(coeffs.values()))
    return list(zip(coeffs, nums)), L


def _sizes(ring: BanachRing, coeffs: Dict[Index, Fraction],
           r: PolyRadius) -> Tuple[List[int], int]:
    """The sizes |a_I| r^I of a coefficient table on integers, as
    ([A_I P_I], den * Q): the |a_I| = A_I / den of ``scalars.abs_ints``
    times the radius powers r^I = P_I / Q of ``PolyRadius.powers``."""
    A, den = abs_ints(ring, *over_lcm(list(coeffs.values())))
    P, Q = r.powers(list(coeffs))
    return list(map(mul, A, P)), den * Q


def _gauss_norm(ring: BanachRing, coeffs: Dict[Index, Fraction],
                r: PolyRadius) -> Fraction:
    """max |a_I| r^I over a coefficient table, exact (0 for an empty
    one), from ``_sizes``."""
    sizes, den = _sizes(ring, coeffs, r)
    return Fraction(max(sizes, default=0), den)


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


def _pack(indices, radices) -> List[int]:
    """Each multi-index I, with I_i < radices[i], as the one integer whose
    digits in the mixed radix ``radices`` are the I_i, the last variable
    the lowest digit.  The sum of two packed indices is the packed sum of
    the indices while no digit reaches its radix."""
    keys = [0] * len(indices)
    for column, R in zip(zip(*indices), radices):
        keys = map(add, map(mul, keys, itertools.repeat(R)), column)
    return list(keys)


def _packed_sum(sizes, r: PolyRadius, radices, exps) -> Tuple[int, int]:
    """(S, Q) with sum s_I r^I == S / Q for (K, s_I) pairs of integers, K
    the index I packed in the mixed radix ``radices`` (``_pack``) and
    exps[i] >= every I_i: with r_i = x_i / y_i,
    S = sum s_I prod x_i^I_i y_i^(exps_i - I_i) and Q = prod y_i^exps_i.
    S is folded one variable at a time, from the last (the lowest digit),
    by ``_homogeneous`` over columns of width exps_i + 1 split off by
    ``divmod`` with the radix: no radius numerator is built per index."""
    if not sizes:
        return 0, 1
    Q = 1
    for ri, R, E in zip(reversed(r.components), reversed(radices),
                        reversed(exps)):
        columns = {}
        for K, s in sizes:
            J, e = divmod(K, R)
            column = columns.get(J)
            if column is None:
                column = columns[J] = [0] * (E + 1)
            column[e] = s
        x, y = ri.numerator, ri.denominator
        sizes = [(J, _homogeneous(cs, x, y)) for J, cs in columns.items()]
        Q *= y**E
    return sizes[0][1], Q


# ---------------------------------------------------------------------------
# norms


def _check_radius(f: TruncatedSeries, rho: PolyRadius):
    """Raise unless rho has f's arity and any tail's sigma dominates it."""
    if len(rho) != f.n:
        raise DimensionMismatch("polyradius arity mismatch")
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
    indices = itertools.product(range(D + 1), repeat=f.n)
    P, Q = ratios.powers([I for I in indices if sum(I) <= D])
    return f.tail.C * (full - Fraction(sum(P), Q))


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
    _check_radius(f, rho)
    sizes, den = _sizes(f.ring, f.coeffs, rho)
    poly = Fraction(sum(sizes), den)
    return NormValue(poly, poly + _tail_sum_bound(f, rho))


def _power_sums(f: TruncatedSeries, rho: PolyRadius,
                n_max: int) -> List[Fraction]:
    """|p^k|_S for k = 2, ..., n_max, p the known part of f, exact.  With
    a_I = N_I / L, p^k has integer numerators over L^k.  Each multi-index
    is packed once (``_pack``) in the mixed radix n_max d_i + 1, d_i the
    largest exponent of variable i in p; no exponent of p^k reaches it,
    so a convolution step adds two keys.  Each |p^k|_S is folded by
    ``_packed_sum`` over columns of width k d_i + 1, without building a
    radius power."""
    terms, L = _scaled_ints(f.coeffs)
    indices = [I for I, _ in terms]
    degrees = [max(column) for column in zip(*indices)]
    radices = [n_max * d + 1 for d in degrees]
    chain = list(zip(_pack(indices, radices), [N for _, N in terms]))
    power, den, out = chain, L, []
    for k in range(2, n_max + 1):
        conv = {}
        get = conv.get
        for K, a in power:
            for J, b in chain:
                K_J = K + J
                conv[K_J] = get(K_J, 0) + a * b
        power = [(K, c) for K, c in conv.items() if c]
        den *= L
        A, scale = abs_ints(f.ring, [c for _, c in power], den)
        S, Q = _packed_sum([(K, a) for (K, _), a in zip(power, A)], rho,
                           radices, [k * d for d in degrees])
        out.append(Fraction(S, scale * Q))
    return out


# rational points on the unit circle via the tangent half-angle map, as an
# immutable tuple; ``_circle_axis`` caches them
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


# one torus axis's points, built once per (count, half) of the last 64
# asked for, as an immutable tuple, with the float powers of the points
# built so far.  ``_torus_max_sq`` asks for 56 keys at most under the
# series caps (48 first axes for n = 1, 6 second axes for n = 2, and the
# two halves of count 8 for n >= 3), so none is evicted
@functools.lru_cache(maxsize=64)
def _circle_axis(count: int, upper: bool):
    """(points, powers): the points (c, s) of ``_unit_circle_points(count)``,
    only those of s >= 0 when ``upper``, and a one-item list holding the
    columns u^0 and u^1 of the float powers of the points u = c + i*s,
    which ``_axis_powers`` lengthens."""
    points = tuple(p for p in _unit_circle_points(count)
                   if not upper or p[1] >= 0)
    us = tuple(complex(float(c), float(s)) for c, s in points)
    return points, [((1 + 0j,) * len(us), us)]


def _axis_powers(powers: list, E: int):
    """At least the columns u^0, ..., u^E of an axis's float powers, by
    exponent (columns[e][j] == u_j^e), from the one-item list ``powers``
    of ``_circle_axis``, lengthened there first if it is shorter: u^e is
    computed as u^(e-1) * u.  Every table stored is a correct prefix, so
    a concurrent call that stores a shorter one costs a rebuild only."""
    columns = powers[0]
    if len(columns) <= E:
        grown = list(columns)
        while len(grown) <= E:
            grown.append(tuple(map(mul, grown[-1], columns[1])))
        columns = powers[0] = tuple(grown)
    return columns


def _power_table(zr: Fraction, zi: Fraction, E: int):
    """Powers of z = zr + i*zi = (x + iy)/q over one denominator: returns
    ([(re, im) of (x + iy)^e * q^(E - e) for e = 0..E], q^E)."""
    (x, y), q = over_lcm((zr, zi))
    qpow = q**E
    table = []
    re, im, scale = 1, 0, qpow
    for _ in range(E + 1):
        table.append((re * scale, im * scale))
        re, im, scale = re * x - im * y, re * y + im * x, scale // q
    return table, qpow


def _gaussian_value(terms, points):
    """sum N_I z^I over the (I, N_I) terms of integers, exactly, at the
    points z_i = (re_i, im_i): returns Gaussian integers (re, im) and q
    with the sum == (re + i*im) / q.  With z_i = (x_i + i*y_i)/q_i and
    E_i the largest exponent of variable i, q = prod q_i^E_i."""
    tables, q = [], 1
    for i, (zr, zi) in enumerate(points):
        table, qpow = _power_table(
            zr, zi, max((I[i] for I, _ in terms), default=0))
        tables.append(table)
        q *= qpow
    re_total = im_total = 0
    for I, N in terms:
        re, im = N, 0
        for table, e in zip(tables, I):
            tr, ti = table[e]
            re, im = re * tr - im * ti, re * ti + im * tr
        re_total += re
        im_total += im
    return re_total, im_total, q


def evaluate_complex(f: TruncatedSeries, points):
    """Evaluate at z_i = (re_i, im_i) exactly; returns (re, im)."""
    terms, L = _scaled_ints(f.coeffs)
    re, im, q = _gaussian_value(terms, points[:f.n])
    return Fraction(re, L * q), Fraction(im, L * q)


# the axis of a variable that no term uses: the point 1 = (1, 0), whose
# power u^0 is all that is asked of it
_ONE_POINT = (((Fraction(1), Fraction(0)),), [((1 + 0j,),)])


# the float ranking of torus samples is skipped, and every sample is
# evaluated exactly, when its error bound delta is above this; delta is
# far below it at every input cap
MAX_RANKING_ERROR = 2.0**-30


def _ranked_rows(weighted, powers, delta: float):
    """The rows of torus samples that the float pass visits, as pairs
    (i, mags): mags[j] is |g(u)| in floats at the sample of the i-th row
    and the j-th point of the last axis, for g(u) = sum beta_I u^I with
    beta_I = w_I / S and S = sum |w_I|.  The rows are the points of every
    axis but the last, in ``itertools.product`` order; ``powers`` holds
    each axis's float power columns (``_axis_powers``).

    Each row's folded coefficients h_k over the last axis's exponent k
    are built for all the rows at once, term by term: the products
    beta_I u_1^e_1 u_2^e_2 ..., taken left to right, are added into
    h_(I_n) in term order.  Rows are visited by decreasing bound
    B = sum_k |h_k|, each evaluated one exponent column at a time, with
    the products h_k u^k added left to right, k = 0, 1, ...; a product
    with h_k = 0 (k > 0) is +-0 and is not added, which changes no
    magnitude.  The pass stops at the first row with B + delta below the
    largest magnitude so far less 2*delta (``_torus_max_sq`` proves the
    cut)."""
    S = sum(abs(w) for _, w in weighted)
    *prefix, last = powers
    rows = math.prod(len(columns[0]) for columns in prefix)
    h = [[0j] * rows for _ in range(max(I[-1] for I, _ in weighted) + 1)]
    for I, w in weighted:
        folded = [w / S]
        for columns, e in zip(prefix, I):
            folded = list(itertools.starmap(
                mul, itertools.product(folded, columns[e])))
        h[I[-1]] = list(map(add, h[I[-1]], folded))
    bounds = list(map(abs, h[0]))
    for column in h[1:]:
        bounds = list(map(add, bounds, map(abs, column)))
    visited, best = [], 0.0
    for i in sorted(range(rows), key=bounds.__getitem__, reverse=True):
        if bounds[i] + delta < best - 2 * delta:
            break
        h_0, *h_rest = (column[i] for column in h)
        values = map(h_0.__mul__, last[0])
        for h_k, column in zip(h_rest, last[1:]):
            if h_k:
                values = map(add, values, map(h_k.__mul__, column))
        mags = list(map(abs, values))
        best = max(best, max(mags))
        visited.append((i, mags))
    return visited


def _product_item(axes, index: int):
    """The index-th item of ``itertools.product(*axes)``."""
    item = []
    for axis in reversed(axes):
        index, j = divmod(index, len(axis))
        item.append(axis[j])
    return item[::-1]


def _torus_max_sq(f: TruncatedSeries, weighted,
                  points_per_var: Optional[int] = None) -> Fraction:
    """Largest |sum w_I u^I|^2 over the torus samples u, exact, for the
    (I, w_I) pairs of ``_weighted_ints``: this is den^2 times the
    largest |f(z)|^2 over the samples z = rho * u of |z_i| = rho_i.

    Two passes.  Floats rank the samples by |g(u)|, where
    g = sum beta_I u^I with beta_I = w_I / S and S = sum |w_I|, so that
    sum |beta_I| = 1 at any radius and any coefficient size and nothing
    overflows or underflows beyond an absolute 2^-1074 per operation.
    They do so row by row (``_ranked_rows``), skipping the rows that can
    hold no sample near the float maximum.  Only the samples within
    2*delta of the float maximum are then evaluated exactly, in
    ``itertools.product`` order, and the exact maximum among them is
    returned.

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

    Why the row cut skips no sample that reaches the cutoff.  Let E be
    the last axis's largest exponent and H = sum_k |h_k| for a row's
    computed coefficients h_k.  Each h_k sums, in at most T - 1
    additions, computed terms of size at most (1 + (4D + 3n + 2)*eps)
    times |beta_I|, so H <= 1.01.  At a sample of the row the
    computed power u^k has size at most 1 + 4*E*eps, the product h_k u^k
    gains at most a factor 1 + sqrt(8)*eps, the E additions a factor
    (1 + eps)^E and ``abs`` 1 + 2*eps: the computed |g(u)| is at most
    H*(1 + 1.01*(5E + 5)*eps) + 2^-1000.  The computed bound B adds E + 1
    values ``abs`` rounded down by at most 2*eps each, in E additions
    rounded by eps each however they are ordered, so B >= H*(1 -
    1.01*(E + 2)*eps).  Hence every computed |g(u)| in the row is at most
    B + delta_1, delta_1 = 1.03*(6E + 7)*eps + 2^-1000.  Since T, n >= 1
    and D >= E, delta >= 8*eps*(E + 6) >= delta_1 + eps, and B + delta,
    below 2, is rounded down by at most eps: the rounded B + delta
    exceeds every computed |g(u)| of the row.  A row is skipped when that
    rounded sum lies below the rounded (largest magnitude so far) -
    2*delta, which is at most the cutoff, as rounding is monotone and the
    running maximum is at most the float max.  So no sample of a skipped
    row reaches the cutoff, and neither does one of a later row, whose B
    is no larger.  The float max, the cutoff and the samples evaluated
    exactly are therefore those of a scan of every sample.
    """
    if not weighted:
        return Fraction(0)
    if points_per_var is None:
        points_per_var = 8 * (f.degree_bound + 1) if f.n <= 2 else 8
    exps = [max(I[i] for I, _ in weighted) for i in range(f.n)]
    # f does not vary along the axis of a variable that no term uses,
    # which takes the one point 1.  Rational coefficients give
    # |f(conj z)| = |f(z)|, and the sample set is closed under
    # conjugation: the first other axis needs only im >= 0
    first = next((i for i, E in enumerate(exps) if E), None)
    axes = [_circle_axis(points_per_var, i == first) if E else _ONE_POINT
            for i, E in enumerate(exps)]
    points = [axis for axis, _ in axes]
    samples = itertools.product(*points)
    D = max(sum(I) for I, _ in weighted)
    delta = (len(weighted) + f.n * (D + 1) + 4) * 2.0**-50
    if delta <= MAX_RANKING_ERROR:
        rows = _ranked_rows(weighted, [_axis_powers(powers, E) for
                                       (_, powers), E in zip(axes, exps)],
                            delta)
        cutoff = max(max(mags) for _, mags in rows) - 2 * delta
        width = len(points[-1])
        samples = map(functools.partial(_product_item, points), sorted(
            i * width + j for i, mags in rows for j in
            itertools.compress(range(width), map(cutoff.__le__, mags))))
    # the largest (re^2 + im^2) / q^2 so far as num/den
    num, den = 0, 1
    for sample in samples:
        re, im, q = _gaussian_value(weighted, sample)
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
    return nth_root_interval(best_sq, 2, Fraction(1, 10**9)).lo


def norm_T(f: TruncatedSeries, rho: PolyRadius) -> NormValue:
    """Spectral/sup norm on the polydisk.

    Non-Archimedean ring: the Gauss norm max |a_I| rho^I, exact up to the
    tail bound.  Archimedean ring: ``archimedean_sup``.
    """
    if not f.ring.non_archimedean:
        return archimedean_sup(f, rho)
    _check_radius(f, rho)
    gauss = _gauss_norm(f.ring, f.coeffs, rho)
    return NormValue(gauss, max(gauss, _tail_max_bound(f, rho)))


def archimedean_sup(f: TruncatedSeries, rho: PolyRadius) -> NormValue:
    """Sup of |f| on the polydisk of radius rho (of f's arity) under the
    usual absolute value, whatever f's ring: bracketed between the Cauchy
    coefficient bound max |a_I| rho^I (raised by exact torus samples when
    the tail is zero: a member's unknown tail terms can cancel the known
    ones on the torus) and the coefficient sum."""
    _check_radius(f, rho)
    # the Cauchy bound, the coefficient sum and the torus sampler share
    # the integers a_I rho^I = w_I / den
    weighted, den = _weighted_ints(*_scaled_ints(f.coeffs), rho)
    sizes = [abs(w) for _, w in weighted]
    total, cauchy = sum(sizes), max(sizes, default=0)
    hi = Fraction(total, den) + _tail_sum_bound(f, rho)
    lo = Fraction(cauchy, den)
    # no torus sample exceeds the coefficient sum, so none can raise a
    # Cauchy bound equal to it, as for a series of at most one term
    if (f.tail is None or not f.tail.C) and cauchy != total:
        lo = max(lo, _torus_lower_bound(f, weighted, den))
    return NormValue(lo, hi)


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


def multiply(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Coefficient convolution, exact to degree f.D + g.D, which no
    product of known coefficients exceeds.  A factor with a tail leaves
    the product coefficients above its own degree bound unknown, so the
    exact part then stops there, and a geometric tail with radius shrunk
    by 3/4 (to absorb the polynomial count of convolution cross terms)
    bounds the rest."""
    f._check_compatible(g)
    tailed = [h for h in (f, g) if h.tail is not None]
    D = min([f.degree_bound + g.degree_bound]
            + [h.degree_bound for h in tailed])
    fs, Lf = _scaled_ints(f.coeffs)
    gs, Lg = _scaled_ints(g.coeffs)
    conv: Dict[Index, int] = {}
    for I, a in fs:
        for J, b in gs:
            K = tuple(map(add, I, J))
            conv[K] = conv.get(K, 0) + a * b
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
    return TruncatedSeries(f.ring, f.n, kept, D, tail)


def _global_majorant_constant(f: TruncatedSeries, sigma) -> Fraction:
    """Smallest C with |a_I| <= C * sigma^(-I) for all I (known and tail)."""
    C = f.tail.C if f.tail is not None else Fraction(0)
    return max(C, _gauss_norm(f.ring, f.coeffs, PolyRadius(tuple(sigma))))


# ---------------------------------------------------------------------------
# cofinality of the S- and T-systems


def cofinality_constant(rho: PolyRadius, rho_prime: PolyRadius) -> Fraction:
    """K with |f|_S,rho <= K |f|_T,rho' for rho < rho': the product over i
    of rho'_i / (rho'_i - rho_i).

    Cauchy's bound |a_I| rho'^I <= |f|_T,rho' holds for each coefficient:
    over a non-Archimedean ring |f|_T is the Gauss norm max_I |a_I| rho'^I,
    and over an Archimedean one a_I is the mean of f z^-I over the torus
    |z_i| = rho'_i, where |z^-I| = rho'^-I.  So sum_I |a_I| rho^I is at
    most |f|_T,rho' times sum_I (rho / rho')^I, a geometric series that
    factors into prod_i 1 / (1 - rho_i / rho'_i).  The max of these
    factors is no bound for n >= 2: over Q_2, a_I = 2^v_I with v_I the
    least integer with rho'^I <= 2^v_I gives |f|_T = 1 at (2, 3) and
    |f|_S = 2.71 at (1, 1), over the total degrees up to 12."""
    if not rho.strictly_less(rho_prime):
        raise NotStrictlySmaller("need rho < rho' componentwise")
    return math.prod(rp / (rp - r) for r, rp in zip(rho, rho_prime))


def base_change(f: TruncatedSeries, target: BanachRing) -> TruncatedSeries:
    """Termwise coefficient transport from the Archimedean integers."""
    if f.ring != integers_archimedean():
        raise UnsupportedRing("base change starts from the integer ring")
    return f.with_ring(target)


# ---------------------------------------------------------------------------
# dagger-algebra presentations


@dataclass(frozen=True, slots=True)
class DaggerPresentation:
    """Quotient presentation of an overconvergent polydisk algebra:
    n variables at the given polyradius, modulo the listed relations."""

    ring: BanachRing
    n: int
    rho: PolyRadius
    relations: Tuple[TruncatedSeries, ...] = ()

    def __post_init__(self):
        if self.n < 1 or len(self.rho) != self.n:
            raise DimensionMismatch(f"an algebra needs n >= 1 and n radii, "
                                    f"not n = {self.n} and {len(self.rho)}")
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
    def from_json(obj):
        ring, n, rho, relations = members(obj, "algebra", {
            "ring": dict, "n": int, "rho": list, "relations": list})
        ring = BanachRing.from_json(ring)
        return DaggerPresentation(ring, n, PolyRadius.from_json(rho),
                                  tuple(TruncatedSeries.from_json(r, ring)
                                        for r in relations))


def unit_polydisk(ring: BanachRing, n: int = 1) -> DaggerPresentation:
    return DaggerPresentation(ring, n, PolyRadius((Fraction(1),) * n))
