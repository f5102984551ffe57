"""Seeded self-verification suite.

Ten checks exercising the load-bearing guarantees of the package, each
returning a structured verdict.  All randomness is derived from one seed.
Criterion 10 runs criteria 1-9 twice at once from the caller's state, in
id order in the calling process and in reverse order in a child process,
and byte-compares the two runs, so a criterion whose result depends on
what ran before it shows as a failure.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction
from operator import mul
from typing import Dict, List, Optional

from .errors import (
    DaggerAlgError,
    DimensionMismatch,
    NotACover,
    UnsupportedRing,
)
from .localization import (
    LAURENT,
    RATIONAL,
    WEIERSTRASS,
    LocalizationSpec,
    laurent_solve,
    mayer_vietoris,
    koszul_h_check,
)
from .nonarch import check_adjunction, pi_tensor_check
from .normed_core import (
    MAX,
    SUM,
    ModuleMap,
    WeightedFreeModule,
    cokernel,
    residue_norm,
    vector_norm,
)
from .scalars import (
    BanachRing,
    abs_value,
    integers_archimedean,
    integers_trivial,
    rationals_archimedean,
    rationals_padic,
)
from .series import (
    PolyRadius,
    Tail,
    TruncatedSeries,
    cofinality_constant,
    base_change,
    norm_S,
    norm_T,
    polyradius,
    unit_polydisk,
)
from .spectrum import (
    fiber_sup,
    global_sup,
    spectral_via_powers,
)
from .tensor import TensorElement, tensor_norm_certified

REPORT_VERSION = 1


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


# the p-adic rings of the primes below 50: criterion 1 draws from the
# first four, criterion 2 from the first three, and criterion 7 checks
# the fibers of all of them
_PADIC_RINGS = tuple(map(rationals_padic, (2, 3, 5, 7, 11, 13, 17, 19, 23,
                                           29, 31, 37, 41, 43, 47)))

# Criterion 1 draws its rings and rationals from shared tables, built
# once.  In CPython's random module, rng.choice of a sequence of length n
# and rng.randint of a range of n integers both draw one
# rng._randbelow(n), so choosing from a table draws what building the
# value afresh did.  None stands for a p-adic ring, whose prime is drawn
# next.
_AXIOM_RINGS = (integers_archimedean(), integers_trivial(), None,
                rationals_archimedean())
_DIGITS = tuple(map(Fraction, range(-9, 10)))


def _ratio_table(m: int):
    """Rows a = 1..m of the ratios a/b, b = 1..m: a choice of a row, then
    of an entry, draws as Fraction(randint(1, m), randint(1, m)) did."""
    return tuple(tuple(Fraction(a, b) for b in range(1, m + 1))
                 for a in range(1, m + 1))


_RATIOS_9 = _ratio_table(9)
_RATIOS_4 = _ratio_table(4)


def _random_ring(rng: random.Random) -> BanachRing:
    ring = rng.choice(_AXIOM_RINGS)
    return rng.choice(_PADIC_RINGS[:4]) if ring is None else ring


def _random_weights(rng: random.Random, rank: int):
    return tuple(rng.choice(rng.choice(_RATIOS_9)) for _ in range(rank))


def _random_vector(rng: random.Random, rank: int):
    return tuple(rng.choice(_DIGITS) for _ in range(rank))


def _rejects(exc, check, *args) -> bool:
    try:
        check(*args)
    except exc:
        return True
    return False


# ---------------------------------------------------------------------------
# 1. norm axioms


def _check_vector_axioms(inst) -> int:
    M, x, y, lam = inst
    nx, ny = vector_norm(M, x), vector_norm(M, y)
    s = vector_norm(M, tuple(a + b for a, b in zip(x, y)))
    bad = 0
    if s.hi > nx.hi + ny.hi:
        bad += 1
    if M.flavor == MAX and s.hi > max(nx.hi, ny.hi):
        bad += 1
    scaled = vector_norm(M, tuple(lam * a for a in x))
    if scaled.hi > abs_value(M.ring, lam) * nx.hi:
        bad += 1
    return bad


def _check_tensor_axioms(inst) -> int:
    x, y, lam, flavor = inst
    ux = tensor_norm_certified(x, flavor).hi
    uy = tensor_norm_certified(y, flavor).hi
    joint = TensorElement(x.left, x.right, x.terms + y.terms)
    bad = 0
    bound = ux + uy if flavor == SUM else max(ux, uy)
    if tensor_norm_certified(joint, flavor).lo > bound:
        bad += 1
    if tensor_norm_certified(x.scale(lam), flavor).lo > \
            abs_value(x.left.ring, lam) * ux:
        bad += 1
    return bad


def _check_series_axioms(inst) -> int:
    f, g, lam, rho = inst
    bad = 0
    nf, ng = norm_S(f, rho), norm_S(g, rho)
    f_plus_g = f.add(g)
    if norm_S(f_plus_g, rho).hi > nf.hi + ng.hi:
        bad += 1
    if norm_S(f.scale(lam), rho).hi > abs_value(f.ring, lam) * nf.hi:
        bad += 1
    if f.ring.non_archimedean:
        tf, tg = norm_T(f, rho), norm_T(g, rho)
        if norm_T(f_plus_g, rho).hi > max(tf.hi, tg.hi):
            bad += 1
    return bad


def _vector_instances(rng: random.Random):
    for _ in range(1000):
        ring = _random_ring(rng)
        rank = rng.choice(range(1, 5))
        flavor = MAX if (ring.non_archimedean and rng.random() < 0.5) else SUM
        M = WeightedFreeModule(ring, _random_weights(rng, rank), flavor)
        yield (M, _random_vector(rng, rank), _random_vector(rng, rank),
               rng.choice(_DIGITS))


def _tensor_instances(rng: random.Random):
    for _ in range(1000):
        ring = _random_ring(rng)
        flavor = MAX if (ring.non_archimedean and rng.random() < 0.5) else SUM
        rl, rr = rng.choice(range(1, 4)), rng.choice(range(1, 4))
        L = WeightedFreeModule(ring, _random_weights(rng, rl), flavor)
        R = WeightedFreeModule(ring, _random_weights(rng, rr), flavor)
        terms = tuple(
            (_random_vector(rng, rl), _random_vector(rng, rr))
            for _ in range(rng.choice(range(1, 4)))
        )
        x = TensorElement(L, R, terms)
        y = TensorElement(L, R, terms[:1])
        yield (x, y, rng.choice(_DIGITS), flavor)


def _series_instances(rng: random.Random):
    for _ in range(1000):
        ring = _random_ring(rng)
        n = rng.choice(range(1, 3))
        D = 6

        def rand_series():
            coeffs = {}
            for _ in range(rng.choice(range(1, 7))):
                I = tuple(rng.choice(range(4)) for _ in range(n))
                if sum(I) <= D:
                    coeffs[I] = rng.choice(_DIGITS)
            return TruncatedSeries(ring, n, coeffs, D)

        rho = PolyRadius(
            tuple(rng.choice(rng.choice(_RATIOS_4)) for _ in range(n))
        )
        yield (rand_series(), rand_series(), rng.choice(_DIGITS), rho)


def criterion_1(seed: int) -> Dict:
    """Triangle/strong-triangle and scalar bounds on 1000 random
    instances per construction, exact comparisons, under 60 s.

    Each instance is drawn and checked in turn; the checks draw nothing,
    so the draws come in the same order as if all were drawn first."""
    rng = _rng(seed, "axioms")
    start = time.monotonic()
    violations = sum(map(_check_vector_axioms, _vector_instances(rng)))
    violations += sum(map(_check_tensor_axioms, _tensor_instances(rng)))
    violations += sum(map(_check_series_axioms, _series_instances(rng)))
    elapsed = time.monotonic() - start
    return {
        "id": 1,
        "name": "norm-axioms",
        "passed": violations == 0 and elapsed < 60,
        "details": {
            "instances": 3000,
            "violations": violations,
            "under_60s": elapsed < 60,
        },
    }


# ---------------------------------------------------------------------------
# 2. cofinality bound


def _cofinality_series(rng: random.Random):
    """Criterion 2's 200 p-adic series in two variables, D = 12.  Like
    criterion 1's tables, rng.choice of range(a, b + 1) draws what
    rng.randint(a, b) did."""
    for _ in range(200):
        ring = rng.choice(_PADIC_RINGS[:3])
        p, coeffs = ring.p, {}
        for _ in range(rng.choice(range(1, 26))):
            i = rng.choice(range(13))
            j = rng.choice(range(13 - i))
            v = rng.choice(range(-4, 5))
            unit = rng.choice(range(1, 7))
            while unit % p == 0:
                unit = rng.choice(range(1, 7))
            coeffs[(i, j)] = Fraction(unit * p**v) if v >= 0 else \
                Fraction(unit, p**-v)
        yield TruncatedSeries(ring, 2, coeffs, 12)


def criterion_2(seed: int) -> Dict:
    """Restriction constant 3 for rho=(1,1), rho'=(2,3), and the sum-norm
    versus sup-norm inequality on 200 random p-adic series."""
    rng = _rng(seed, "cofinality")
    rho, rhop = polyradius(1, 1), polyradius(2, 3)
    K = cofinality_constant(rho, rhop)
    failures = sum(norm_S(f, rho).hi > K * norm_T(f, rhop).hi
                   for f in _cofinality_series(rng))
    return {
        "id": 2,
        "name": "cofinality-bound",
        "passed": K == 3 and failures == 0,
        "details": {"constant": str(K), "series": 200, "failures": failures},
    }


# ---------------------------------------------------------------------------
# 3. division recursion


def criterion_3(seed: int) -> Dict:
    """The worked geometric instance of the (g*X - 1) division recursion
    at D = 16, and the rejection of a tailed g.

    The round trip (g*X - 1)*a = t is an identity of the recursion (see
    laurent_solve), and so is uniqueness: for t = 0 the recursion starts
    from the empty slice a_0 = -t_0, and convolving an empty table with
    g gives an empty one, so laurent_solve(g, 0, D) = 0 for every g and
    D."""
    ring = rationals_archimedean()
    g2 = TruncatedSeries.constant(ring, 2, 1)
    t = TruncatedSeries.constant(ring, -1, 1)
    a = laurent_solve(g2, t, 16)
    worked = all(a.coefficient((0, k)) == 2**k for k in range(17))
    tailed = TruncatedSeries(ring, 1, {(0,): Fraction(2)}, 0,
                             Tail(Fraction(1), polyradius(2)))
    tailed_rejected = _rejects(ValueError, laurent_solve, tailed, t, 16)
    return {
        "id": 3,
        "name": "division-recursion",
        "passed": worked and tailed_rejected,
        "details": {"geometric_instance": worked,
                    "tailed_rejected": tailed_rejected},
    }


# ---------------------------------------------------------------------------
# 4. Koszul concentration


def criterion_4(seed: int) -> Dict:
    """Degree -1 homology of the two-term complex of one added variable
    vanishes by a theorem (see koszul_h_check), so the check is that the
    one-variable cut and inversion instances, over a p-adic and an
    Archimedean base, validate while two series, a rational spec and a
    series outside the algebra are rejected."""
    validated = 0
    for ring in (rationals_padic(2), rationals_archimedean()):
        A = unit_polydisk(ring, 1)
        x = TruncatedSeries.monomial(ring, (1,))
        for spec in (LocalizationSpec(WEIERSTRASS, (x,)),
                     LocalizationSpec(LAURENT, (x,))):
            validated += not _rejects(DaggerAlgError, koszul_h_check, A, spec)

    ring = rationals_padic(2)
    A = unit_polydisk(ring, 1)
    x = TruncatedSeries.monomial(ring, (1,))
    y = TruncatedSeries.monomial(ring, (0, 1))
    two_series = _rejects(DimensionMismatch, koszul_h_check, A,
                          LocalizationSpec(WEIERSTRASS, (x, x)))
    rational = _rejects(DimensionMismatch, koszul_h_check, A,
                        LocalizationSpec(RATIONAL, (x,), None, x))
    outside = _rejects(DimensionMismatch, koszul_h_check, A,
                       LocalizationSpec(WEIERSTRASS, (y,)))
    return {
        "id": 4,
        "name": "koszul-concentration",
        "passed": validated == 4 and two_series and rational and outside,
        "details": {"instances": validated,
                    "two_series_rejected": two_series,
                    "rational_rejected": rational,
                    "outside_algebra_rejected": outside},
    }


# ---------------------------------------------------------------------------
# 5. disk/annulus gluing


def criterion_5(seed: int) -> Dict:
    """Exactness of the gluing sequence is a theorem in the coefficient
    model (see mayer_vietoris), so the check is that valid overlap
    functions validate while a non-cover and an out-of-range exponent
    are rejected."""
    rng = _rng(seed, "gluing")
    ring = rationals_padic(2)
    elements = []
    for _ in range(100):
        elements.append(
            {rng.randint(-8, 8): Fraction(rng.randint(-9, 9))
             for _ in range(rng.randint(1, 8))}
        )
    checked = mayer_vietoris(ring, 8, elements)
    non_cover = _rejects(NotACover, mayer_vietoris, ring, 8, [],
                         Fraction(1, 2), Fraction(1))
    out_of_range = _rejects(DimensionMismatch, mayer_vietoris, ring, 8,
                            [{9: Fraction(1)}])
    return {
        "id": 5,
        "name": "disk-annulus-gluing",
        "passed": checked == 100 and non_cover and out_of_range,
        "details": {"elements": checked, "non_cover_rejected": non_cover,
                    "out_of_range_rejected": out_of_range},
    }


# ---------------------------------------------------------------------------
# 6. residue norm versus exhaustive closest-vector search


def _gcdex(a: int, b: int):
    """(u, v, d) with u a + v b = d = gcd(a, b) >= 0."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return (u0, v0, a) if a >= 0 else (-u0, -v0, -a)


def _hnf_columns(columns: List[List[int]]) -> List[List[int]]:
    """The Hermite normal form basis of the integer span of the columns
    (Cohen, Algorithm 2.4.5, as sympy's ``hermite_normal_form`` runs it).

    From the bottom row up, unimodular column operations clear the
    entries left of the pivot column k, make the pivot positive and
    reduce the entries right of it modulo the pivot; a zero row keeps
    k.  The HNF of a lattice is unique, so the pivot columns are the
    same whichever Bezout cofactors the gcd steps take."""
    A = [list(row) for row in zip(*columns)]
    n = len(columns)
    k = n
    for row_i in reversed(A):
        if k == 0:
            break
        k -= 1
        for j in range(k - 1, -1, -1):
            if row_i[j]:
                u, v, d = _gcdex(row_i[k], row_i[j])
                r, s = row_i[k] // d, row_i[j] // d
                for row in A:
                    row[k], row[j] = (u * row[k] + v * row[j],
                                      r * row[j] - s * row[k])
        b = row_i[k]
        if b < 0:
            for row in A:
                row[k] = -row[k]
            b = -b
        if b == 0:
            k += 1
        else:
            for j in range(k + 1, n):
                q = row_i[j] // b
                for row in A:
                    row[j] -= q * row[k]
    return [[row[j] for row in A] for j in range(k, n)]


def _oracle_cvp(columns: List[List[int]], v: List[int]) -> Optional[Fraction]:
    """Independent exhaustive minimum of the l1 distance from v to the
    integer span of the columns.

    Basis via the Hermite normal form of ``_hnf_columns``; the
    coefficient window comes from the rational left inverse
    (B^T B)^-1 B^T: any lattice point x competing with the zero
    candidate has |x|_1 <= 2|v|_1, and coefficients are bounded by the
    left inverse's max row sum times that.  Returns None when the window
    is too large to enumerate (caller regenerates the instance).
    """
    cols = _hnf_columns(columns)
    norm_v = sum(map(abs, v))
    if not cols:
        return Fraction(norm_v)
    # fraction-free Gauss-Jordan (Bareiss) on [B^T B | B^T]: B^T B is
    # positive definite (the columns are independent), so each pivot, a
    # leading principal minor, is positive and each division is exact.
    # It ends at [d I | d X], with d = det(B^T B) the last pivot and X the
    # left inverse, so the window is floor(2 |v|_1 max_i sum_j |X_ij|) + 1
    k = len(cols)
    rows = [[sum(map(mul, a, b)) for b in cols] + a for a in cols]
    prev = 1
    for i, pivot_row in enumerate(rows):
        p = pivot_row[i]
        for row in rows:
            if row is not pivot_row:
                f = row[i]
                row[:] = [(x * p - f * y) // prev
                          for x, y in zip(row, pivot_row)]
        prev = p
    row_sum = max(sum(map(abs, row[k:])) for row in rows)
    window = 2 * norm_v * row_sum // prev + 1
    if window > 12:
        return None
    coords = list(zip(*cols))  # coords[i][j] = cols[j][i]
    best = norm_v
    for combo in itertools.product(range(-window, window + 1), repeat=k):
        dist = 0
        for x, row in zip(v, coords):
            dist += abs(x - sum(map(mul, combo, row)))
            if dist >= best:
                break
        else:
            best = dist
    return Fraction(best)


def _residue_instances(rng: random.Random):
    """Criterion 6's lattices, without end: (columns, v, oracle distance)
    for each draw whose oracle window is small enough to enumerate."""
    while True:
        s = rng.randint(1, 3)
        cols = [[rng.randint(-10, 10) for _ in range(3)] for _ in range(s)]
        v = [rng.randint(-10, 10) for _ in range(3)]
        oracle = _oracle_cvp(cols, v)
        if oracle is not None:
            yield cols, v, oracle


def criterion_6(seed: int) -> Dict:
    rng = _rng(seed, "residue")
    ring = integers_archimedean()
    ambient = WeightedFreeModule(ring, (Fraction(1),) * 3, SUM)

    mismatches = 0
    for cols, v, oracle in itertools.islice(_residue_instances(rng), 100):
        src = WeightedFreeModule(ring, (Fraction(1),) * len(cols), SUM)
        rel = ModuleMap(
            src, ambient,
            tuple(tuple(Fraction(c[i]) for c in cols) for i in range(3)),
        )
        nv = residue_norm(cokernel(rel), [Fraction(x) for x in v])
        mismatches += not nv.lo == nv.hi == oracle
    return {
        "id": 6,
        "name": "residue-norm-oracle",
        "passed": mismatches == 0,
        "details": {"lattices": 100, "mismatches": mismatches},
    }


# ---------------------------------------------------------------------------
# 7. spectral estimates and boundary dominance

def criterion_7(seed: int) -> Dict:
    """Global sup of 1+X, fiberwise dominance of the usual absolute value
    for 50 random integer polynomials, and the power-iteration sequence.

    The root sequence (norm of f^n) ** (1/n) converges to the spectral
    bound from above but is NOT monotone for general integer polynomials;
    certified increases are reported as failures of the stated monotone
    sub-check rather than hidden (see the repository notes).
    """
    rng = _rng(seed, "spectral")
    Z, R = integers_archimedean(), rationals_archimedean()
    rho = polyradius(1)

    f0 = TruncatedSeries.from_univariate(Z, [1, 1])
    g0 = global_sup(f0, rho)
    worked = g0.lo == g0.hi == 2

    dominance_failures = above_failures = certified_increases = 0
    for _ in range(50):
        deg = rng.randint(1, 4)
        coeffs = [rng.randint(-5, 5) for _ in range(deg + 1)]
        if not any(coeffs):
            coeffs[0] = 1
        f = TruncatedSeries.from_univariate(Z, coeffs)
        arch = fiber_sup(f, R, rho)
        dominance_failures += any(fiber_sup(f, ring, rho).hi > arch.lo
                                  for ring in _PADIC_RINGS)
        seq = spectral_via_powers(f, rho, 8)
        gl = global_sup(f, rho)
        above_failures += not all(term.hi >= gl.lo for term in seq)
        certified_increases += sum(b.lo > a.hi for a, b in zip(seq, seq[1:]))
    monotone = certified_increases == 0
    return {
        "id": 7,
        "name": "spectral-shilov",
        "passed": worked and dominance_failures == 0 and above_failures == 0
        and monotone,
        "details": {
            "global_sup_1_plus_X": g0.to_json(),
            "dominance_failures": dominance_failures,
            "above_global_sup_failures": above_failures,
            "certified_root_sequence_increases": certified_increases,
            "monotone_subcheck": monotone,
        },
    }


# ---------------------------------------------------------------------------
# 8. reflection adjunction and tensor intertwining


def criterion_8(seed: int) -> Dict:
    """The reflection adjunction and its tensor intertwining are
    identities (see check_adjunction and pi_tensor_check), so the check
    is that both reject a module over the Archimedean integers and
    factors over Q_3 and Q_5."""

    def module(ring):
        return WeightedFreeModule(ring, (Fraction(1),), SUM)

    Z = module(integers_archimedean())
    Q3, Q5 = module(rationals_padic(3)), module(rationals_padic(5))
    checks = (check_adjunction, pi_tensor_check)
    archimedean = all(_rejects(UnsupportedRing, check, Z, Z)
                      for check in checks)
    mixed = all(_rejects(DimensionMismatch, check, Q3, Q5)
                for check in checks)
    return {
        "id": 8,
        "name": "reflection-adjunction",
        "passed": archimedean and mixed,
        "details": {"archimedean_rejected": archimedean,
                    "mixed_rings_rejected": mixed},
    }


# ---------------------------------------------------------------------------
# 9. base change


def criterion_9(seed: int) -> Dict:
    """The Gauss norm of 2X over Q_2 at radius 1, and the rejection of a
    source ring other than the Archimedean integers.

    Transport is an identity, not a check: base_change is with_ring, so
    it keeps every coefficient, and over an Archimedean target norm_S is
    unchanged because Z and Q share the absolute value abs(x)."""
    Z = integers_archimedean()
    Q2 = rationals_padic(2)
    Qa = rationals_archimedean()
    rho = polyradius(1)

    two_x = base_change(TruncatedSeries.from_univariate(Z, [0, 2]), Q2)
    gauss = norm_T(two_x, rho)
    monomial_ok = gauss.lo == gauss.hi == Fraction(1, 2)
    non_integer = _rejects(UnsupportedRing, base_change,
                           TruncatedSeries.from_univariate(Qa, [0, 2]), Q2)
    return {
        "id": 9,
        "name": "base-change",
        "passed": monomial_ok and non_integer,
        "details": {
            "two_X_gauss_norm_over_Q2": str(gauss.hi),
            "non_integer_source_rejected": non_integer,
        },
    }


# ---------------------------------------------------------------------------
# orchestration


_CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _run_first_nine(seed: int, reverse: bool) -> List[Dict]:
    """Criteria 1-9, run in id order or in reverse; listed in id order."""
    ids = sorted(_CRITERIA, reverse=reverse)
    results = {k: _CRITERIA[k](seed) for k in ids}
    return [results[k] for k in sorted(results)]


def _without_timings(results: List[Dict]) -> List[Dict]:
    return [dict(r, details={k: v for k, v in r["details"].items()
                             if k != "under_60s"})
            for r in results]


def _reverse_pass(sender, seed: int) -> None:
    """``run_all``'s child process: sends back criteria 1-9 run in reverse
    order, or the exception they raised."""
    try:
        sender.send(_run_first_nine(seed, True))
    except Exception as exc:
        sender.send(exc)


def run_all(seed: int = 7, *_threads) -> Dict:
    """Full report: criteria 1-9 plus the determinism comparison, which
    runs them in reverse order in a child process meanwhile and
    byte-compares the two runs."""
    import multiprocessing   # here, so that importing the CLI stays cheap

    # bench/workloads.py still passes a thread count, which is ignored
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_reverse_pass, args=(sender, seed))
    child.start()
    sender.close()
    try:
        forward = _run_first_nine(seed, False)
        backward = receiver.recv()   # EOFError if the child died first
        child.join()
    finally:
        child.terminate()   # a no-op unless the child is still running
        child.join()
        receiver.close()
    if isinstance(backward, Exception):
        raise backward
    identical = canonical_json(_without_timings(forward)) == \
        canonical_json(_without_timings(backward))
    criteria = forward + [
        {
            "id": 10,
            "name": "determinism",
            "passed": identical,
            "details": {"byte_identical": identical},
        }
    ]
    return {
        "version": REPORT_VERSION,
        "seed": seed,
        "criteria": criteria,
        "passed": all(c["passed"] for c in criteria),
    }
