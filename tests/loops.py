"""The ``Fraction`` loops that the integer kernels of ``series`` and
``normed_core`` replaced, kept as oracles: the radius power rho^I (once
``PolyRadius.power``), the Gauss and sum norms of a coefficient table
and the norm of a vector in a weighted free module, one coefficient at
a time through ``abs_value``, the certified coefficient windows that
the residue norm over Z once enumerated, from a ``Fraction`` left
inverse, and that window search over ``Fraction`` candidates, exact
within those windows, and the torus ranking's float magnitudes one
sample at a time.
"""

import functools
import itertools
from fractions import Fraction
from operator import add, mul

from daggeralg import linalg, normed_core
from daggeralg.normed_core import SUM, vector_norm
from daggeralg.scalars import NormValue, abs_value


def rho_power(rho, I) -> Fraction:
    out = Fraction(1)
    for c, e in zip(rho, I):
        out *= Fraction(c) ** e
    return out


def gauss_loop(ring, coeffs, rho) -> Fraction:
    """max |a_I| rho^I, 0 for an empty table."""
    return max((abs_value(ring, a) * rho_power(rho, I)
                for I, a in coeffs.items()), default=Fraction(0))


def sum_loop(ring, coeffs, rho) -> Fraction:
    """sum |a_I| rho^I."""
    return sum((abs_value(ring, a) * rho_power(rho, I)
                for I, a in coeffs.items()), Fraction(0))


def vector_norm_loop(M, v) -> Fraction:
    """sum or max of |v_i| w_i, by the module's flavor (once
    ``normed_core.vector_norm``)."""
    terms = [abs_value(M.ring, x) * w for x, w in zip(v, M.weights)]
    return sum(terms, Fraction(0)) if M.flavor == SUM \
        else max(terms, default=Fraction(0))


def windows_loop(M, basis, v):
    """Per-coordinate coefficient windows, for a module over Z with the
    sum flavor, outside which no coset representative v + B k (the
    basis vectors are the columns of B) beats v itself: each entry of
    B k is at most 2|v|_w / w_min, and |k_j| at most that times the l1
    norm of row j of the left inverse (B^T B)^-1 B^T, built in
    ``Fraction``s: B^T B by a matrix product, its inverse by one
    ``linalg.solve``, and a second product.  ``residue_norm`` enumerated
    these windows over Z, when they held at most 200,000 points, until
    its pruned search replaced them."""

    def mat_mul(A, B):
        return [[sum((a * b for a, b in zip(row, col)), Fraction(0))
                 for col in zip(*B)] for row in A]

    Bt = [[Fraction(x) for x in b] for b in basis]
    BtB = mat_mul(Bt, linalg.transpose(Bt))
    inv_cols, _ = linalg.solve(BtB, linalg.identity(len(basis)), len(basis))
    left_inv = mat_mul(linalg.transpose(inv_cols), Bt)
    bound = 2 * vector_norm(M.ambient, v).hi / min(M.ambient.weights)
    return tuple(int(sum(abs(x) for x in row) * bound) + 1
                 for row in left_inv)


def residue_window_loop(M, v) -> NormValue:
    """The certified window search that ``normed_core.residue_norm`` ran
    over Z before its pruned search: the least |v + sum k_j b_j|_w over
    the windows of ``windows_loop``, with b_j the Hermite basis of the
    relation lattice, each candidate built in ``Fraction``s and sized
    by ``vector_norm``.  Exact, at the cost of every point of the
    windows, which the callers keep small."""
    v = [M.ambient.ring.check_element(x) for x in v]
    basis = linalg.hnf_column_basis(normed_core._relation_columns(M))
    best = vector_norm(M.ambient, v).hi
    windows = windows_loop(M, basis, v) if basis else ()
    for ks in itertools.product(*[range(-w, w + 1) for w in windows]):
        if all(k == 0 for k in ks):
            continue
        cand = list(v)
        for k, b in zip(ks, basis):
            for i in range(M.ambient.rank):
                cand[i] += k * b[i]
        val = vector_norm(M.ambient, cand).hi
        if val < best:
            best = val
    return NormValue.exact(best)


def is_zero(f) -> bool:
    """No known coefficient and no tail mass (once
    ``TruncatedSeries.is_zero``)."""
    return not f.coeffs and (f.tail is None or f.tail.C == 0)


def float_magnitudes_loop(weighted, axes, exps):
    """|g(u)| in floats at every torus sample u over the circle points
    ``axes``, adding h_k u^k left to right for each sample u of the last
    axis, with float tables rebuilt from the points at each call (once
    the package's own loop; it used ``sum``, which compensates
    complex additions from Python 3.14 on, so the order is spelled out
    here)."""
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
        mags.extend(abs(functools.reduce(add, map(mul, h, powers)))
                    for powers in last_axis)
    return mags
