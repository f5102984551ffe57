"""Exact linear algebra over the rationals and integer lattices.

Matrices are lists of rows of Fractions (or ints for lattice routines).
Small and dense on purpose: everything in this package is desk scale.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence

Matrix = List[List[Fraction]]


def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    return [
        [sum((A[i][t] * B[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(A):
    if not A:
        return []
    return [list(col) for col in zip(*A)]


def rref(A: Matrix):
    """Row-reduce a copy of A; returns (R, pivot_columns).

    Fraction-free Gauss-Jordan: each row is scaled to integers over the
    lcm of its denominators, a row is cleared against the pivot row by
    integer cross-multiplication and divided by its content, and each
    pivot row is divided by its pivot once, at the end.  R holds
    Fractions; its rows past the rank are zero.
    """
    M = []
    for row in A:
        L = math.lcm(*(x.denominator for x in row))
        M.append([x.numerator * (L // x.denominator) for x in row])
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if M[i][c]), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        P = M[r]
        a = P[c]
        for i in range(rows):
            b = M[i][c]
            if b and i != r:
                g = math.gcd(a, b)
                s, t = a // g, b // g
                row = [s * x - t * y for x, y in zip(M[i], P)]
                g = math.gcd(*row)
                M[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    zero = Fraction(0)
    R = [[Fraction(x, row[c]) if x else zero for x in row]
         for row, c in zip(M, pivots)]
    R.extend([zero] * cols for _ in range(rows - r))
    return R, pivots


def kernel_basis(A: Matrix, cols: int) -> List[List[Fraction]]:
    """Basis of {x : A x = 0} over Q."""
    if not A:
        return [
            [Fraction(int(i == j)) for i in range(cols)] for j in range(cols)
        ]
    R, pivots = rref(A)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def solve(A: Matrix, b: Sequence[Fraction]):
    """One solution of A x = b over Q, or None if inconsistent."""
    if not A:
        return [] if all(x == 0 for x in b) else None
    cols = len(A[0])
    aug = [list(row) + [b[i]] for i, row in enumerate(A)]
    R, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = R[r][cols]
    return x


def saturate_integer(v: Sequence[Fraction]) -> List[int]:
    """Scale a rational vector to a primitive integer vector."""
    den = math.lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = math.gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def reduce_lattice_basis(basis: List[List[int]]) -> List[List[int]]:
    """Pairwise size reduction: repeatedly subtract the nearest integer
    multiple of one vector from another while the Euclidean norm drops.
    Keeps the lattice, improves conditioning for small ranks."""

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    vecs = [list(v) for v in basis]
    changed = True
    while changed:
        changed = False
        for i in range(len(vecs)):
            for j in range(len(vecs)):
                if i == j:
                    continue
                d = dot(vecs[j], vecs[j])
                if d == 0:
                    continue
                q = round(Fraction(dot(vecs[i], vecs[j]), d))
                if q == 0:
                    continue
                cand = [a - q * b for a, b in zip(vecs[i], vecs[j])]
                if dot(cand, cand) < dot(vecs[i], vecs[i]):
                    vecs[i] = cand
                    changed = True
    return vecs


def hnf_column_basis(columns: List[List[int]]) -> List[List[int]]:
    """Basis of the integer lattice spanned by the given columns.

    Column-style Hermite reduction; returns a list of independent integer
    columns generating the same lattice.
    """
    if not columns:
        return []
    n = len(columns[0])
    cols = [list(c) for c in columns if any(x != 0 for x in c)]
    basis: List[List[int]] = []
    for row in range(n):
        # reduce all remaining columns against each other in this row
        while True:
            nz = [c for c in cols if c[row] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(c[row]))
            small = nz[0]
            for c in nz[1:]:
                q = c[row] // small[row]
                for i in range(n):
                    c[i] -= q * small[i]
            cols = [c for c in cols if any(x != 0 for x in c)]
        lead = next((c for c in cols if c[row] != 0), None)
        if lead is not None:
            basis.append(lead)
            cols = [c for c in cols if c is not lead]
    return basis


def lattice_contains(basis: List[List[int]], t: Sequence[int]) -> bool:
    """Whether the integer vector t lies in the lattice spanned by a
    basis from ``hnf_column_basis``.  Each basis column leads in its own
    row, with zeros above and rows in increasing order, so subtracting
    from t, column by column, the multiple that clears the lead row
    leaves zero exactly when t is a member: a remainder left in a lead
    row stays, since no later column touches that row."""
    t = list(t)
    for b in basis:
        r = next(i for i, x in enumerate(b) if x)
        q = t[r] // b[r]
        t = [x - q * y for x, y in zip(t, b)]
    return not any(t)
