"""Exact linear algebra over the rationals and integer lattices.

Matrices are lists of rows of Fractions (or ints for lattice routines).
Small and dense on purpose: everything in this package is desk scale.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

from .scalars import over_lcm

Matrix = List[List[Fraction]]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def rref(A: Matrix):
    """Row-reduce a copy of A; returns (R, pivot_columns).

    Fraction-free Gauss-Jordan: each row is scaled to integers over the
    lcm of its denominators, a row is cleared against the pivot row by
    integer cross-multiplication and divided by its content, and each
    pivot row is divided by its pivot once, at the end.  R holds
    Fractions; its rows past the rank are zero.
    """
    M = [over_lcm(row)[0] for row in A]
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


def solve(A: Matrix, B: Matrix, cols: int):
    """(X, K): for each column b of B, the solution of A x = b over Q
    whose free coordinates are 0, or None if there is none; and the
    basis of {x : A x = 0} over Q read from the free columns.  A has
    ``cols`` columns and B as many rows as A.

    One ``rref`` of [A | B].  Its rows past the rank of A are zero in A,
    so a column of B has a solution exactly when it is zero in them.
    Adding those rows to the first ones changes neither the part in A
    nor such a column, so both read as in the reduction of [A | b] alone.
    """
    R, pivots = rref([list(a) + list(b) for a, b in zip(A, B, strict=True)])
    pivots = [c for c in pivots if c < cols]

    def column(c):
        x = [Fraction(0)] * cols
        for row, pc in zip(R, pivots):
            x[pc] = row[c]
        return x

    X = [None if any(row[j] for row in R[len(pivots):]) else column(j)
         for j in range(cols, len(R[0]) if R else cols)]
    # e_fc - column(fc): 1 at fc, and -R[r][fc] at the pivot of row r
    K = [[int(c == fc) - x for c, x in enumerate(column(fc))]
         for fc in range(cols) if fc not in pivots]
    return X, K


def reduce_row(columns: List[List[int]], row: int):
    """(lead, rest): the nonzero integer columns, reduced against each
    other in ``row`` by Euclid's steps until at most one, lead (None if
    none), is nonzero there.  A step builds new lists, so the given
    columns never change; those it did not touch come back as they are.
    The steps are unimodular, so lead and rest span the lattice of the
    columns, and rest spans its vectors that vanish in ``row``."""
    cols = [c for c in columns if any(c)]
    while True:
        nz = [j for j, c in enumerate(cols) if c[row]]
        if len(nz) <= 1:
            break
        k = min(nz, key=lambda j: abs(cols[j][row]))
        small = cols[k]
        for j in nz:
            if j != k:
                q = cols[j][row] // small[row]
                cols[j] = [x - q * y for x, y in zip(cols[j], small)]
        cols = [c for c in cols if any(c)]
    lead = cols.pop(nz[0]) if nz else None
    return lead, cols


def hnf_column_basis(columns: List[List[int]]) -> List[List[int]]:
    """Basis of the integer lattice spanned by the given columns.

    Column-style Hermite reduction, one ``reduce_row`` per row: the lead
    of each row joins the basis, so each basis column is zero in the
    rows above its first nonzero one, and those increase.  A given
    column that no step touched is returned as the same list.
    """
    basis, rest = [], columns
    for row in range(len(columns[0]) if columns else 0):
        lead, rest = reduce_row(rest, row)
        if lead is not None:
            basis.append(lead)
    return basis
