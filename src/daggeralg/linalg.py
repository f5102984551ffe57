"""Exact linear algebra over the rationals and integer lattices.

Matrices are lists of rows of rationals (Fractions or ints); every
routine computes on integers and returns integers.  Small and dense on
purpose: everything in this package is desk scale.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

from .scalars import over_lcm

Matrix = List[List[Fraction]]


def rref(A: Matrix):
    """Row-reduce a copy of A without fractions; returns (M, pivots).

    Each row is scaled to integers over the lcm of its denominators, a
    row is cleared against the pivot row by integer cross-multiplication
    and divided by its content.  M holds these integer rows: row r is
    nonzero at pivots[r] and zero at every other pivot, so the reduced
    row echelon form of A is M[r] / M[r][pivots[r]], and the rows past
    the rank are zero.
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
    return M, pivots


def solve(A: Matrix, B: Matrix, cols: int):
    """(X, L, K) on integers, from one ``rref`` of [A | B].  A has
    ``cols`` columns and B as many rows as A.

    L is the lcm of the pivots of A's part.  For each column b of B, X
    holds the numerators over L of the solution of A x = b whose free
    coordinates are 0, or None if there is none: x at the pivot of row
    r is M[r][b] / M[r][pivot] = M[r][b] (L / M[r][pivot]) / L.  K is
    the basis of {x : A x = 0} over Q read from the free columns, each
    vector e_fc - (column fc) as its primitive integer multiple, L at
    fc over the gcd of its entries, so positive there.

    The rows past the rank of A are zero in A, so a column of B has a
    solution exactly when it is zero in them.  Adding those rows to the
    first ones changes neither the part in A nor such a column, so both
    read as in the reduction of [A | b] alone.
    """
    M, pivots = rref([list(a) + list(b) for a, b in zip(A, B, strict=True)])
    pivots = [c for c in pivots if c < cols]
    rows = M[:len(pivots)]
    L = math.lcm(*[row[c] for row, c in zip(rows, pivots)])
    scale = [L // row[c] for row, c in zip(rows, pivots)]

    def column(c):
        x = [0] * cols
        for row, pc, q in zip(rows, pivots, scale):
            x[pc] = row[c] * q
        return x

    X = [None if any(row[j] for row in M[len(pivots):]) else column(j)
         for j in range(cols, len(M[0]) if M else cols)]
    K = []
    for fc in range(cols):
        if fc not in pivots:
            b = [-x for x in column(fc)]
            b[fc] = L
            g = math.gcd(*b)
            K.append([x // g for x in b])
    return X, L, K


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
    rows above its first nonzero one, and those increase.  Once at most
    one column is left, no step is needed: it is zero above its first
    nonzero row, where it would lead.  A given column that no step
    touched is returned as the same list.
    """
    basis, rest = [], columns
    for row in range(len(columns[0]) if columns else 0):
        if len(rest) < 2:
            return basis + [c for c in rest if any(c)]
        lead, rest = reduce_row(rest, row)
        if lead is not None:
            basis.append(lead)
    return basis
