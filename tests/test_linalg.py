import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form

from daggeralg import linalg
from daggeralg.scalars import over_lcm
from loops import fraction_kernel, fraction_rref, fraction_solve


def reduced(M, pivots):
    """The reduced row echelon form that ``linalg.rref``'s integer rows
    stand for: each row over its pivot, zero past the rank."""
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(M, pivots)] \
        + [[Fraction(x) for x in row] for row in M[len(pivots):]]


entries = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.integers(-9, 9),
    st.just(0),
)


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    """Matrices with int or Fraction entries, and with duplicated rows,
    zero rows and zero columns mixed in so that many are rank-deficient."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    A = [draw(st.lists(entries, min_size=cols, max_size=cols))
         for _ in range(rows)]
    if rows:
        for _ in range(draw(st.integers(0, 2))):
            A.insert(draw(st.integers(0, len(A))),
                     list(A[draw(st.integers(0, rows - 1))]))
        if draw(st.booleans()):
            A.insert(draw(st.integers(0, len(A))), [0] * cols)
        if cols and draw(st.booleans()):
            c = draw(st.integers(0, cols - 1))
            for row in A:
                row[c] = 0
    return A


class TestRref:
    @given(matrices())
    @settings(max_examples=250, deadline=None)
    def test_matches_fraction_gauss_jordan(self, A):
        M, pivots = linalg.rref(A)
        R_ref, pivots_ref = fraction_rref(A)
        rank = len(pivots)
        assert pivots == pivots_ref
        assert reduced(M, pivots)[:rank] == R_ref[:rank]
        assert len(M) == len(A)
        assert all(x == 0 for row in M[rank:] for x in row)
        assert all(type(x) is int for row in M for x in row)
        assert all(len(row) == len(A[0]) for row in M)

    @given(matrices(), st.lists(entries, min_size=6, max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_kernel_basis_and_solve_match(self, A, x):
        # one reduction of [A | B] against one ``fraction_rref`` of
        # [A | b] per column b, and one of A for the kernel: a column
        # with no solution, one with, and zero
        cols = len(A[0]) if A else 0
        B = [[sum(row, Fraction(0)) + i,
              sum((a * b for a, b in zip(row, x)), Fraction(0)), 0]
             for i, row in enumerate(A)]
        X, L, K = linalg.solve(A, B, cols)
        assert K == [over_lcm(b)[0] for b in fraction_kernel(A, cols)]
        assert [x and [Fraction(N, L) for N in x] for x in X] == (
            [fraction_solve(A, [r[j] for r in B], cols) for j in range(3)]
            if A else [])
        # L is the lcm of the pivots of the reduction
        M, pivots = linalg.rref([list(a) + b for a, b in zip(A, B)])
        assert L == math.lcm(*[row[c] for row, c in zip(M, pivots)
                               if c < cols])

    @given(matrices())
    @settings(max_examples=150, deadline=None)
    def test_kernel_vectors_are_primitive_over_lcm(self, A):
        # each kernel vector of the reference is 1 at its free
        # coordinate, so its numerators over the lcm of its denominators
        # have no common factor: they are the primitive vectors that
        # ``solve`` returns and ``check_strictness`` rounds in
        cols = len(A[0]) if A else 0
        _, _, K = linalg.solve(A, [[] for _ in A], cols)
        for b, ref in zip(K, fraction_kernel(A, cols), strict=True):
            nums, L = over_lcm(ref)
            assert 1 in ref and math.gcd(*nums) == 1
            assert nums == b

    def test_fixed_cases(self):
        assert linalg.rref([]) == ([], [])
        assert linalg.rref([[]]) == ([[]], [])
        assert linalg.rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])
        # the second row is half the first
        M, pivots = linalg.rref([[2, 4, Fraction(1, 3)],
                                 [1, 2, Fraction(1, 6)],
                                 [Fraction(1, 2), 0, 1]])
        assert pivots == [0, 1]
        assert reduced(M, pivots) == [[1, 0, 2], [0, 1, Fraction(-11, 12)],
                                      [0, 0, 0]]
        assert M == [[-1, 0, -2], [0, -12, 11], [0, 0, 0]]
        # x = (2, 0) solves x_0 + 2 x_1 = 2 over L = 1, and (-2, 1)
        # spans the kernel
        assert linalg.solve([[1, 2]], [[2]], 2) == ([[2, 0]], 1, [[-2, 1]])


@st.composite
def lattices(draw):
    """Up to 5 integer columns of length 1-5, entries in -9..9, with a
    duplicated column, a zero column or a sum of two mixed in, and a
    target vector."""
    n = draw(st.integers(1, 5))
    vec = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    cols = draw(st.lists(vec, max_size=5))
    if cols and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, len(cols) - 1),
                             min_size=2, max_size=2))
        cols.append(draw(st.sampled_from(
            [list(cols[a]), [0] * n,
             [x + y for x, y in zip(cols[a], cols[b])]])))
    return n, cols, draw(vec)


def sympy_hnf(n, cols):
    """The columns of sympy's Hermite normal form of the matrix with
    columns cols: a basis of their lattice, upper triangular."""
    if not cols:
        return []
    H = hermite_normal_form(Matrix(n, len(cols), lambda i, j: cols[j][i]))
    return [[int(x) for x in H.col(j)] for j in range(H.cols)]


def in_span_over_z(basis, t):
    """Whether t is an integer combination of independent columns: the one
    rational solution of B x = t, by ``linalg.solve``, is integral."""
    if not basis:
        return not any(t)
    (x,), L, _ = linalg.solve(list(zip(*basis)), [[c] for c in t],
                              len(basis))
    return x is not None and all(c % L == 0 for c in x)


class TestLattices:
    @given(lattices())
    @settings(max_examples=200, deadline=None)
    def test_hnf_column_basis_against_sympy(self, case):
        n, cols, t = case
        basis, ref = linalg.hnf_column_basis(cols), sympy_hnf(n, cols)
        # the same lattice: each contains the other's columns
        assert all(in_span_over_z(basis, c) for c in ref + cols)
        assert all(in_span_over_z(ref, b) for b in basis)
        # independent nonzero columns; the lead of each, its first
        # nonzero row, is below the leads of those before it, so each
        # column is zero in the lead rows above its own
        assert len(basis) == len(ref) == len(linalg.rref(
            [[Fraction(x) for x in b] for b in basis])[1])
        leads = [next(i for i, x in enumerate(b) if x) for b in basis]
        assert leads == sorted(set(leads))
        # membership of any vector agrees with sympy's basis
        assert in_span_over_z(basis, t) == in_span_over_z(ref, t)

    def test_empty(self):
        assert linalg.hnf_column_basis([]) == []
        assert linalg.hnf_column_basis([[0, 0]]) == []
        assert linalg.reduce_row([[0, 0]], 1) == (None, [])

    @given(lattices(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_reduce_row(self, case, data):
        n, cols, _ = case
        row = data.draw(st.integers(0, n - 1))
        before = [list(c) for c in cols]
        lead, rest = linalg.reduce_row(cols, row)
        assert cols == before
        assert lead is None or lead[row]
        assert all(c[row] == 0 and any(c) for c in rest)
        reduced = rest + ([lead] if lead else [])
        ref, ref_reduced = sympy_hnf(n, cols), sympy_hnf(n, reduced)
        assert all(in_span_over_z(ref, c) for c in reduced)
        assert all(in_span_over_z(ref_reduced, c) for c in cols)

    @given(lattices(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_incremental_membership(self, case, data):
        """Rows added one at a time, as the Z_triv residue search adds
        coordinates to S: K spans the lattice vectors zero on S, and u is
        t less a lattice vector, zero on S.  t_S is in the lattice of the
        columns cut to the rows S exactly when every step's lead entry
        divides u_i, and once it is not, no larger S is either."""
        n, cols, t = case
        rows = data.draw(st.permutations(range(n)))
        K, u, reachable = cols, list(t), True
        for k, i in enumerate(rows, 1):
            S = rows[:k]
            ref = sympy_hnf(k, [[c[j] for j in S] for c in cols])
            if reachable:
                lead, K = linalg.reduce_row(K, i)
                q, r = divmod(u[i], lead[i]) if lead else (0, u[i])
                reachable = not r
                u = [x - q * y for x, y in zip(u, lead or u)]
                assert not any(u[j] for j in S) or not reachable
            assert in_span_over_z(ref, [t[j] for j in S]) == reachable
