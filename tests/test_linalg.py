from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from daggeralg import linalg


def fraction_rref(A):
    """Gauss-Jordan on Fractions: the reference for ``linalg.rref``."""
    R = [[Fraction(x) for x in row] for row in A]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if R[i][c] != 0), None)
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        inv = R[r][c]
        R[r] = [x / inv for x in R[r]]
        for i in range(rows):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


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
        R, pivots = linalg.rref(A)
        R_ref, pivots_ref = fraction_rref(A)
        rank = len(pivots)
        assert pivots == pivots_ref
        assert R[:rank] == R_ref[:rank]
        assert len(R) == len(A)
        assert all(x == 0 for row in R[rank:] for x in row)
        assert all(type(x) is Fraction for row in R for x in row)
        assert all(len(row) == len(A[0]) for row in R)

    @given(matrices())
    @settings(max_examples=120, deadline=None)
    def test_kernel_basis_and_solve_match(self, A):
        cols = len(A[0]) if A else 0
        rhs = [sum(row, Fraction(0)) + i for i, row in enumerate(A)]
        got = (linalg.kernel_basis(A, cols), linalg.solve(A, rhs))
        with mock.patch.object(linalg, "rref", fraction_rref):
            ref = (linalg.kernel_basis(A, cols), linalg.solve(A, rhs))
        assert got == ref

    def test_fixed_cases(self):
        assert linalg.rref([]) == ([], [])
        assert linalg.rref([[]]) == ([[]], [])
        assert linalg.rref([[0, 0], [0, 0]]) == (
            [[Fraction(0)] * 2, [Fraction(0)] * 2], [])
        # the second row is half the first
        R, pivots = linalg.rref([[2, 4, Fraction(1, 3)],
                                 [1, 2, Fraction(1, 6)],
                                 [Fraction(1, 2), 0, 1]])
        assert pivots == [0, 1]
        assert R == [[1, 0, 2], [0, 1, Fraction(-11, 12)], [0, 0, 0]]
