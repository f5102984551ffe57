"""The selftest's own oracles against the versions they replaced."""

import itertools
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from daggeralg.selftest import _hnf_columns, _oracle_cvp


def sympy_oracle_cvp(columns, v):
    """``_oracle_cvp`` with sympy's matrix inverse for the left inverse
    and the enumeration on ``Fraction``s."""
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    B = hermite_normal_form(Matrix(columns).T)
    cols = [[int(B[i, j]) for i in range(B.rows)] for j in range(B.cols)]
    cols = [c for c in cols if any(c)]
    if not cols:
        return Fraction(sum(abs(x) for x in v))
    Bm = Matrix(cols).T
    left = (Bm.T * Bm).inv() * Bm.T
    row_sum = max(
        sum(abs(left[i, j]) for j in range(left.cols))
        for i in range(left.rows)
    )
    norm_v = sum(abs(x) for x in v)
    window = int(row_sum * 2 * norm_v) + 1
    if window > 12:
        return None
    best = Fraction(norm_v)
    for combo in itertools.product(range(-window, window + 1),
                                   repeat=len(cols)):
        dist = Fraction(0)
        for i in range(len(v)):
            x = v[i] - sum(c * col[i] for c, col in zip(combo, cols))
            dist += abs(x)
            if dist >= best:
                break
        best = min(best, dist)
    return best


_entry = st.integers(-10, 10)
_vector = st.lists(_entry, min_size=3, max_size=3)


@given(st.lists(_vector, min_size=1, max_size=3), _vector)
@example([[0, 0, 0]], [1, -2, 3])  # no basis: the distance is |v|_1
@example([[1, 2, 3], [2, 4, 6]], [1, 0, 0])  # dependent columns
@example([[10, -9, 7]], [10, 10, -10])  # window 7
@example([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [9, -9, 9])  # window 55: rejected
@settings(max_examples=150, deadline=None)
def test_oracle_cvp_matches_sympy_inverse(columns, v):
    """The same distance, and the same keep (a distance) or regenerate
    (None) decision, on the instances criterion 6 draws."""
    assert _oracle_cvp(columns, v) == sympy_oracle_cvp(columns, v)


@given(st.lists(st.lists(st.integers(-50, 50), min_size=3, max_size=3)
                .filter(any) | _vector, min_size=1, max_size=5))
@example([[0, 0, 0]])  # the zero lattice
@example([[2, 4, 6], [1, 2, 3]])  # rank 1 from two columns
@example([[0, 0, -3], [0, 5, 7], [4, 1, 1]])  # a negative pivot
@settings(max_examples=300, deadline=None)
def test_hnf_columns_matches_sympy(columns):
    """The inline Hermite normal form is sympy's, column for column; the
    HNF of a lattice is unique, so criterion 6 keeps the same windows."""
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    B = hermite_normal_form(Matrix(columns).T)
    expected = [[int(B[i, j]) for i in range(B.rows)] for j in range(B.cols)]
    assert _hnf_columns(columns) == [c for c in expected if any(c)]
