"""The selftest's own oracles against the versions they replaced, and
criterion 1's draws and calls pinned to data."""

import collections
import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daggeralg import selftest
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


# SHA-256 of the JSON rows below, recorded when criterion 1 still drew
# each value afresh (Fraction(rng.randint(-9, 9)) and the like) and the
# oracle still computed its window on Fractions
AXIOM_STREAM_SHA256 = {
    7: "1bd240a6eaa325bf58fe10ab1268a7a5dbd8715cf627f339f1e38ea71d77d26b",
    101: "c8e20d2faee2a98489b38c080300a097454f3676131e1ab00b6d045b5b57d24c",
}
RESIDUE_LATTICES_SHA256 = {
    7: "7629c4f3707ce75af38fb3f7cc81df9f51506a4cd3d149e77446846ef15a1bcf",
    101: "e9f5ce03dc7326e822acde9ded721c54681ba4d46ce1c93e33093b28ecc0a959",
}


def sha256_of_rows(rows):
    return hashlib.sha256(
        json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def strs(xs):
    return [str(x) for x in xs]


def axiom_rows(seed):
    """Criterion 1's 3,000 instances, in the order it draws them."""
    rng = selftest._rng(seed, "axioms")
    rows = []
    for M, x, y, lam in selftest._vector_instances(rng):
        rows.append([M.ring.to_json(), M.flavor, strs(M.weights), strs(x),
                     strs(y), str(lam)])
    for x, y, lam, flavor in selftest._tensor_instances(rng):
        rows.append([x.left.ring.to_json(), flavor, strs(x.left.weights),
                     strs(x.right.weights),
                     [[strs(m), strs(n)] for m, n in x.terms],
                     len(y.terms), str(lam)])
    for f, g, lam, rho in selftest._series_instances(rng):
        rows.append([f.ring.to_json(), f.to_json(), g.to_json(), str(lam),
                     rho.to_json()])
    return rows


@pytest.mark.parametrize("seed", sorted(AXIOM_STREAM_SHA256))
def test_criterion_1_draws_are_pinned(seed):
    """Choosing from shared tables draws the values that building each
    one afresh with rng.randint did."""
    rows = axiom_rows(seed)
    assert len(rows) == 3000
    assert sha256_of_rows(rows) == AXIOM_STREAM_SHA256[seed]


@pytest.mark.parametrize("seed", sorted(RESIDUE_LATTICES_SHA256))
def test_criterion_6_lattices_are_pinned(seed):
    """The oracle keeps the same 100 lattices, at the same distances."""
    rng = selftest._rng(seed, "residue")
    rows = [[cols, v, str(oracle)] for cols, v, oracle
            in itertools.islice(selftest._residue_instances(rng), 100)]
    assert sha256_of_rows(rows) == RESIDUE_LATTICES_SHA256[seed]


def test_criterion_1_calls_the_public_norms(monkeypatch):
    """Criterion 1 checks the package's public norms, not a copy of
    their kernels: the call counts at seed 7 (4 per vector, tensor and
    series instance, 3 norm_T calls per non-Archimedean series instance
    and 1 absolute value per instance)."""
    counts = collections.Counter()

    def counted(name, norm):
        def call(*args):
            counts[name] += 1
            return norm(*args)
        return call

    names = ("vector_norm", "tensor_norm_certified", "norm_S", "norm_T",
             "abs_value")
    for name in names:
        monkeypatch.setattr(selftest, name,
                            counted(name, getattr(selftest, name)))
    assert selftest.criterion_1(7)["passed"]
    assert counts == {"vector_norm": 4000, "tensor_norm_certified": 4000,
                      "norm_S": 4000, "norm_T": 1518, "abs_value": 3000}
