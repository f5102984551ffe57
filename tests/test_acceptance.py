"""Full verification gate: runs every selftest criterion once and reports
one pass/fail line per criterion.

The status lines are printed with capture disabled so they stay visible
in a default pytest run.
"""

import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from daggeralg import normed_core, selftest, series, tensor
from daggeralg.localization import laurent_solve
from daggeralg.normed_core import MAX, SUM, WeightedFreeModule
from daggeralg.scalars import rationals_padic
from daggeralg.series import TruncatedSeries, polyradius
from daggeralg.tensor import TensorElement

SEED = 7
GOLDEN = Path(__file__).parent / "data" / "selftest_seed7.json"


@pytest.fixture(scope="module")
def report():
    return selftest.run_all(SEED)


def _criterion(report, k):
    for c in report["criteria"]:
        if c["id"] == k:
            return c
    raise KeyError(k)


def _announce(c, capfd):
    status = "PASS" if c["passed"] else "FAIL"
    line = f"CRITERION {c['id']:2d}: {status} - {c['name']}"
    with capfd.disabled():
        print(line, file=sys.stderr)
    return c["passed"]


def test_criterion_01_norm_axioms(report, capfd):
    assert _announce(_criterion(report, 1), capfd)


def _archimedean_abs_ints(ring, nums, L):
    """``scalars.abs_ints`` as if every ring had the usual |x|."""
    return [abs(N) for N in nums], L


def test_criterion_01_vector_subcheck_counts_a_wrong_absolute_value(
        monkeypatch):
    """A vector norm that takes the Archimedean |.| over Q_3 breaks the
    strong triangle inequality |x + x| <= |x| of the max flavor and the
    scalar bound |3 x| <= |3|_3 |x|, and criterion 1 counts both."""
    M = WeightedFreeModule(rationals_padic(3), (Fraction(1),), MAX)
    inst = (M, (Fraction(1),), (Fraction(1),), Fraction(3))
    assert selftest._check_vector_axioms(inst) == 0
    monkeypatch.setattr(normed_core, "abs_ints", _archimedean_abs_ints)
    assert selftest._check_vector_axioms(inst) == 2


def test_criterion_01_tensor_subcheck_counts_a_wrong_absolute_value(
        monkeypatch):
    """A tensor norm that takes the Archimedean |p| = p over Q_p breaks
    the scalar bound lo(p x) <= |p|_p hi(x), and criterion 1 counts it."""
    Q3 = rationals_padic(3)
    M = WeightedFreeModule(Q3, (Fraction(1),), SUM)
    x = TensorElement(M, M, (((1,), (1,)),))
    inst = (x, x, Fraction(3), SUM)
    assert selftest._check_tensor_axioms(inst) == 0
    monkeypatch.setattr(tensor, "abs_ints", _archimedean_abs_ints)
    assert selftest._check_tensor_axioms(inst) == 1


def test_criterion_01_series_subcheck_counts_a_wrong_absolute_value(
        monkeypatch):
    """Series norms that take the Archimedean |.| over Q_3 break the
    scalar bound |3 f|_S <= |3|_3 |f|_S and the strong triangle
    inequality |f + f|_T <= |f|_T, and criterion 1 counts both."""
    f = TruncatedSeries.constant(rationals_padic(3), 1)
    inst = (f, f, Fraction(3), polyradius(1))
    assert selftest._check_series_axioms(inst) == 0
    monkeypatch.setattr(series, "abs_ints", _archimedean_abs_ints)
    assert selftest._check_series_axioms(inst) == 2


def test_criterion_02_cofinality_bound(report, capfd):
    assert _announce(_criterion(report, 2), capfd)


def test_criterion_03_division_recursion(report, capfd):
    assert _announce(_criterion(report, 3), capfd)


def test_criterion_04_koszul_concentration(report, capfd):
    assert _announce(_criterion(report, 4), capfd)


def test_criterion_05_disk_annulus_gluing(report, capfd):
    assert _announce(_criterion(report, 5), capfd)


@pytest.mark.parametrize("k,accept_all", [
    (3, {"laurent_solve": lambda g, t, D: laurent_solve(
        replace(g, tail=None), replace(t, tail=None), D)}),
    (4, {"koszul_h_check": lambda A, spec: None}),
    (5, {"mayer_vietoris": lambda ring, D, elements, *radii: len(elements)}),
    (8, {"check_adjunction": lambda source, target: None,
         "pi_tensor_check": lambda U, V: None}),
    (9, {"base_change": lambda f, target: f.with_ring(target)}),
], ids=["3", "4", "5", "8", "9"])
def test_criterion_fails_when_a_bad_input_is_accepted(monkeypatch, k,
                                                      accept_all):
    """Criteria 3, 4, 5, 8 and 9 can fail: with validators that reject
    nothing, every negative instance is reported as accepted."""
    for name, validator in accept_all.items():
        monkeypatch.setattr(selftest, name, validator)
    c = getattr(selftest, f"criterion_{k}")(SEED)
    rejected = {key: v for key, v in c["details"].items()
                if key.endswith("_rejected")}
    assert rejected and not any(rejected.values())
    assert c["passed"] is False


def test_criterion_06_residue_norm_oracle(report, capfd):
    assert _announce(_criterion(report, 6), capfd)


@pytest.mark.xfail(
    strict=True,
    reason="the root sequence of power norms is not monotone "
    "non-increasing; certified counterexamples exist, so the "
    "monotonicity sub-check fails honestly (see README, "
    "'Known failing check')",
)
def test_criterion_07_spectral_shilov(report, capfd):
    assert _announce(_criterion(report, 7), capfd)


def test_criterion_08_reflection_adjunction(report, capfd):
    assert _announce(_criterion(report, 8), capfd)


def test_criterion_09_base_change(report, capfd):
    assert _announce(_criterion(report, 9), capfd)


def test_criterion_10_determinism(report, capfd):
    assert _announce(_criterion(report, 10), capfd)


def test_criterion_10_catches_state_leaking_between_criteria(monkeypatch):
    """A criterion whose result depends on which criterion ran just before
    it reports differently in the reverse run, so criterion 10 fails."""
    state = {}

    def first(seed):
        state["last"] = 1
        return {"id": 1, "name": "first", "passed": True, "details": {}}

    def second(seed):
        after_first = state.get("last") == 1
        state["last"] = 2
        return {"id": 2, "name": "second", "passed": True,
                "details": {"ran_after_first": after_first}}

    monkeypatch.setattr(selftest, "_CRITERIA", {1: first, 2: second})
    c10 = _criterion(selftest.run_all(SEED), 10)
    assert c10["details"]["byte_identical"] is False
    assert c10["passed"] is False


def _without_host_details(report):
    """The report minus what depends on the host: per-criterion timings."""
    return dict(report, criteria=[
        dict(c, details={k: v for k, v in c["details"].items()
                         if k != "under_60s"})
        for c in report["criteria"]
    ])


def test_report_matches_golden(report):
    """Byte-identical selftest report: the same seed gives the same report
    as the committed one (regenerate it only for an intended change)."""
    text = json.dumps(_without_host_details(report), sort_keys=True,
                      indent=1) + "\n"
    assert text == GOLDEN.read_text()
