import argparse
import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import daggeralg
from daggeralg import cli
from daggeralg.cli import (
    MAX_POWER_WORK,
    MAX_TENSOR_DENOMINATOR_BITS,
    build_parser,
    main,
    parse_ring,
    parse_rho,
)
from daggeralg.localization import LocalizationSpec, present_localization
from daggeralg.scalars import MAX_RATIONAL_BITS, _is_prime, integers_archimedean
from daggeralg.series import (
    MAX_DEGREE,
    DaggerPresentation,
    TruncatedSeries,
    polyradius,
)
from daggeralg.spectrum import power_work


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def series_json(*coeffs, n=1):
    return {
        "n": n,
        "D": len(coeffs) - 1,
        "coeffs": [[[i], str(c)] for i, c in enumerate(coeffs) if c],
    }


class TestParsing:
    def test_ring_shorthands(self):
        assert parse_ring("Z").kind == "IntegersArchimedean"
        assert parse_ring("Ztriv").kind == "IntegersTrivial"
        assert parse_ring("R").kind == "RationalsArchimedean"
        ring = parse_ring("Qp:5")
        assert ring.kind == "Rationals_pAdic" and ring.p == 5

    def test_ring_json_form(self):
        ring = parse_ring('{"kind": "Rationals_pAdic", "p": 3}')
        assert ring.p == 3

    def test_rho_broadcast(self):
        assert parse_rho("1/2", 3) == polyradius(
            Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)
        )
        assert parse_rho("1,2", 2) == polyradius(1, 2)


class TestNormCommand:
    def test_integer_linear(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", series_json(3, 2))
        assert main(["norm", "--series", f, "--ring", "Z", "--rho", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["S"] == {"lo": "5", "hi": "5"}

    def test_padic_sup(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", series_json(2, 1))
        assert main(["norm", "--series", f, "--ring", "Qp:2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["T"] == {"lo": "1", "hi": "1"}

    def test_json_out_matches_stdout(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", series_json(1, 1))
        dest = tmp_path / "report.json"
        assert main(["norm", "--series", f, "--json-out", str(dest)]) == 0
        printed = capsys.readouterr().out
        assert dest.read_text() == printed

    def test_large_prime_is_quick(self, tmp_path, capsys):
        # 2^61 - 1 is prime: trial division up to its square root did
        # not end within 10 s
        f = write_json(tmp_path / "f.json", series_json(2, 1))
        start = time.monotonic()
        assert main(["norm", "--series", f, "--ring",
                     "Qp:2305843009213693951"]) == 0
        assert time.monotonic() - start < 1
        assert json.loads(capsys.readouterr().out)["S"]["lo"] == "2"

    @pytest.mark.parametrize("ring", ["Qp:18446744073709551629",
                                      '{"kind": "Rationals_pAdic", '
                                      '"p": 18446744073709551629}'])
    def test_prime_over_64_bits(self, tmp_path, capsys, ring):
        # the smallest prime above 2^64
        f = write_json(tmp_path / "f.json", series_json(2, 1))
        assert main(["norm", "--series", f, "--ring", ring]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "64 bits" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["norm", "--series", str(tmp_path / "nope.json")]) == 1

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["norm", "--series", str(bad)]) == 1

    def test_zero_denominator_coefficient(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json",
                       {"n": 1, "D": 0, "coeffs": [[[0], "1/0"]]})
        assert main(["norm", "--series", f]) == 1
        assert capsys.readouterr().err == "error: '1/0': zero denominator\n"

    def test_zero_denominator_rho(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", series_json(1, 1))
        assert main(["norm", "--series", f, "--rho", "1/0"]) == 1
        assert capsys.readouterr().err == "error: '1/0': zero denominator\n"

    def test_series_not_an_object(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", [[[0], "1"]])
        assert main(["norm", "--series", f]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_tail_not_an_object(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json",
                       dict(series_json(1, 1), tail=[1]))
        assert main(["norm", "--series", f]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_coefficient_index_not_a_list(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json",
                       {"n": 1, "D": 0, "coeffs": [[0, "1"]]})
        assert main(["norm", "--series", f]) == 1
        assert capsys.readouterr().err.startswith("error:")


# coefficient lists whose exponents are not distinct JSON integers: the
# first three were read as X^1, X^2 and X^1, the last as 5 X
BAD_EXPONENTS = [
    [[[1.9], "1"]],
    [[["2"], "1"]],
    [[[True], "1"]],
    [[[1], "1"], [[1], "5"]],
]


class TestSeriesExponents:
    @pytest.mark.parametrize("coeffs", BAD_EXPONENTS)
    @pytest.mark.parametrize("command", [["norm", "--ring", "Z"],
                                         ["spectrum"], ["shilov"]])
    def test_rejected_series(self, tmp_path, capsys, command, coeffs):
        f = write_json(tmp_path / "f.json", {"n": 1, "D": 2, "coeffs": coeffs})
        assert main(command + ["--series", f, "--rho", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("coeffs", BAD_EXPONENTS)
    @pytest.mark.parametrize("command", ["localize", "koszul"])
    def test_rejected_spec_series(self, tmp_path, capsys, command, coeffs):
        algebra = write_json(tmp_path / "A.json", {
            "ring": {"kind": "Rationals_pAdic", "p": 2}, "n": 1,
            "rho": ["1"], "relations": []})
        spec = write_json(tmp_path / "spec.json", {
            "variant": "weierstrass",
            "fs": [{"n": 1, "D": 2, "coeffs": coeffs}], "radii": ["1"]})
        assert main([command, "--algebra", algebra, "--spec", spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_repeated_index_is_named(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json",
                       {"n": 2, "D": 2, "coeffs": [[[0, 1], "1"],
                                                   [[1, 0], "2"],
                                                   [[0, 1], "3"]]})
        assert main(["norm", "--series", f, "--rho", "1"]) == 1
        assert capsys.readouterr().err == \
            "error: series multi-index [0, 1] is listed twice\n"


class TestTensorCommand:
    def test_certified_norm(self, tmp_path, capsys):
        ring = {"kind": "IntegersArchimedean"}
        element = {
            "left": {"ring": ring, "weights": ["2"], "flavor": "sum"},
            "right": {"ring": ring, "weights": ["3"], "flavor": "sum"},
            "terms": [[["1"], ["1"]]],
        }
        f = write_json(tmp_path / "x.json", element)
        assert main(["tensor", "--element", f]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["norm"] == {"lo": "6", "hi": "6"}

    def test_element_not_an_object(self, tmp_path, capsys):
        f = write_json(tmp_path / "x.json", [1])
        assert main(["tensor", "--element", f]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("terms, extra", [
        ([[["2"], ["1"]]], ["--flavor", "max"]),  # max cost over Z
        ([[["1/2"], ["2"]]], []),  # an entry outside Z
        ([["1", "3"]], []),  # was read as (1) (x) (3)
    ])
    def test_rejected_element(self, tmp_path, capsys, terms, extra):
        ring = {"kind": "IntegersArchimedean"}
        element = {
            "left": {"ring": ring, "weights": ["1"], "flavor": "sum"},
            "right": {"ring": ring, "weights": ["1"], "flavor": "sum"},
            "terms": terms,
        }
        f = write_json(tmp_path / "x.json", element)
        assert main(["tensor", "--element", f] + extra) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestLocalizeAndKoszul:
    def algebra(self, tmp_path):
        obj = {
            "ring": {"kind": "Rationals_pAdic", "p": 2},
            "n": 1,
            "rho": ["1"],
            "relations": [],
        }
        return write_json(tmp_path / "A.json", obj)

    def spec(self, tmp_path):
        obj = {
            "variant": "weierstrass",
            "fs": [{"n": 1, "D": 1, "coeffs": [[[1], "1"]]}],
            "radii": ["1"],
        }
        return write_json(tmp_path / "spec.json", obj)

    def test_localize(self, tmp_path, capsys):
        code = main(["localize", "--algebra", self.algebra(tmp_path),
                     "--spec", self.spec(tmp_path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["presentation"]["n"] == 2
        assert len(out["presentation"]["relations"]) == 1

    def test_koszul_concentrated(self, tmp_path, capsys):
        code = main(["koszul", "--algebra", self.algebra(tmp_path),
                     "--spec", self.spec(tmp_path), "--degree", "8"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"version": 1, "concentrated_in_degree_0": True,
                       "kernel_dimension": 0, "degree": 8}

    @pytest.mark.parametrize("spec", [
        {"variant": "weierstrass",
         "fs": [{"n": 2, "D": 1, "coeffs": [[[0, 1], "1"]]}], "radii": ["1"]},
        {"variant": "weierstrass",
         "fs": [{"n": 1, "D": 1, "coeffs": [[[1], "1"]]}], "radii": ["0"]},
        # was read as no radii, one radius of 1 per series
        {"variant": "weierstrass",
         "fs": [{"n": 1, "D": 1, "coeffs": [[[1], "1"]]}], "radii": []},
    ], ids=["two-variable-series", "zero-radius", "empty-radii"])
    def test_koszul_rejects_what_localize_rejects(self, tmp_path, capsys,
                                                  spec):
        path = write_json(tmp_path / "spec.json", spec)
        code = main(["koszul", "--algebra", self.algebra(tmp_path),
                     "--spec", path])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("variant", ["weierstrass", "laurent"])
    def test_missing_radii_default_to_one(self, tmp_path, capsys, variant):
        """A spec without radii presents like one with radii ["1"], and
        koszul validates it."""
        fs = [{"n": 1, "D": 1, "coeffs": [[[1], "1"]]}]
        outputs = []
        for extra in ({}, {"radii": ["1"]}):
            path = write_json(tmp_path / "spec.json",
                              {"variant": variant, "fs": fs, **extra})
            for command in ("localize", "koszul"):
                assert main([command, "--algebra", self.algebra(tmp_path),
                             "--spec", path]) == 0
                outputs.append(capsys.readouterr().out)
        assert outputs[:2] == outputs[2:]

    def test_koszul_has_no_map_option(self, tmp_path, capsys):
        code = main(["koszul", "--algebra", self.algebra(tmp_path),
                     "--spec", self.spec(tmp_path),
                     "--map", self.algebra(tmp_path)])
        assert code == 1

    def test_algebra_not_an_object(self, tmp_path, capsys):
        A = write_json(tmp_path / "A.json", [1])
        code = main(["localize", "--algebra", A,
                     "--spec", self.spec(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["localize", "koszul"])
    @pytest.mark.parametrize("n", [1.0, True, "1", 0],
                             ids=["float", "boolean", "string", "zero"])
    def test_algebra_n_is_a_positive_integer(self, tmp_path, capsys,
                                             command, n):
        # 1.0 once ended in a TypeError traceback and true was printed back
        A = write_json(tmp_path / "A.json", {
            "ring": {"kind": "Rationals_pAdic", "p": 2}, "n": n,
            "rho": ["1"], "relations": []})
        assert main([command, "--algebra", A,
                     "--spec", self.spec(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_presentation_reads_back_as_an_algebra(self, tmp_path, capsys):
        """The presentation a localize report prints, with no "version"
        inside, is an algebra that localize reads again."""
        report = tmp_path / "report.json"
        assert main(["localize", "--algebra", self.algebra(tmp_path),
                     "--spec", self.spec(tmp_path),
                     "--json-out", str(report)]) == 0
        B = json.loads(report.read_text())["presentation"]
        assert sorted(B) == ["n", "relations", "rho", "ring"]
        spec = write_json(tmp_path / "spec2.json", {
            "variant": "laurent",
            "fs": [{"n": 2, "D": 1, "coeffs": [[[0, 1], "1"]]}]})
        capsys.readouterr()
        assert main(["localize", "--algebra",
                     write_json(tmp_path / "B.json", B), "--spec", spec]) == 0
        assert json.loads(capsys.readouterr().out)["presentation"]["n"] == 3

    def test_spec_not_an_object(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", ["weierstrass"])
        code = main(["koszul", "--algebra", self.algebra(tmp_path),
                     "--spec", spec])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


def run_main(argv):
    """(exit code, stdout, stderr) of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# a radius or tail radius at the 64-bit input cap
BIG = str(2**64 - 1)


@st.composite
def localize_series(draw, n, ring):
    """A series object in n variables within the input caps, with up to
    four coefficients of at most 62 bits, so that 1 minus one of them
    stays within 64, and a tail of 64-bit parts in half the draws.  Half
    the degree bounds are at most 2, so that most specs print."""
    top = MAX_DEGREE[n]
    D = draw(st.integers(0, top) | st.integers(0, min(top, 2)))
    indices = draw(st.lists(st.tuples(*[st.integers(0, D)] * n).filter(
        lambda I: sum(I) <= D), max_size=4, unique=True))
    num = st.integers(-2**62, 2**62)
    integral = ring["kind"].startswith("Integers")
    coeff = num.map(str) if integral else st.builds(
        lambda a, b: f"{a}/{b}", num, st.integers(1, 2**62))
    obj = {"n": n, "D": D,
           "coeffs": [[list(I), draw(coeff)] for I in indices]}
    if draw(st.booleans()):
        radius = st.sampled_from(["1/2", "3/2", "2", "7", BIG])
        obj["tail"] = {"C": draw(st.sampled_from(["0", "1", "5/3", BIG])),
                       "sigma": draw(st.lists(radius, min_size=n,
                                              max_size=n))}
    return obj


def one_minus(h):
    """The series object 1 - h, without h's tail."""
    n, const = h["n"], [0] * h["n"]
    coeffs = {tuple(I): -Fraction(c) for I, c in h["coeffs"]}
    coeffs[tuple(const)] = coeffs.get(tuple(const), 0) + 1
    return {"n": n, "D": h["D"],
            "coeffs": [[list(I), str(c)] for I, c in coeffs.items()]}


@st.composite
def localize_inputs(draw):
    """(algebra, spec): an algebra in n variables with up to two
    relations, tailed or not, and a spec of k series with n + k <= 4.  A
    rational spec lists 1 - h first, so that the witness (1, 1, 0, ...)
    gives 1."""
    ring = draw(st.sampled_from([
        {"kind": "IntegersArchimedean"}, {"kind": "IntegersTrivial"},
        {"kind": "Rationals_pAdic", "p": 3},
        {"kind": "RationalsArchimedean"}]))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, 4 - n))
    radius = st.sampled_from(["1", "1/2", "3", BIG])
    algebra = {"ring": ring, "n": n,
               "rho": draw(st.lists(radius, min_size=n, max_size=n)),
               "relations": draw(st.lists(localize_series(n, ring),
                                          max_size=2))}
    variant = draw(st.sampled_from(["weierstrass", "laurent", "rational"]))
    fs = draw(st.lists(localize_series(n, ring), min_size=k, max_size=k))
    spec = {"variant": variant, "fs": fs,
            "radii": draw(st.lists(radius, min_size=k, max_size=k))}
    if variant == "rational":
        h = draw(localize_series(n, ring))
        spec["h"] = h
        if fs:
            fs[0] = one_minus(h)
        const = {"n": n, "D": 0, "coeffs": [[[0] * n, "1"]]}
        spec["witness"] = [const, const] + [
            {"n": n, "D": 0, "coeffs": []}] * (k - 1)
    return algebra, spec


class TestLocalizeReadsBack:
    """Every presentation that ``localize`` prints is an algebra that
    ``--algebra`` reads back, and a spec whose presentation would not be
    exits 1 with one ``error:`` line."""

    READ_BACK = "error: the localized presentation would not read back: "

    @settings(max_examples=150, deadline=None)
    @given(localize_inputs())
    def test_every_printed_presentation_reads_back(self, case):
        algebra, spec = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            argv = ["localize", "--algebra",
                    write_json(tmp / "A.json", algebra),
                    "--spec", write_json(tmp / "s.json", spec)]
            code, out, err = run_main(argv)
            if code == 0:
                B = json.loads(out)["presentation"]
                empty = {"variant": spec["variant"], "fs": []}
                if spec["variant"] == "rational":
                    empty["h"] = spec["h"]
                again = run_main([
                    "localize", "--algebra", write_json(tmp / "B.json", B),
                    "--spec", write_json(tmp / "e.json", empty)])
                # read back, and an empty spec prints the input's bytes
                assert again == (0, out, "")
                return
        assert code == 1 and err.startswith(self.READ_BACK)
        assert err.count("\n") == 1
        # the presentation is indeed past the caps of the reader
        A = DaggerPresentation.from_json(algebra)
        B = present_localization(A, LocalizationSpec.from_json(spec, A.ring))
        with pytest.raises(ValueError):
            DaggerPresentation.from_json(B.to_json())

    LAURENT_D1 = {"n": 1, "D": 1, "coeffs": [[[1], "1"]]}

    @pytest.mark.parametrize("algebra,spec,cause", [
        # three Laurent series of D = 1: f*Y - 1 has D = 2 in 4 variables
        ({"ring": {"kind": "Rationals_pAdic", "p": 3}, "n": 1,
          "rho": ["1"], "relations": []},
         {"variant": "laurent", "fs": [LAURENT_D1] * 3},
         "series degree bound 2 is outside 0..1 for 4 variables"),
        # a relation of D = 6 in 2 variables, embedded into 3
        ({"ring": {"kind": "IntegersArchimedean"}, "n": 2,
          "rho": ["1", "1"],
          "relations": [{"n": 2, "D": 6, "coeffs": [[[6, 0], "1"],
                                                    [[0, 0], "-1"]]}]},
         {"variant": "weierstrass",
          "fs": [{"n": 2, "D": 1, "coeffs": [[[1, 0], "1"]]}]},
         "series degree bound 6 is outside 0..4 for 3 variables"),
        # a tailed Laurent series with a 64-bit sigma: the product's tail
        # constant has 80 bits
        ({"ring": {"kind": "IntegersArchimedean"}, "n": 1, "rho": ["1"],
          "relations": []},
         {"variant": "laurent",
          "fs": [{"n": 1, "D": 1, "coeffs": [[[0], "1"], [[1], "1"]],
                  "tail": {"C": "1", "sigma": [BIG]}}]},
         "a 80-bit rational is over the cap of 64 bits"),
    ], ids=["laurent-D2-in-4", "relation-D6-in-3", "tail-80-bits"])
    def test_unreadable_spec_rejected(self, tmp_path, algebra, spec, cause):
        code, out, err = run_main([
            "localize", "--algebra", write_json(tmp_path / "A.json", algebra),
            "--spec", write_json(tmp_path / "s.json", spec)])
        assert (code, out, err) == (1, "", self.READ_BACK + cause + "\n")


class TestMVCommand:
    def test_exact(self, tmp_path, capsys):
        f = write_json(tmp_path / "e.json", [{"-1": "1", "0": "2", "3": "1"}])
        assert main(["mv-check", "--elements", f, "--degree", "8"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"version": 1, "exact": True, "elements_checked": 1}

    def test_environment_does_not_set_defaults(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setenv("DAGGERALG_DEGREE", "x")
        f = write_json(tmp_path / "e.json", [{"-1": "1", "0": "2", "3": "1"}])
        assert main(["mv-check", "--elements", f]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert json.loads(captured.out)["exact"] is True

    @pytest.mark.parametrize("elements", [[[1]], 5, {"0": "1"}])
    def test_element_not_an_object(self, tmp_path, capsys, elements):
        f = write_json(tmp_path / "e.json", elements)
        assert main(["mv-check", "--elements", f]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_ring_not_an_object(self, tmp_path, capsys):
        f = write_json(tmp_path / "e.json", [{"0": "1"}])
        assert main(["mv-check", "--elements", f, "--ring", "[1]"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_coefficient_outside_the_ring(self, tmp_path, capsys):
        f = write_json(tmp_path / "e.json", [{"0": "1", "1": "1/2"}])
        assert main(["mv-check", "--elements", f, "--ring", "Z"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("text", [
        '[{"1": "1/2", "01": "3"}]',
        '[{"1": "1/2", "1": "3"}]',
        '[{"1_0": "1"}]',
        '[{"+1": "1"}]',
        '[{" 1": "1"}]',
    ], ids=["leading-zero", "repeated", "underscore", "plus", "space"])
    def test_exponent_keys_are_plain_integers_listed_once(self, tmp_path,
                                                          capsys, text):
        # each of these was read as an integer key, and in the first two
        # the exponent 1 kept only the coefficient 3, so the 1/2 outside
        # Z went unchecked
        path = tmp_path / "e.json"
        path.write_text(text)
        assert main(["mv-check", "--elements", str(path), "--ring", "Z",
                     "--degree", "16"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestSpectrumCommands:
    def test_spectrum_report(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", series_json(1, 1))
        assert main(["spectrum", "--series", f, "--prime-bound", "5",
                     "--powers", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert sorted(out) == ["global_sup", "power_estimates", "version"]
        assert out["global_sup"] == {"lo": "2", "hi": "2"}
        assert len(out["power_estimates"]) == 3

    def test_spectrum_ignores_grid_and_prime_bound(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", series_json(1, -2, 3))
        outs = []
        for grid, prime_bound in (("1", "2"), ("16", "10000")):
            assert main(["spectrum", "--series", f, "--rho", "2/3",
                         "--grid", grid, "--prime-bound", prime_bound]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_spectrum_tail_leaves_global_sup_open(self, tmp_path, capsys):
        series = dict(series_json(1), tail={"C": "100", "sigma": ["2"]})
        f = write_json(tmp_path / "f.json", series)
        assert main(["spectrum", "--series", f, "--rho", "3/2",
                     "--prime-bound", "5", "--powers", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["global_sup"]["hi"] == "inf"

    @pytest.mark.parametrize("command", ["shilov", "spectrum"])
    def test_tail_radius_message(self, tmp_path, capsys, command):
        series = dict(series_json(1), tail={"C": "1", "sigma": ["2"]})
        f = write_json(tmp_path / "f.json", series)
        assert main([command, "--series", f, "--rho", "3"]) == 1
        assert capsys.readouterr().err == (
            "error: tail radius 2 does not dominate evaluation radius 3\n")

    def test_spectrum_tailed_series_at_the_default_powers(self, tmp_path,
                                                          capsys):
        # 1 + 2X - X^3 with tail(C=1, sigma=2) at rho = 1: the estimates
        # went through multiply, which shrank sigma by 3/4 per power, so
        # from --powers 4 on, the default 8 included, this exited 1 with
        # "tail radius (27/32) does not dominate"
        series = dict(series_json(1, 2, 0, -1),
                      tail={"C": "1", "sigma": ["2"]})
        f = write_json(tmp_path / "f.json", series)
        assert main(["spectrum", "--series", f]) == 0
        out = json.loads(capsys.readouterr().out)
        estimates = out["power_estimates"]
        assert len(estimates) == 8
        assert estimates[0] == estimates[1] == {"lo": "33/8", "hi": "33/8"}
        assert out["global_sup"]["hi"] == "inf"

    def test_shilov_confirmed(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", series_json(1, 1))
        assert main(["shilov", "--series", f, "--prime-bound", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["confirmed"] is True

    def test_shilov_confirmed_at_small_radius(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", series_json(1, 1))
        assert main(["shilov", "--series", f, "--rho", "1/2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["confirmed"] is True and out["monomial_floor"] == "1"


class TestPiCommand:
    def test_adjunction_sampling(self, tmp_path, capsys):
        module = {
            "ring": {"kind": "Rationals_pAdic", "p": 2},
            "weights": ["1", "2"],
            "flavor": "sum",
        }
        f = write_json(tmp_path / "M.json", module)
        assert main(["pi-check", "--module", f, "--samples", "20",
                     "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"version": 1, "samples": 20,
                       "adjunction_all_equal": True,
                       "tensor_intertwine_confirmed": True}

    def test_archimedean_module_rejected(self, tmp_path, capsys):
        module = {"ring": {"kind": "IntegersArchimedean"}, "weights": ["1"],
                  "flavor": "sum"}
        f = write_json(tmp_path / "M.json", module)
        assert main(["pi-check", "--module", f]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_module_not_an_object(self, tmp_path, capsys):
        f = write_json(tmp_path / "M.json", [1])
        assert main(["pi-check", "--module", f]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestMissingKeys:
    """Each JSON reader names a missing key, under the name of what it
    reads, and the CLI prints that as one error line."""

    RING = {"kind": "Rationals_pAdic", "p": 2}
    MODULE = {"ring": RING, "weights": ["1"], "flavor": "sum"}
    ALGEBRA = {"ring": RING, "n": 1, "rho": ["1"], "relations": []}
    SPEC = {"variant": "weierstrass",
            "fs": [{"n": 1, "D": 1, "coeffs": [[[1], "1"]]}]}

    @staticmethod
    def without(obj, key):
        return {k: v for k, v in obj.items() if k != key}

    def argv(self, tmp_path, reader):
        def file(name, obj):
            return write_json(tmp_path / name, obj)

        series = file("f.json", series_json(1, 2))
        if reader == "series":
            return ["norm", "--series",
                    file("g.json", self.without(series_json(1, 2),
                                                "coeffs"))]
        if reader == "ring":
            return ["norm", "--series", series, "--ring", '{"p": 3}']
        if reader == "module":
            return ["pi-check", "--module",
                    file("M.json", self.without(self.MODULE, "flavor"))]
        if reader == "tensor element":
            return ["tensor", "--element",
                    file("x.json", {"right": self.MODULE,
                                    "terms": [[["1"], ["1"]]]})]
        spec, algebra = self.SPEC, self.ALGEBRA
        if reader == "algebra":
            algebra = self.without(algebra, "relations")
        else:
            spec = self.without(spec, "variant")
        return ["localize", "--algebra", file("A.json", algebra),
                "--spec", file("spec.json", spec)]

    @pytest.mark.parametrize("reader, key", [
        ("series", "coeffs"), ("ring", "kind"), ("module", "flavor"),
        ("tensor element", "left"), ("algebra", "relations"),
        ("localization spec", "variant")])
    def test_missing_key_is_named(self, tmp_path, capsys, reader, key):
        assert main(self.argv(tmp_path, reader)) == 1
        assert capsys.readouterr().err == \
            f"error: malformed {reader}: missing key {key!r}\n"


class TestDeterminism:
    def test_repeated_reports_identical(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", series_json(1, -2, 3))
        main(["spectrum", "--series", f, "--prime-bound", "5"])
        first = capsys.readouterr().out
        main(["spectrum", "--series", f, "--prime-bound", "5"])
        second = capsys.readouterr().out
        assert first == second


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_reused_parser_keeps_no_state(self, tmp_path, capsys):
        # the parser is built once per process; no call may see what an
        # earlier one parsed, printed or wrote
        f = write_json(tmp_path / "f.json", series_json(3, 0, -2))
        dest = tmp_path / "report.json"
        argv = ["norm", "--series", f, "--ring", "Qp:3", "--rho", "1/2"]
        assert main(["norm", "--rho"]) == 1
        assert main(["--help"]) == 0
        assert main(argv + ["--json-out", str(dest)]) == 0
        dest.unlink()
        capsys.readouterr()
        assert main(argv) == 0
        assert not dest.exists()
        src = str(Path(daggeralg.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        fresh = subprocess.run([sys.executable, "-m", "daggeralg.cli", *argv],
                               capture_output=True, text=True, env=env,
                               timeout=60)
        assert fresh.returncode == 0
        assert capsys.readouterr().out == fresh.stdout


def valid_calls(tmp_path):
    """A valid call of every subcommand, by name."""
    ring = {"kind": "Rationals_pAdic", "p": 2}
    series = write_json(tmp_path / "f.json", series_json(1, -2, 3))
    module = write_json(tmp_path / "M.json", {"ring": ring, "weights": ["1"],
                                              "flavor": "sum"})
    element = write_json(tmp_path / "x.json", {
        "left": {"ring": ring, "weights": ["2"], "flavor": "sum"},
        "right": {"ring": ring, "weights": ["3"], "flavor": "sum"},
        "terms": [[["1"], ["1"]]]})
    algebra = write_json(tmp_path / "A.json", {"ring": ring, "n": 1,
                                               "rho": ["1"], "relations": []})
    spec = write_json(tmp_path / "spec.json", {
        "variant": "weierstrass",
        "fs": [{"n": 1, "D": 1, "coeffs": [[[1], "1"]]}], "radii": ["1"]})
    elements = write_json(tmp_path / "e.json", [{"-1": "1", "3": "1/2"}])
    return {
        "norm": ["norm", "--series", series, "--rho", "2/3"],
        "tensor": ["tensor", "--element", element, "--flavor", "max"],
        "localize": ["localize", "--algebra", algebra, "--spec", spec],
        "koszul": ["koszul", "--algebra", algebra, "--spec", spec,
                   "--degree", "6"],
        "mv-check": ["mv-check", "--elements", elements, "--degree", "8"],
        "spectrum": ["spectrum", "--series", series, "--powers", "3",
                     "--json-out", str(tmp_path / "report.json")],
        "shilov": ["shilov", "--series", series, "--rho", "1/2"],
        "pi-check": ["pi-check", "--module", module, "--samples", "20",
                     "--seed", "3"],
        "selftest": ["selftest", "--seed", "11"],
    }


# per subcommand: (a call missing a required option, a bad type, a value
# outside its cap); selftest requires nothing, and norm, tensor and
# localize have no capped option, so an option missing its value and an
# extra token stand in for them
ARGUMENT_ERRORS = {
    "norm": (["norm"], ["norm", "--series"], ["norm", "--rho", "1", "x"]),
    "tensor": (["tensor", "--flavor", "max"],
               ["tensor", "--element", "x", "--flavor", "dense"],
               ["tensor", "--element"]),
    "localize": (["localize", "--spec", "s"], ["localize", "--algebra"],
                 ["localize", "--algebra", "a", "--spec", "s", "t"]),
    "koszul": (["koszul", "--algebra", "a"],
               ["koszul", "--algebra", "a", "--spec", "s", "--degree", "x"],
               ["koszul", "--algebra", "a", "--spec", "s", "--degree", "21"]),
    "mv-check": (["mv-check", "--degree", "8"],
                 ["mv-check", "--elements", "e", "--degree", "1.5"],
                 ["mv-check", "--elements", "e", "--degree", "257"]),
    "spectrum": (["spectrum", "--powers", "3"],
                 ["spectrum", "--series", "f", "--grid", "two"],
                 ["spectrum", "--series", "f", "--powers", "33"]),
    "shilov": (["shilov", "--rho", "1"],
               ["shilov", "--series", "f", "--prime-bound", "-"],
               ["shilov", "--series", "f", "--prime-bound", "0"]),
    "pi-check": (["pi-check", "--samples", "5"],
                 ["pi-check", "--module", "m", "--seed", "7.0"],
                 ["pi-check", "--module", "m", "--samples", "10001"]),
    "selftest": (["selftest", "--seed"], ["selftest", "--seed", "x"],
                 ["selftest", "extra"]),
}


class TestDispatch:
    """A call that names a subcommand first is parsed by that
    subcommand's parser alone; every call still exits, prints and writes
    as when the full parser reads it."""

    @staticmethod
    def stub_selftest(monkeypatch):
        # the dispatch is under test, not the report: a stub keeps the
        # valid selftest call fast
        report = {"criteria": [{"id": 1, "name": "stub", "passed": True}],
                  "passed": True}
        monkeypatch.setattr(cli, "run_all", lambda seed: dict(report, seed=seed))

    def table(self, tmp_path):
        valid = valid_calls(tmp_path)
        argvs = [[], ["--help"], ["-h"], ["frobnicate"],
                 ["frobnicate", "--help"], ["--bogus"], ["--", "norm"]]
        for name, call in valid.items():
            argvs += [call, [name, "--help"], call + ["-h"],
                      *ARGUMENT_ERRORS[name], call + ["--bogus", "1"],
                      call + ["--"], call + ["--", "x"], [name, "--", *call[1:]]]
        return argvs

    def test_same_as_the_full_parser(self, tmp_path, capsys, monkeypatch):
        self.stub_selftest(monkeypatch)
        table = self.table(tmp_path)
        here = [(main(argv), *capsys.readouterr()) for argv in table]
        with monkeypatch.context() as m:
            m.setattr(cli, "_parse_args", build_parser().parse_args)
            full = [(main(argv), *capsys.readouterr()) for argv in table]
        for argv, outcome, expected in zip(table, here, full):
            assert outcome == expected, argv
        assert {code for code, _, _ in here} == {0, 1}

    def test_a_valid_call_parses_once(self, tmp_path, capsys, monkeypatch):
        self.stub_selftest(monkeypatch)
        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(parser, *args, **kwargs):
            calls.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            counted)
        for name, argv in valid_calls(tmp_path).items():
            calls.clear()
            assert main(argv) == 0
            assert calls == [f"daggeralg {name}"]


def test_selftest_runs_without_sympy():
    """sympy is only a test dependency: with it hidden, ``selftest``
    prints its report and no traceback.  Every criterion but 7 (a
    recorded failure, a strict xfail of the acceptance tests) passes, so
    the exit code is 2.  Text the process buffered on stdout before
    ``main`` comes out once, before the one report: the child process of
    criterion 10 prints nothing."""
    src = str(Path(daggeralg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys; sys.modules['sympy'] = None; print('before main'); "
            "from daggeralg.cli import main; sys.exit(main(['selftest']))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert "Traceback" not in run.stderr
    status = [line.split()[-1] for line in run.stderr.splitlines()]
    assert status == ["PASS"] * 6 + ["FAIL"] + ["PASS"] * 3
    assert run.returncode == 2
    before, report = run.stdout.split("\n", 1)
    assert before == "before main"
    assert json.loads(report)["criteria"][-1]["passed"] is True


class TestSizeCaps:
    # (subcommand, option, cap, values the selftest, the defaults and
    # the benchmark fixtures use)
    CAPS = [
        ("koszul", "--degree", 20, [6, 8]),
        ("mv-check", "--degree", 256, [6, 8]),
        ("spectrum", "--powers", 32, [6, 8]),
        ("spectrum", "--grid", 16, [1, 2]),
        ("spectrum", "--prime-bound", 10000, [5, 50]),
        ("shilov", "--prime-bound", 10000, [5, 50]),
        ("pi-check", "--samples", 10000, [20, 100, 500]),
    ]

    def parse(self, command, *extra):
        from daggeralg.cli import build_parser

        required = {"koszul": ["--algebra", "A", "--spec", "S"],
                    "mv-check": ["--elements", "E"],
                    "spectrum": ["--series", "F"],
                    "shilov": ["--series", "F"],
                    "pi-check": ["--module", "M"]}[command]
        return build_parser().parse_args([command, *required, *extra])

    @pytest.mark.parametrize("command,option,cap,used", CAPS)
    def test_used_values_default_and_cap_accepted(self, command, option,
                                                  cap, used):
        dest = option[2:].replace("-", "_")
        for value in used + [1, cap]:
            args = self.parse(command, option, str(value))
            assert getattr(args, dest) == value
        assert 1 <= getattr(self.parse(command), dest) <= cap

    @pytest.mark.parametrize("command,option,cap,used", CAPS)
    def test_outside_range_rejected(self, command, option, cap, used,
                                    capsys):
        for value in (0, -1, cap + 1):
            assert main([command, option, str(value)]) == 1
            err = capsys.readouterr().err
            assert f"error: argument {option}: {value} is outside 1..{cap}" \
                in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("command,option,cap,used", CAPS)
    def test_cap_stated_in_help(self, command, option, cap, used, capsys):
        assert main([command, "--help"]) == 0
        assert f"(1 to {cap}," in " ".join(capsys.readouterr().out.split())


def dense_series(n, D, entries=None):
    """Every coefficient of total degree <= D set to 1, or ``entries``
    copies of the constant term."""
    if entries is not None:
        return {"n": n, "D": D, "coeffs": [[[0] * n, "1"]] * entries}
    indices = [I for I in itertools.product(range(D + 1), repeat=n)
               if sum(I) <= D]
    return {"n": n, "D": D, "coeffs": [[list(I), "1"] for I in indices]}


def module_json(rank):
    return {"ring": {"kind": "Rationals_pAdic", "p": 2},
            "weights": ["1"] * rank, "flavor": "sum"}


def tensor_json(rank, terms):
    vec = ["1"] * rank
    return {"left": module_json(rank), "right": module_json(1),
            "terms": [[vec, ["1"]]] * terms}


def wide_denominator_tensor(weight_denominator):
    """A rank-64 left factor whose entries have the 64 largest primes
    below 2^64 as denominators, a product of MAX_TENSOR_DENOMINATOR_BITS
    bits, and one weight with the given denominator."""
    primes, q = [], 2**64 - 1
    while len(primes) < 64:
        if _is_prime(q):
            primes.append(q)
        q -= 2
    assert math.prod(primes).bit_length() == MAX_TENSOR_DENOMINATOR_BITS
    left = dict(module_json(64),
                weights=["1"] * 63 + [f"1/{weight_denominator}"])
    return {"left": left, "right": module_json(1),
            "terms": [[[f"1/{p}" for p in primes], ["1"]]]}


class TestInputCaps:
    """Sizes set by JSON input are capped: each cap is accepted, and one
    past it exits 1 with an error line."""

    # the largest degree bound for each variable count (README)
    DEGREE_CAPS = {1: 48, 2: 6, 3: 4, 4: 1}

    # (subcommand, option, input at the cap, input one past it)
    CAPS = [
        *[("norm", "--series", dense_series(n, D), dense_series(n, D + 1))
          for n, D in DEGREE_CAPS.items()],
        ("norm", "--series", dense_series(4, 0), dense_series(5, 0)),
        # a multi-index is listed once, so the degree caps allow at most
        # 49 listed coefficients; 65 copies of one are rejected by count
        ("norm", "--series", dense_series(1, 48), dense_series(1, 0, 65)),
        ("pi-check", "--module", module_json(64), module_json(65)),
        ("tensor", "--element", tensor_json(64, 1), tensor_json(65, 1)),
        ("tensor", "--element", tensor_json(1, 64), tensor_json(1, 65)),
        ("tensor", "--element", wide_denominator_tensor(1),
         wide_denominator_tensor(3)),
    ]

    @pytest.mark.parametrize(
        "command,option,at_cap,past_cap", CAPS,
        ids=[f"series-D-at-n{n}" for n in DEGREE_CAPS]
        + ["series-n", "series-coeffs", "module-rank", "tensor-rank",
           "tensor-terms", "tensor-denominator"])
    def test_cap(self, tmp_path, capsys, command, option, at_cap, past_cap):
        extra = ["--ring", "Qp:2"] if command == "norm" else []
        for obj, code in ((at_cap, 0), (past_cap, 1)):
            path = write_json(tmp_path / "in.json", obj)
            assert main([command, option, path, *extra]) == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("variant", ["weierstrass", "laurent"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_localize_variables(self, tmp_path, capsys, variant, n):
        # the algebra's n variables plus one per series: 4 at the cap
        A = write_json(tmp_path / "A.json", {
            "ring": {"kind": "Rationals_pAdic", "p": 2}, "n": n,
            "rho": ["1"] * n, "relations": []})
        # a constant: X - 2 and 2Y - 1 have degree bound 1, which reads
        # back at 4 variables
        f = {"n": n, "D": 0, "coeffs": [[[0] * n, "2"]]}
        for k, code in ((4 - n, 0), (5 - n, 1)):
            spec = write_json(tmp_path / "spec.json",
                              {"variant": variant, "fs": [f] * k})
            assert main(["localize", "--algebra", A, "--spec", spec]) == code
        out, err = capsys.readouterr()
        assert json.loads(out)["presentation"]["n"] == 4
        assert err == (f"error: {5 - n} localization series over an algebra "
                       f"in {n} variables are over the cap of 4 variables "
                       f"in all\n")

    @pytest.mark.parametrize("n,D", [(1.5, 1), (1, 1.5), ("1", 1), (1, True),
                                     (0, 0), (1, -1)],
                             ids=["float-n", "float-D", "string-n",
                                  "boolean-D", "zero-n", "negative-D"])
    def test_n_and_D_are_small_integers(self, tmp_path, capsys, n, D):
        path = write_json(tmp_path / "f.json",
                          {"n": n, "D": D, "coeffs": []})
        assert main(["norm", "--series", path]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command,stated", [
        ("norm", "n = 1 to 4 variables, degree bound D <= 48, 6, 4, 1 for "
                 "n = 1, 2, 3, 4, at most C(D + n, n) coefficients, one per "
                 "multi-index"),
        ("spectrum", "D <= 48, 6, 4, 1 for n = 1, 2, 3, 4"),
        ("shilov", "D <= 48, 6, 4, 1 for n = 1, 2, 3, 4"),
        ("pi-check", "module JSON file of rank at most 64"),
        ("tensor", "factors of rank at most 64, at most 64 terms"),
        ("tensor", "each factor's denominator (the lcm of its entries' "
                   "denominators times that of its weights') of at most "
                   "4096 bits"),
        ("spectrum", "the sum over k < powers of T * min(T^k, C(kd + n, n)) "
                     "term pairs is at most 4000000"),
        ("localize", "the algebra's variables plus one per listed series are "
                     "at most 4"),
        ("localize", "a spec whose presentation --algebra would not read "
                     "back (a relation past the series caps of --series in "
                     "its variable count, or a rational of over 64 bits) "
                     "exits 1"),
    ])
    def test_caps_stated_in_help(self, capsys, command, stated):
        assert main([command, "--help"]) == 0
        assert stated in " ".join(capsys.readouterr().out.split())


class TestPowersCap:
    """``spectrum --powers`` is capped by the term pairs its convolutions
    may multiply, which the option caps and the series caps would
    otherwise multiply into minutes of work."""

    def test_over_the_cap_exits_at_once(self, tmp_path, capsys):
        # dense at n = 3, D = 4: --powers 14 may multiply 3,574,025 term
        # pairs, under the cap, and --powers 15 4,711,840
        f = TruncatedSeries.from_json(dense_series(3, 4),
                                      integers_archimedean())
        assert power_work(f, 14) <= MAX_POWER_WORK
        path = write_json(tmp_path / "f.json", dense_series(3, 4))
        start = time.monotonic()
        assert main(["spectrum", "--series", path, "--powers", "15",
                     "--grid", "16", "--prime-bound", "10000"]) == 1
        assert time.monotonic() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: --powers 15 may multiply 4711840 term "
                              "pairs") and "cap of 4000000" in err

    @pytest.mark.parametrize("n,D", [(1, 48), (4, 1)])
    def test_every_power_count_within_the_cap(self, n, D):
        # the widest and the narrowest capped shapes take any --powers
        f = TruncatedSeries.from_json(dense_series(n, D),
                                      integers_archimedean())
        assert power_work(f, 32) <= MAX_POWER_WORK


class TestExactRationals:
    """Only exact rationals are read: no JSON float, no exponent
    notation, no boolean."""

    # "1_0", " 3" and "\u0661\u0662" were read as 10, 3 and 12
    @pytest.mark.parametrize("coefficient", ['0.1', '1e400', '"1e999999999"',
                                             '"1E5"', 'true', '"1_0"', '" 3"',
                                             '"\\u0661\\u0662"'])
    def test_series_coefficient(self, tmp_path, capsys, coefficient):
        path = tmp_path / "f.json"
        path.write_text('{"n": 1, "D": 0, "coeffs": [[[0], %s]]}' % coefficient)
        assert main(["norm", "--series", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("command,option,obj", [
        ("pi-check", "--module", dict(module_json(1), weights=[0.5])),
        ("tensor", "--element", dict(tensor_json(1, 1), terms=[[[0.5], [1]]])),
        ("mv-check", "--elements", [{"0": 0.5}]),
        ("spectrum", "--series", dict(series_json(1),
                                      tail={"C": "1e9", "sigma": ["2"]})),
    ])
    def test_other_readers(self, tmp_path, capsys, command, option, obj):
        path = write_json(tmp_path / "in.json", obj)
        assert main([command, option, path]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_rho(self, tmp_path, capsys):
        path = write_json(tmp_path / "f.json", series_json(1, 1))
        assert main(["norm", "--series", path, "--rho", "1e999999999"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    # the first four were read as 10, 1, 3 and 3; "abc" was named only as
    # an invalid literal for int()
    @pytest.mark.parametrize("option,value", [
        ("--rho", "1_0"), ("--rho", " 1"), ("--ring", "Qp:+3"),
        ("--ring", "Qp: 3"), ("--ring", "Qp:03"), ("--ring", "Qp:abc")])
    def test_numbers_on_the_command_line(self, tmp_path, capsys, option,
                                         value):
        path = write_json(tmp_path / "f.json", series_json(1, 1))
        assert main(["norm", "--series", path, option, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option} " if option == "--ring"
                              else "error:") and err.count("\n") == 1

    def test_decimal_string_is_exact(self, tmp_path, capsys):
        path = write_json(tmp_path / "f.json", series_json("0.1"))
        assert main(["norm", "--series", path, "--ring", "R"]) == 0
        assert json.loads(capsys.readouterr().out)["S"]["hi"] == "1/10"


class TestRationalSizes:
    """Each rational read from JSON or the command line has a numerator
    and a denominator of at most MAX_RATIONAL_BITS bits; one bit more
    exits 1 with an error line."""

    BIG = 2 ** MAX_RATIONAL_BITS

    @staticmethod
    def localize_spec(radius):
        return {"variant": "weierstrass",
                "fs": [{"n": 1, "D": 1, "coeffs": [[[1], "1"]]}],
                "radii": [radius]}

    # (subcommand, JSON option or None for --rho, input for a value)
    READERS = [
        ("norm", None, lambda x: series_json(1, 1)),
        ("norm", "--series", lambda x: series_json(x)),
        ("norm", "--series", lambda x: dict(series_json(1),
                                            tail={"C": x, "sigma": ["2"]})),
        ("pi-check", "--module", lambda x: dict(module_json(1), weights=[x])),
        ("tensor", "--element",
         lambda x: dict(tensor_json(1, 1), terms=[[[x], ["1"]]])),
        ("mv-check", "--elements", lambda x: [{"0": x}]),
        ("localize", "--spec", localize_spec),
    ]

    @pytest.mark.parametrize("command,option,build", READERS,
                             ids=["rho", "coefficient", "tail", "weight",
                                  "tensor-term", "laurent", "radius"])
    @pytest.mark.parametrize("side", ["numerator", "denominator"])
    def test_cap(self, tmp_path, capsys, command, option, build, side):
        for top, code in ((self.BIG - 1, 0), (self.BIG + 1, 1)):
            x = str(top) if side == "numerator" else f"1/{top}"
            path = write_json(tmp_path / "in.json", build(x))
            if option is None:
                argv = ["norm", "--series", path, "--rho", x]
            elif command == "norm":
                argv = ["norm", "--series", path, "--ring", "Qp:2"]
            elif command == "localize":
                argv = ["localize", "--algebra",
                        TestLocalizeAndKoszul().algebra(tmp_path),
                        "--spec", path]
            else:
                argv = [command, option, path]
            assert main(argv) == code, x
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{MAX_RATIONAL_BITS} bits" in err

    def test_long_rho_exits_at_once(self, tmp_path, capsys):
        # a 100-digit denominator at degree 48 used to compute every norm
        # and fail only when printing an integer of over 4,300 digits
        path = write_json(tmp_path / "f.json", dense_series(1, 48))
        start = time.monotonic()
        assert main(["norm", "--series", path, "--ring", "Qp:2",
                     "--rho", "1/" + "7" * 100]) == 1
        assert time.monotonic() - start < 1
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command,option,text,key", [
    # a later "tail": null once dropped the tail, and the exact norm of
    # the known part was printed
    ("norm", "--series", '{"n": 1, "D": 1, "coeffs": [[[1], "1"]], '
     '"tail": {"C": "1", "sigma": ["2"]}, "tail": null}', "tail"),
    ("norm", "--series", '{"n": 1, "D": 0, "coeffs": [], "D": 48}', "D"),
    ("pi-check", "--module", '{"ring": {"kind": "Rationals_pAdic", "p": 2, '
     '"p": 3}, "weights": ["1"], "flavor": "sum"}', "p"),
    # the inner object is read first, and its first repeat is named
    ("norm", "--series", '{"n": 1, "D": 1, "coeffs": [[[1], "1"]], '
     '"tail": {"C": "1", "sigma": ["2"], "sigma": ["3"], "C": "2"}, '
     '"n": 1}', "sigma"),
    ("pi-check", "--module", '{"weights": [{"a": 1, "b": 2, "b": 3, '
     '"a": 4}], "ring": {"kind": "Z", "kind": "Z"}, "flavor": "sum"}', "b"),
], ids=["series-tail", "series-D", "ring-prime", "nested-tail",
        "nested-list"])
def test_repeated_json_key(tmp_path, capsys, command, option, text, key):
    path = tmp_path / "in.json"
    path.write_text(text)
    assert main([command, option, str(path)]) == 1
    assert capsys.readouterr().err == \
        f"error: a JSON object repeats the key {key!r}\n"


def test_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert main(["norm", "--series", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nested too deeply" in err


# the key that marks each kind of JSON object, and the name its reader
# gives it in an error line
READER_OF_KEY = {"kind": "ring", "coeffs": "series", "sigma": "series tail",
                 "weights": "module", "terms": "tensor element",
                 "relations": "algebra", "variant": "localization spec"}

# the keys that a reader lets a JSON object leave out
OPTIONAL_KEYS = {"p", "tail", "radii", "h", "witness"}


def json_objects(value):
    """Every JSON object in ``value``, at any depth."""
    if type(value) is dict:
        yield value
        value = list(value.values())
    if type(value) is list:
        for child in value:
            yield from json_objects(child)


class TestMutatedInput:
    """One always-invalid change to one member of one JSON object of a
    valid call, at any depth, exits 1 with one error line and no
    traceback.  An unknown, missing or wrongly typed key is named as
    malformed input of the reader it belongs to, and a repeated key keeps
    the message of the JSON parser."""

    MUTATIONS = ["rename", "drop", "true", "1.5", "digits", "{}", "wrap",
                 "repeat"]

    @staticmethod
    def calls(tmp_path):
        """The valid calls of every subcommand that reads JSON, and calls
        with a tailed series, a ring given as JSON and a rational spec."""
        calls = valid_calls(tmp_path)
        del calls["selftest"]
        ring = '{"kind": "Rationals_pAdic", "p": 3}'
        tailed = write_json(tmp_path / "tailed.json", dict(
            series_json(1, -2, 3), tail={"C": "1", "sigma": ["1"]}))
        one = {"n": 1, "D": 0, "coeffs": [[[0], "1"]]}
        spec = write_json(tmp_path / "rational.json", {
            "variant": "rational",
            "fs": [{"n": 1, "D": 1, "coeffs": [[[1], "1"]]}], "radii": ["1"],
            "h": one, "witness": [one, {"n": 1, "D": 0, "coeffs": []}]})
        calls["norm-tailed"] = ["norm", "--series", tailed, "--rho", "2/3",
                                "--ring", ring]
        calls["mv-check-ring"] = calls["mv-check"] + ["--ring", ring]
        calls["localize-rational"] = ["localize", "--algebra",
                                      calls["localize"][2], "--spec", spec]
        return calls

    @staticmethod
    def mutate(obj, key, mutation):
        """``obj`` with one member changed, a repeated key standing as the
        key "\\0", or None when the change could leave the input valid."""
        value = obj[key]
        changed = {k: v for k, v in obj.items() if k != key}
        if mutation == "rename":
            changed[key + "_"] = value
        elif mutation == "drop":
            if key in OPTIONAL_KEYS:
                return None
        elif mutation in ("digits", "{}"):
            if type(value) is not list:
                return None
            changed[key] = "12" if mutation == "digits" else {}
        elif mutation == "wrap":
            if type(value) is list:
                return None
            changed[key] = [value]
        elif mutation == "repeat":
            changed[key] = value
            changed["\0"] = value
        else:
            changed[key] = json.loads(mutation)
        return changed

    # each was read as another input and exited 0
    @pytest.mark.parametrize("command,option,obj", [
        ("norm", "--series", dict(series_json(1), tail={})),
        ("norm", "--series", dict(series_json(1), tail=0)),
        ("norm", "--series", dict(series_json(1),
                                  tial={"C": "5", "sigma": ["3"]})),
        ("norm", "--series", dict(series_json(1, n=2),
                                  tail={"C": "1", "sigma": "34"})),
        ("norm", "--series", dict(series_json(1), coeffs={})),
        ("localize", "--algebra", {"ring": {"kind": "IntegersArchimedean"},
                                   "n": 2, "rho": "12", "relations": []}),
        ("pi-check", "--module", dict(module_json(2), weights="12")),
        ("tensor", "--element", dict(tensor_json(2, 1), terms=[["12", "3"]])),
        ("norm", "--ring", {"kind": "IntegersArchimedean", "q": 3}),
    ], ids=["tail-empty", "tail-zero", "tail-misspelled", "sigma-digits",
            "coeffs-empty", "rho-digits", "weights-digits", "term-digits",
            "ring-unknown-key"])
    def test_wrong_shapes(self, tmp_path, capsys, command, option, obj):
        if option == "--ring":
            argv = ["norm", "--series",
                    write_json(tmp_path / "f.json", series_json(1)),
                    "--ring", json.dumps(obj)]
        else:
            argv = [command, option, write_json(tmp_path / "in.json", obj)]
        if command == "localize":
            argv += ["--spec", write_json(tmp_path / "spec.json", {
                "variant": "weierstrass", "fs": []})]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed ") and err.count("\n") == 1

    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_exits_with_one_error_line(self, tmp_path, capsys, data):
        calls = self.calls(tmp_path)
        argv = list(calls[data.draw(st.sampled_from(sorted(calls)))])
        # the JSON inputs of the call: files, and a ring given as JSON
        slots = [i for i, a in enumerate(argv) if a.startswith("{")
                 or a.endswith(".json") and argv[i - 1] != "--json-out"]
        i = data.draw(st.sampled_from(slots))
        is_file = argv[i].endswith(".json")
        root = json.loads(Path(argv[i]).read_text() if is_file else argv[i])
        obj = data.draw(st.sampled_from(list(json_objects(root))))
        key = data.draw(st.sampled_from(sorted(obj)))
        laurent = argv[i - 1] == "--elements"
        mutation = data.draw(st.sampled_from(
            ["rename", "true", "1.5", "[1]", "repeat"] if laurent
            else self.MUTATIONS))
        changed = self.mutate(obj, key, mutation)
        assume(changed is not None)
        # swap the changed object in by identity, then spell the repeat
        swap = id(obj)

        def rebuild(value):
            if id(value) == swap:
                return changed
            if type(value) is dict:
                return {k: rebuild(v) for k, v in value.items()}
            if type(value) is list:
                return [rebuild(v) for v in value]
            return value

        text = json.dumps(rebuild(root)).replace('"\\u0000"', json.dumps(key))
        if is_file:
            path = tmp_path / "mutated.json"
            path.write_text(text)
            argv[i] = str(path)
        else:
            argv[i] = text
        capsys.readouterr()
        assert main(argv) == 1, (argv, text)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") \
            and "Traceback" not in err, (text, err)
        if mutation == "repeat":
            assert err.startswith("error: a JSON object repeats the key")
        elif not laurent:
            what = next(READER_OF_KEY[k] for k in READER_OF_KEY if k in obj)
            assert err.startswith(f"error: malformed {what}"), (text, err)
