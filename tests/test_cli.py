import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import daggeralg
from daggeralg.cli import (
    MAX_POWER_WORK,
    MAX_TENSOR_DENOMINATOR_BITS,
    main,
    parse_ring,
    parse_rho,
)
from daggeralg.scalars import MAX_RATIONAL_BITS, _is_prime, integers_archimedean
from daggeralg.series import TruncatedSeries, polyradius
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
    ], ids=["two-variable-series", "zero-radius"])
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

    def test_spec_not_an_object(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", ["weierstrass"])
        code = main(["koszul", "--algebra", self.algebra(tmp_path),
                     "--spec", spec])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


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
                 "n = 1, 2, 3, 4, at most 64 coefficients"),
        ("spectrum", "D <= 48, 6, 4, 1 for n = 1, 2, 3, 4"),
        ("shilov", "D <= 48, 6, 4, 1 for n = 1, 2, 3, 4"),
        ("pi-check", "module JSON file of rank at most 64"),
        ("tensor", "factors of rank at most 64, at most 64 terms"),
        ("tensor", "each factor's denominator (the lcm of its entries' "
                   "denominators times that of its weights') of at most "
                   "4096 bits"),
        ("spectrum", "the sum over k < powers of T * min(T^k, C(kd + n, n)) "
                     "term pairs is at most 4000000"),
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

    @pytest.mark.parametrize("coefficient", ['0.1', '1e400', '"1e999999999"',
                                             '"1E5"', 'true'])
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


def test_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert main(["norm", "--series", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nested too deeply" in err
