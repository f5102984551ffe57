"""Command-line frontend: JSON in, JSON report out, deterministic.

Exit codes: 0 for success/confirmed verdicts, 2 for violation or
unconfirmed verdicts, 1 for malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .errors import DaggerAlgError, members
from .localization import (
    LocalizationSpec,
    koszul_h_check,
    mayer_vietoris,
    present_localization,
)
from .nonarch import check_adjunction
from .normed_core import MAX, MAX_RANK, SUM, WeightedFreeModule
from .scalars import (
    MAX_RATIONAL_BITS,
    BanachRing,
    integers_archimedean,
    integers_trivial,
    rationals_archimedean,
    rationals_padic,
    read_rational,
)
from .selftest import REPORT_VERSION, run_all
from .series import (
    MAX_DEGREE,
    DaggerPresentation,
    PolyRadius,
    TruncatedSeries,
    check_caps,
    norm_S,
    norm_T,
)
from .spectrum import (
    global_sup,
    power_work,
    shilov_check,
    spectral_via_powers,
)
from .tensor import TensorElement, tensor_norm_certified

# most terms in a tensor element read from JSON (README)
MAX_TENSOR_TERMS = 64

# largest bit length of a tensor factor's denominator, the lcm of its
# entries' denominators times the lcm of its weights' denominators: the
# norm's numerator and denominator then have at most twice this many
# bits and a few hundred more, under Python's 4,300-digit limit on
# printing an integer (README)
MAX_TENSOR_DENOMINATOR_BITS = 4096

# most term pairs that `spectrum --powers` may multiply, by the bound of
# spectrum.power_work: about 1 s with small coefficients, 2 s at n = 4
# (README)
MAX_POWER_WORK = 4_000_000

# most variables of the presentation `localize` prints, n plus one per
# series: k series give k relations in n + k variables, a size growing
# with k^2.  A series read from JSON has at most this many (README)
MAX_LOCALIZED_VARIABLES = max(MAX_DEGREE)

SERIES_HELP = (f"series JSON file: n = 1 to {max(MAX_DEGREE)} variables, "
               f"degree bound D <= {', '.join(map(str, MAX_DEGREE.values()))} "
               f"for n = {', '.join(map(str, MAX_DEGREE))}, at most "
               f"C(D + n, n) coefficients, one per multi-index")


def parse_ring(text: str) -> BanachRing:
    if text == "Z":
        return integers_archimedean()
    if text == "Ztriv":
        return integers_trivial()
    if text == "R":
        return rationals_archimedean()
    if text.startswith("Qp:"):
        return rationals_padic(_plain_int(text[3:], f"--ring {text}"))
    return BanachRing.from_json(_parse_json(text, "--ring"))


def _plain_int(text: str, where: str) -> int:
    """An integer as str() writes it, in ASCII digits: not "+1", " 1", "01"
    or "1_0", all of which int() reads."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()) or \
            digits[0] == "0" and text != "0":
        raise ValueError(f"{where}: {text!r} is not a plain integer")
    return int(text)


def parse_rho(text: str, n: int) -> PolyRadius:
    parts = [read_rational(p) for p in text.split(",")]
    if len(parts) == 1 and n > 1:
        parts = parts * n
    return PolyRadius(tuple(parts))


def _unique_keys(pairs):
    """A JSON object from its (key, value) pairs, none repeating a key.
    The pairs are walked for the first repeat only when a key repeats."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for k, _ in pairs:
            if k in seen:
                raise ValueError(f"a JSON object repeats the key {k!r}")
            seen.add(k)
    return obj


def _parse_json(text: str, where: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError(f"{where}: JSON nested too deeply") from None


def _load_json(path: str):
    with open(path) as fh:
        return _parse_json(fh.read(), path)


def _emit(report, args) -> None:
    """Print the report stamped with REPORT_VERSION, also to --json-out."""
    text = json.dumps(dict(report, version=REPORT_VERSION), sort_keys=True,
                      indent=2)
    if getattr(args, "json_out", None):
        with open(args.json_out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _series_and_rho(args, ring: BanachRing):
    """The series of --series over the ring, and the polyradius --rho."""
    f = TruncatedSeries.from_json(_load_json(args.series), ring)
    return f, parse_rho(args.rho, f.n)


def _algebra_and_spec(args):
    """The presentation --algebra, and the localization --spec over it."""
    A = DaggerPresentation.from_json(_load_json(args.algebra))
    return A, LocalizationSpec.from_json(_load_json(args.spec), A.ring)


def cmd_norm(args) -> int:
    f, rho = _series_and_rho(args, parse_ring(args.ring))
    _emit({"S": norm_S(f, rho).to_json(), "T": norm_T(f, rho).to_json()},
          args)
    return 0


def _read_tensor_element(obj) -> TensorElement:
    left, right, terms = members(obj, "tensor element", {
        "left": dict, "right": dict, "terms": list})
    left = WeightedFreeModule.from_json(left)
    right = WeightedFreeModule.from_json(right)
    if len(terms) > MAX_TENSOR_TERMS:
        raise ValueError(f"{len(terms)} tensor terms are over the cap of "
                         f"{MAX_TENSOR_TERMS}")
    if any(type(t) is not list or list(map(type, t)) != [list, list]
           for t in terms):
        raise ValueError("malformed tensor element: a term is a pair of "
                         "lists of rationals")
    terms = tuple((tuple(map(read_rational, m)), tuple(map(read_rational, n)))
                  for m, n in terms)
    # the lcm grows one entry at a time and stops past the cap: one of
    # 4,096 unrelated 64-bit denominators takes most of a second
    for side, name, module in ((0, "left", left), (1, "right", right)):
        weights = math.lcm(*(w.denominator for w in module.weights))
        den = 1
        for x in (x for term in terms for x in term[side]):
            den = math.lcm(den, x.denominator)
            if (weights * den).bit_length() > MAX_TENSOR_DENOMINATOR_BITS:
                raise ValueError(f"the {name} factor's denominator is over "
                                 f"the cap of {MAX_TENSOR_DENOMINATOR_BITS} "
                                 f"bits")
    return TensorElement(left, right, terms)


def cmd_tensor(args) -> int:
    x = _read_tensor_element(_load_json(args.element))
    nv = tensor_norm_certified(x, args.flavor)
    _emit({"norm": nv.to_json(), "flavor": args.flavor}, args)
    return 0


def cmd_localize(args) -> int:
    A, spec = _algebra_and_spec(args)
    if spec.fs and A.n + len(spec.fs) > MAX_LOCALIZED_VARIABLES:
        raise ValueError(f"{len(spec.fs)} localization series over an "
                         f"algebra in {A.n} variables are over the cap of "
                         f"{MAX_LOCALIZED_VARIABLES} variables in all")
    B = present_localization(A, spec)
    # the printed presentation must pass --algebra's caps
    for r in B.relations:
        tail = () if r.tail is None else (r.tail.C, *r.tail.sigma)
        try:
            check_caps(r.n, r.degree_bound, [*r.coeffs.values(), *tail])
        except ValueError as exc:
            raise ValueError(f"the localized presentation would not read "
                             f"back: {exc}") from None
    _emit({"presentation": B.to_json()}, args)
    return 0


def cmd_koszul(args) -> int:
    koszul_h_check(*_algebra_and_spec(args))
    # H^-1 = 0 because X - f is monic and g*Y - 1 has a unit constant
    # term; the degree is only echoed, as bench/workloads.py compares it
    _emit({"concentrated_in_degree_0": True, "kernel_dimension": 0,
           "degree": args.degree}, args)
    return 0


def cmd_mv_check(args) -> int:
    ring = parse_ring(args.ring)
    elements = _load_json(args.elements)
    if type(elements) is not list or \
            any(type(e) is not dict for e in elements):
        raise ValueError("mv-check elements must be a JSON list of objects")
    elements = [{_plain_int(k, "mv-check exponent"): read_rational(v)
                 for k, v in e.items()} for e in elements]
    checked = mayer_vietoris(ring, args.degree, elements)
    # exact by the unique split of a Laurent polynomial by exponent sign
    _emit({"exact": True, "elements_checked": checked}, args)
    return 0


def cmd_spectrum(args) -> int:
    f, rho = _series_and_rho(args, integers_archimedean())
    work = power_work(f, args.powers)
    if work > MAX_POWER_WORK:
        raise ValueError(f"--powers {args.powers} may multiply {work} term "
                         f"pairs for this series, over the cap of "
                         f"{MAX_POWER_WORK}")
    _emit({"global_sup": global_sup(f, rho).to_json(),
           "power_estimates": [nv.to_json() for nv in
                               spectral_via_powers(f, rho, args.powers)]},
          args)
    return 0


def cmd_shilov(args) -> int:
    verdict = shilov_check(*_series_and_rho(args, integers_archimedean()))
    _emit({"confirmed": verdict.confirmed,
           "archimedean_sup": verdict.archimedean_sup.to_json(),
           "max_other_fiber": verdict.max_other.to_json(),
           "monomial_floor": str(verdict.max_other.lo)}, args)
    return 0 if verdict.confirmed else 2


def cmd_pi_check(args) -> int:
    M = WeightedFreeModule.from_json(_load_json(args.module))
    # check_adjunction rejects every module that pi_tensor_check(M, M)
    # would, and both identities hold by theorem (see nonarch);
    # bench/workloads.py still passes --samples and --seed, which are
    # ignored
    check_adjunction(M, M)
    _emit({"samples": args.samples, "adjunction_all_equal": True,
           "tensor_intertwine_confirmed": True}, args)
    return 0


def cmd_selftest(args) -> int:
    report = run_all(args.seed)
    for c in report["criteria"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"criterion {c['id']:2d} {c['name']:<24s} {status}",
              file=sys.stderr)
    _emit(report, args)
    return 0 if report["passed"] else 2


# the handler of each subcommand, looked up at each call rather than bound
# into the cached parser, so that a wrapper installed here (a tracer's,
# say) takes effect
_COMMANDS = {
    "norm": cmd_norm,
    "tensor": cmd_tensor,
    "localize": cmd_localize,
    "koszul": cmd_koszul,
    "mv-check": cmd_mv_check,
    "spectrum": cmd_spectrum,
    "shilov": cmd_shilov,
    "pi-check": cmd_pi_check,
    "selftest": cmd_selftest,
}


def _add_size(p, flag: str, default: int, cap: int, what: str) -> None:
    """An integer option that must lie in [1, cap]; the cap keeps one
    run at desk scale and is stated in --help."""

    def size(text):
        value = int(text)
        if not 1 <= value <= cap:
            raise argparse.ArgumentTypeError(
                f"{value} is outside 1..{cap}")
        return value

    p.add_argument(flag, type=size, default=default,
                   help=f"{what} (1 to {cap}, default {default})")


@functools.cache
def _parsers():
    """The argument parser and each subcommand's own parser by name, built
    once per process: parsing leaves them unchanged, and building them is
    most of a small command's time.  Callers share them and must not
    change them."""
    parser = argparse.ArgumentParser(
        prog="daggeralg",
        description="Exact-arithmetic normed modules and overconvergent "
        "series algebras: certified norms, localizations, spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json-out", help="also write the report to a file")

    p = sub.add_parser("norm", help="series norms at a polyradius")
    p.add_argument("--series", required=True, help=SERIES_HELP)
    p.add_argument("--ring", default="Z")
    p.add_argument("--rho", default="1")
    add_common(p)

    p = sub.add_parser("tensor", help="certified tensor norm of an element")
    p.add_argument("--element", required=True,
                   help=f"tensor element JSON file: factors of rank at most "
                   f"{MAX_RANK}, at most {MAX_TENSOR_TERMS} terms, each "
                   f"factor's denominator (the lcm of its entries' "
                   f"denominators times that of its weights') of at most "
                   f"{MAX_TENSOR_DENOMINATOR_BITS} bits")
    p.add_argument("--flavor", choices=[SUM, MAX], default=SUM)
    add_common(p)

    p = sub.add_parser("localize", help="extend a presentation by a "
                       "localization step")
    p.add_argument("--algebra", required=True)
    p.add_argument("--spec", required=True,
                   help=f"localization spec JSON file: the algebra's "
                   f"variables plus one per listed series are at most "
                   f"{MAX_LOCALIZED_VARIABLES}, and a spec whose "
                   f"presentation --algebra would not read back (a "
                   f"relation past the series caps of --series in its "
                   f"variable count, or a rational of over "
                   f"{MAX_RATIONAL_BITS} bits) exits 1")
    add_common(p)

    p = sub.add_parser("koszul", help="validate a one-variable spec for the "
                       "two-term complex, whose homology is a theorem")
    p.add_argument("--algebra", required=True)
    p.add_argument("--spec", required=True)
    _add_size(p, "--degree", 8, 20, "truncation degree")
    add_common(p)

    p = sub.add_parser("mv-check", help="disk/annulus gluing exactness")
    p.add_argument("--elements", required=True,
                   help="JSON list of {exponent: coefficient} tables")
    p.add_argument("--ring", default="Qp:2")
    _add_size(p, "--degree", 8, 256, "truncation degree")
    add_common(p)

    p = sub.add_parser("spectrum", help="global sup norm over the spectrum "
                       "of the integers and spectral estimates")
    p.add_argument("--series", required=True, help=SERIES_HELP)
    p.add_argument("--rho", default="1")
    # bench/workloads.py still passes --prime-bound and --grid, which are
    # ignored
    _add_size(p, "--prime-bound", 50, 10000, "ignored: every prime's fiber "
              "is dominated in closed form")
    _add_size(p, "--grid", 2, 16, "ignored: every exponent's fiber is "
              "dominated in closed form")
    _add_size(p, "--powers", 8, 32, "powers in the spectral estimate; "
              "for a series of T terms, n variables and largest total "
              "degree d, the sum over k < powers of T * min(T^k, "
              f"C(kd + n, n)) term pairs is at most {MAX_POWER_WORK}")
    add_common(p)

    p = sub.add_parser("shilov", help="Archimedean-fiber dominance check")
    p.add_argument("--series", required=True, help=SERIES_HELP)
    p.add_argument("--rho", default="1")
    # bench/workloads.py still passes --prime-bound, which is ignored
    _add_size(p, "--prime-bound", 50, 10000, "ignored: every prime's fiber "
              "is bounded in closed form")
    add_common(p)

    p = sub.add_parser("pi-check", help="validate a module for the max-norm "
                       "reflection, whose adjunction is a theorem")
    p.add_argument("--module", required=True,
                   help=f"module JSON file of rank at most {MAX_RANK}")
    _add_size(p, "--samples", 500, 10000, "ignored, echoed in the report")
    p.add_argument("--seed", type=int, default=7, help="ignored")
    add_common(p)

    p = sub.add_parser("selftest", help="run the full verification suite")
    p.add_argument("--seed", type=int, default=7)
    add_common(p)

    return parser, dict(sub.choices)


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser, shared as ``_parsers`` says."""
    return _parsers()[0]


def _parse_args(argv):
    """The arguments of one call, read once.  A call that names a
    subcommand first is read by that subcommand's parser alone, as the
    full parser would hand it over; every other call, and any call that
    leaves arguments unrecognized, goes through the full parser, so help,
    errors and exit codes are its own to the byte."""
    if argv is None:
        argv = sys.argv[1:]
    subparsers = _parsers()[1]
    if argv and argv[0] in subparsers:
        args, extra = subparsers[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (DaggerAlgError, ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
