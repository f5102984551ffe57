"""The three benchmark workloads: inputs from a seed, ops, output checks.

Every workload is a closed loop with one client.  Inputs are generated
in set-up from the workload seed; the timed region is the call into
``daggeralg`` alone.  Output checks, including the independent sympy
closest-vector oracle, run after the timed loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import signal
from fractions import Fraction

from daggeralg import cli, normed_core, selftest, tensor
from daggeralg.normed_core import (
    SUM,
    MAX,
    ModuleMap,
    WeightedFreeModule,
    cokernel,
)
from daggeralg.scalars import integers_archimedean, integers_trivial


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an op that outlived its deadline.

    A BaseException, so that no handler in the program swallows it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextlib.contextmanager
def deadline(seconds):
    """Interrupt the enclosed block after ``seconds`` of wall time, with
    an interval timer in this thread: no helper thread or process."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def fingerprint(obj) -> str:
    return hashlib.sha256(canonical(obj)).hexdigest()


# ---------------------------------------------------------------------------
# exact absolute values and norms, written here independently of the
# package, for the output checks


def _abs(kind: str, x: Fraction) -> Fraction:
    if x == 0:
        return Fraction(0)
    if kind in ("Z", "R"):
        return abs(x)
    if kind == "Ztriv":
        return Fraction(1)
    p = int(kind.split(":")[1])
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return Fraction(1, p**v) if v >= 0 else Fraction(p ** (-v))


def _vec_norm(kind, weights, flavor, v) -> Fraction:
    terms = [_abs(kind, Fraction(x)) * Fraction(w) for x, w in zip(v, weights)]
    return sum(terms, Fraction(0)) if flavor == SUM else max(terms)


_RING_KIND = {"IntegersArchimedean": "Z", "IntegersTrivial": "Ztriv",
              "RationalsArchimedean": "R"}


def _kind_of(ring_json) -> str:
    if ring_json["kind"] == "Rationals_pAdic":
        return f"Qp:{ring_json['p']}"
    return _RING_KIND[ring_json["kind"]]


def _interval(obj):
    lo = Fraction(obj["lo"])
    hi = None if obj["hi"] == "inf" else Fraction(obj["hi"])
    return lo, hi


# ---------------------------------------------------------------------------
# shared generators


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"bench:{tag}:{seed}")


def _rand_coeff(rng, kind):
    num = rng.choice([x for x in range(-9, 10) if x])
    if kind in ("Z", "Ztriv"):
        return Fraction(num)
    if kind == "R":
        return Fraction(num, rng.randint(1, 4))
    p = int(kind.split(":")[1])
    return Fraction(num) * Fraction(p) ** rng.randint(-2, 2)


def _rand_series(rng, kind, D, terms):
    """A one-variable polynomial with up to ``terms`` terms of degree <= D."""
    coeffs = {rng.randint(0, D): _rand_coeff(rng, kind) for _ in range(terms)}
    return {"n": 1, "D": D,
            "coeffs": [[[e], str(a)] for e, a in sorted(coeffs.items())]}


def _shaped_series(rng, kind, n, D, tail=False, rho=None):
    """A series with four terms whose exponents have a fixed shape: one
    variable, degrees {three of 0..D-1} and D; two variables, one
    monomial of each total degree 0..3.  The cost of evaluating it then
    depends little on the seed."""
    if n == 1:
        exps = [(e,) for e in rng.sample(range(D), 3) + [D]]
    else:
        exps = [(i, t - i) for t in range(D + 1) for i in [rng.randint(0, t)]]
    obj = {"n": n, "D": D,
           "coeffs": [[list(I), str(_rand_coeff(rng, kind))] for I in sorted(exps)]}
    if tail:
        obj["tail"] = {"C": str(rng.randint(1, 4)),
                       "sigma": [str(r + rng.choice([Fraction(1, 2), 1, 2]))
                                 for r in rho]}
    return obj


def _rand_rho(rng, n, at_least_one=False):
    choices = [Fraction(1), Fraction(3, 2), Fraction(2)] if at_least_one else \
        [Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2),
         Fraction(2)]
    return [rng.choice(choices) for _ in range(n)]


def _rand_ring(rng, kinds=("Z", "Ztriv", "R", "Qp")):
    kind = rng.choice(kinds)
    return f"Qp:{rng.choice([2, 3, 5, 7])}" if kind == "Qp" else kind


# ---------------------------------------------------------------------------
# selftest: back-to-back full verification reports


class SelftestWorkload:
    name = "selftest"
    round_size = 1
    deadline_s = 120.0   # checked after the report; a report is not interrupted

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.threads = os.cpu_count() or 1
        self.reference = None
        # criterion 6 imports sympy lazily; import it here so that the
        # import is counted in set-up rather than in the first report
        import sympy  # noqa: F401

    def inputs(self):
        return {"seed": self.seed, "threads": self.threads}

    def warmup_ops(self):
        # no warm-up report: beyond the sympy import above a report has
        # no lazy state to warm, and one would double the run's length
        return []

    def stream(self):
        return itertools.repeat(("report", None))

    def execute(self, op):
        return selftest.run_all(self.seed, self.threads)

    def canonical(self, op, raw) -> bytes:
        crits = []
        for c in raw["criteria"]:
            c = dict(c)
            c["details"] = {k: v for k, v in c["details"].items()
                            if k != "under_60s"}
            crits.append(c)
        return canonical(dict(raw, criteria=crits))

    def check(self, op, raw, out: bytes):
        if self.reference is None:
            self.reference = out
        bad = [c["id"] for c in raw["criteria"]
               if not c["passed"] and c["id"] != 7]
        if bad:
            return f"criteria failed: {bad}"
        c10 = raw["criteria"][-1]
        if c10["id"] != 10 or not c10["details"]["byte_identical"]:
            return "criterion 10 not byte_identical"
        if out != self.reference:
            return "report differs from the run's first report"
        return None

    def probes(self):
        return []


# ---------------------------------------------------------------------------
# cli-mix: the 8 non-selftest subcommands over fixture files


class CliMixWorkload:
    name = "cli-mix"
    deadline_s = 10.0
    threads = 1
    SUBCOMMANDS = ("norm", "tensor", "localize", "koszul", "mv-check",
                   "spectrum", "shilov", "pi-check")
    BLOCKS = 60
    round_size = len(SUBCOMMANDS)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self._files = {}
        self._rng = _rng(seed, "cli-mix")
        self.ops = []
        for _ in range(self.BLOCKS):
            self._add_block()
        self._inputs = self._collect_inputs()
        wrng = _rng(seed, "cli-mix-warmup")
        self._warmup = [self._make(wrng, kind, 0, f"w{i}")
                        for i, kind in enumerate(self.SUBCOMMANDS)]

    def _add_block(self):
        block = len(self.ops) // self.round_size
        kinds = list(self.SUBCOMMANDS)
        self._rng.shuffle(kinds)
        for kind in kinds:
            self.ops.append(self._make(self._rng, kind, block, len(self.ops)))

    # -- fixtures -------------------------------------------------------------

    def _write(self, tag, obj):
        path = os.path.join(self.workdir, f"{tag}.json")
        text = json.dumps(obj, sort_keys=True)
        with open(path, "w") as fh:
            fh.write(text)
        self._files[path] = text
        return path

    def _make(self, rng, kind, block, idx):
        """One op.  The block index fixes what sets an op's cost (ring
        kind, variable count, degree bound, term count), cycling with a
        short period, so every run has the same mix; the seed fills in
        coefficients, exponents and radii."""
        tag = f"{idx}-{kind}"
        meta = {}
        # one and two variables alternate; a two-variable Archimedean sup
        # norm samples (8(D+1))^2 torus points, so its degree bound is 3
        n = 1 + block % 2
        degree = 6 if n == 1 else 3
        if kind == "norm":
            ring = _rand_ring(rng, (("Z", "R", "Ztriv", "Qp")[block // 2 % 4],))
            rho = _rand_rho(rng, n)
            tail = block % 3 == 0
            f = _shaped_series(rng, ring, n, degree, tail=tail, rho=rho)
            path = self._write(tag, f)
            argv = ["norm", "--series", path, "--ring", ring,
                    "--rho", ",".join(str(r) for r in rho)]
            meta = {"series": f, "ring": ring, "rho": [str(r) for r in rho]}
        elif kind == "tensor":
            # only elements whose certified search stops early: max flavor,
            # or more than 4 basis cells (the 2x2 sum case is a probe)
            if rng.random() < 0.5:
                ring = _rand_ring(rng, ("Ztriv", "Qp"))
                flavor = MAX
                rl, rr = rng.randint(1, 3), rng.randint(1, 3)
            else:
                ring = _rand_ring(rng, ("Z", "Ztriv", "Qp"))
                flavor = SUM
                rl, rr = rng.choice([(2, 3), (3, 2), (3, 3), (1, 5), (5, 1)])
            element = _tensor_json(rng, ring, rl, rr, flavor)
            path = self._write(tag, element)
            argv = ["tensor", "--element", path, "--flavor", flavor]
            meta = {"element": element, "flavor": flavor}
        elif kind in ("localize", "koszul"):
            ring = _rand_ring(rng)
            A = {"ring": _ring_json(ring), "n": 1,
                 "rho": [str(_rand_rho(rng, 1)[0])], "relations": []}
            k = 1 if kind == "koszul" else rng.randint(1, 2)
            spec = {"variant": rng.choice(["weierstrass", "laurent"]),
                    "fs": [_rand_series(rng, ring, rng.randint(1, 3),
                                        rng.randint(1, 3))
                           for _ in range(k)],
                    "radii": [str(rng.choice([Fraction(1, 2), 1, 2]))
                              for _ in range(k)]}
            argv = [kind, "--algebra", self._write(tag + "-A", A),
                    "--spec", self._write(tag + "-spec", spec)]
            if kind == "koszul":
                degree = (6, 8)[block // 2 % 2]
                argv += ["--degree", str(degree)]
                meta = {"degree": degree}
            else:
                meta = {"n": 1 + k, "relations": k}
        elif kind == "mv-check":
            ring = _rand_ring(rng)
            degree = (6, 8)[block // 2 % 2]
            elements = [
                {str(rng.randint(-degree, degree)): str(_rand_coeff(rng, ring))
                 for _ in range(rng.randint(1, 8))}
                for _ in range(rng.randint(1, 20))
            ]
            argv = ["mv-check", "--elements", self._write(tag, elements),
                    "--ring", ring, "--degree", str(degree)]
            meta = {"elements": len(elements)}
        elif kind in ("spectrum", "shilov"):
            rho = _rand_rho(rng, n, at_least_one=(kind == "shilov"))
            f = _shaped_series(rng, "Z", n, degree)
            prime_bound = 50
            argv = [kind, "--series", self._write(tag, f),
                    "--rho", ",".join(str(r) for r in rho),
                    "--prime-bound", str(prime_bound)]
            meta = {"series": f, "rho": [str(r) for r in rho]}
            if kind == "spectrum":
                # grid 1: the Archimedean place with exponent 1 only (the
                # exponent-1/2 fiber is a known-defect probe)
                powers = 6
                argv += ["--powers", str(powers), "--grid", "1"]
                meta["powers"] = powers
        else:  # pi-check
            p = rng.choice([2, 3, 5])
            rank = rng.randint(1, 3)
            module = {"ring": {"kind": "Rationals_pAdic", "p": p},
                      "weights": [str(Fraction(p) ** rng.randint(-2, 2))
                                  for _ in range(rank)],
                      "flavor": rng.choice([SUM, MAX])}
            samples = rng.randint(20, 100)
            argv = ["pi-check", "--module", self._write(tag, module),
                    "--samples", str(samples),
                    "--seed", str(rng.randint(0, 10**6))]
            meta = {"samples": samples}
        return (kind, {"argv": argv, "meta": meta})

    # -- workload interface ---------------------------------------------------

    def _collect_inputs(self):
        rel = {os.path.basename(p): t for p, t in sorted(self._files.items())}
        ops = [[k, [os.path.basename(a) if a in self._files else a
                    for a in op["argv"]]] for k, op in self.ops]
        return {"ops": ops, "files": rel}

    def inputs(self):
        """The ops and fixture files generated in set-up."""
        return self._inputs

    def warmup_ops(self):
        return self._warmup

    def stream(self):
        """The ops generated in set-up, then further blocks from the same
        seed, so that a run repeats no op however fast it goes."""
        for i in itertools.count():
            if i == len(self.ops):
                self._add_block()
            yield self.ops[i]

    def execute(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op[1]["argv"])
        return rc, out.getvalue(), err.getvalue()

    def canonical(self, op, raw) -> bytes:
        rc, text, _ = raw
        try:
            body = json.loads(text)
        except ValueError:
            body = text
        return canonical({"cmd": op[0], "rc": rc, "out": body})

    def check(self, op, raw, out: bytes):
        rc, text, err = raw
        if rc != 0:
            return f"{op[0]} exit {rc}: {err.strip()[:200]}"
        try:
            body = json.loads(text)
        except ValueError:
            return f"{op[0]}: stdout is not JSON"
        if body.get("version") != 1:
            return f"{op[0]}: report version {body.get('version')}"
        return _CLI_CHECKS[op[0]](body, op[1]["meta"])

    def probes(self):
        """Known-defect probes, as (op, reproduced(outcome)) pairs.

        A 2x2 rank-2 sum-flavor tensor element, whose certified search
        does not end at the CLI's default bounds; and the spectrum report
        of X at radius 1/2 with the exponent grid {1/2, 1}, where the
        global sup exceeds the power estimates that should bound it from
        above (the Archimedean fiber for exponent e is sampled on
        |z| <= rho instead of |z| <= rho^(1/e)).
        """
        element = {"left": _module_json("Z", ["1", "1"], SUM),
                   "right": _module_json("Z", ["1", "1"], SUM),
                   "terms": [[["1", "0"], ["1", "1"]],
                             [["0", "1"], ["1", "-1"]]]}
        tensor_op = ("tensor", {
            "argv": ["tensor", "--element",
                     self._write("probe-tensor", element), "--flavor", SUM],
            "meta": {}})
        series = {"n": 1, "D": 1, "coeffs": [[[1], "1"]]}
        spectrum_op = ("spectrum", {
            "argv": ["spectrum", "--series", self._write("probe-spectrum", series),
                     "--rho", "1/2", "--grid", "2", "--powers", "2",
                     "--prime-bound", "5"],
            "meta": {}})

        def estimate_below_sup(outcome):
            if outcome.raw is None or outcome.raw[0] != 0:
                return False
            body = json.loads(outcome.raw[1])
            g_lo, _ = _interval(body["global_sup"])
            return any(_interval(e)[1] < g_lo for e in body["power_estimates"])

        return [(tensor_op, lambda o: o.missed),
                (spectrum_op, estimate_below_sup)]


def _ring_json(kind):
    if kind.startswith("Qp:"):
        return {"kind": "Rationals_pAdic", "p": int(kind[3:])}
    return {"kind": {v: k for k, v in _RING_KIND.items()}[kind]}


def _module_json(kind, weights, flavor):
    return {"ring": _ring_json(kind), "weights": weights, "flavor": flavor}


def _tensor_json(rng, ring, rl, rr, flavor):
    mod_flavor = flavor if flavor == MAX else SUM

    def weight():
        if ring.startswith("Qp:"):
            return str(Fraction(int(ring[3:])) ** rng.randint(-1, 1))
        return str(rng.randint(1, 3))

    def vec(r):
        while True:
            v = [str(_rand_coeff(rng, ring) * rng.choice([0, 1])) for _ in range(r)]
            if any(Fraction(x) for x in v):
                return v

    return {"left": _module_json(ring, [weight() for _ in range(rl)], mod_flavor),
            "right": _module_json(ring, [weight() for _ in range(rr)], mod_flavor),
            "terms": [[vec(rl), vec(rr)] for _ in range(rng.randint(1, 3))]}


def _series_values(series, kind, rho):
    rho = [Fraction(r) for r in rho]
    coeffs = [([int(e) for e in I], Fraction(a)) for I, a in series["coeffs"]]
    mono = [_abs(kind, a) * _rho_pow(rho, I) for I, a in coeffs]
    at_rho = sum((a * _rho_pow(rho, I) for I, a in coeffs), Fraction(0))
    return sum(mono, Fraction(0)), max(mono), abs(at_rho)


def _rho_pow(rho, I):
    out = Fraction(1)
    for r, e in zip(rho, I):
        out *= r**e
    return out


def _check_norm(body, meta):
    kind = meta["ring"]
    s_sum, m_max, at_rho = _series_values(meta["series"], kind, meta["rho"])
    s_lo, s_hi = _interval(body["S"])
    t_lo, t_hi = _interval(body["T"])
    tail = "tail" in meta["series"]
    if s_lo != s_sum or (not tail and s_hi != s_sum) or s_hi < s_lo:
        return f"norm: S {body['S']} but coefficient sum is {s_sum}"
    if t_lo > t_hi or t_hi > s_hi:
        return f"norm: T {body['T']} not inside [0, S.hi]"
    if kind in ("Ztriv",) or kind.startswith("Qp:"):
        if t_lo != m_max:
            return f"norm: Gauss norm {body['T']} != {m_max}"
    else:
        if t_lo < m_max:
            return f"norm: T.lo below the Cauchy bound {m_max}"
        if not tail and (t_hi < at_rho or t_lo < at_rho - Fraction(1, 10**9)):
            return f"norm: T {body['T']} misses |f(rho)| = {at_rho}"
    return None


def _check_tensor(body, meta):
    el, flavor = meta["element"], meta["flavor"]
    kind = _kind_of(el["left"]["ring"])
    lo, hi = _interval(body["norm"])
    costs = [
        _vec_norm(kind, el["left"]["weights"], el["left"]["flavor"], m)
        * _vec_norm(kind, el["right"]["weights"], el["right"]["flavor"], n)
        for m, n in el["terms"]
    ]
    rep = sum(costs, Fraction(0)) if flavor == SUM else max(costs)
    if body["flavor"] != flavor or not 0 <= lo <= hi <= rep:
        return f"tensor: {body['norm']} not inside [0, representation {rep}]"
    return None


def _check_localize(body, meta):
    pres = body["presentation"]
    if pres["n"] != meta["n"] or len(pres["relations"]) != meta["relations"]:
        return f"localize: n={pres['n']} with {len(pres['relations'])} relations"
    return None


def _check_koszul(body, meta):
    if not body["concentrated_in_degree_0"] or body["kernel_dimension"] != 0 \
            or body["degree"] != meta["degree"]:
        return f"koszul: {body}"
    return None


def _check_mv(body, meta):
    if not body["exact"] or body["elements_checked"] != meta["elements"]:
        return f"mv-check: {body}"
    return None


def _check_spectrum(body, meta):
    _, m_max, _ = _series_values(meta["series"], "Z", meta["rho"])
    g_lo, _ = _interval(body["global_sup"])
    if g_lo < m_max:
        return f"spectrum: global sup {body['global_sup']} below {m_max}"
    est = body["power_estimates"]
    if len(est) != meta["powers"]:
        return f"spectrum: {len(est)} power estimates"
    if any(_interval(e)[1] < g_lo for e in est):
        return "spectrum: a power estimate lies below the global sup"
    return None


def _check_shilov(body, meta):
    a_lo, _ = _interval(body["archimedean_sup"])
    _, o_hi = _interval(body["max_other_fiber"])
    if not body["confirmed"] or o_hi > a_lo \
            or Fraction(body["monomial_floor"]) > a_lo:
        return f"shilov: {body}"
    return None


def _check_pi(body, meta):
    if not (body["adjunction_all_equal"] and body["tensor_intertwine_confirmed"]
            and body["samples"] == meta["samples"]):
        return f"pi-check: {body}"
    return None


_CLI_CHECKS = {"norm": _check_norm, "tensor": _check_tensor,
               "localize": _check_localize, "koszul": _check_koszul,
               "mv-check": _check_mv, "spectrum": _check_spectrum,
               "shilov": _check_shilov, "pi-check": _check_pi}


# ---------------------------------------------------------------------------
# lattice: residue norms, strictness and certified tensor norms


class LatticeWorkload:
    name = "lattice"
    deadline_s = 10.0
    threads = 1
    # One round of op classes, shuffled by the seed within each round.
    # Residue classes are (ring, ambient rank, relation count).  The
    # certified enumeration window grows with the class vector's norm
    # and shrinks with the relation vectors' lengths and angles, so those
    # are fixed: over Z the class vector has weighted norm 8 with one
    # weight 1, relation vectors have l1 norm 6, and two relations make
    # an angle of at least 45 degrees.  The relation count stays <= 2,
    # because rank-3 relation lattices reach the 200 000-candidate budget
    # (seconds per op) often enough that a run's throughput would depend
    # on its seed.  The costliest classes come several times a round.
    ROUND = (("residue-Z", 2, 1), ("residue-Z", 2, 2), ("residue-Z", 2, 2),
             ("residue-Z", 3, 1), ("residue-Z", 3, 2), ("residue-Z", 3, 2),
             ("residue-Z", 3, 2), ("residue-Z", 4, 1), ("residue-Z", 4, 2),
             ("residue-Z", 4, 2), ("residue-Z", 4, 2),
             ("residue-Ztriv", 2, 2), ("residue-Ztriv", 3, 1),
             ("residue-Ztriv", 4, 2),
             ("strictness", 2, 1), ("strictness", 2, 2), ("strictness", 1, 2),
             ("tensor", 1, 1), ("tensor", 1, 2), ("tensor", 2, 2))
    ROUNDS = 40
    round_size = len(ROUND)
    RESIDUE_NORM = 8
    # tensor search bounds (coefficient, term) per number of basis cells,
    # small enough that every search ends within milliseconds
    TENSOR_BOUNDS = {1: (3, 2), 2: (1, 2), 4: (1, 1)}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self._rng = _rng(seed, "lattice")
        self.ops = []
        for _ in range(self.ROUNDS):
            self._add_round()
        self._inputs = {"ops": [[k, op["spec"]] for k, op in self.ops]}
        wrng = _rng(seed, "lattice-warmup")
        self._warmup = [self._make(wrng, *c) for c in
                        (("residue-Z", 2, 1), ("residue-Ztriv", 2, 1),
                         ("strictness", 1, 1), ("tensor", 1, 1))]

    def _add_round(self):
        classes = list(self.ROUND)
        self._rng.shuffle(classes)
        self.ops.extend(self._make(self._rng, *c) for c in classes)

    def _make(self, rng, kind, a, b):
        if kind.startswith("residue"):
            rank, s = a, b
            weights = [rng.randint(1, 3) for _ in range(rank)]
            if kind == "residue-Z":
                weights[rng.randrange(rank)] = 1
                v = _vector_of_norm(rng, weights, self.RESIDUE_NORM)
            else:
                v = [rng.randint(-4, 4) for _ in range(rank)]
            spec = {"ring": kind.split("-")[1], "rank": rank,
                    "weights": weights,
                    "relations": _relations(rng, rank, s),
                    "v": v}
        elif kind == "strictness":
            rs, rt = a, b
            source = [rng.randint(1, 3) for _ in range(rs)]
            source[rng.randrange(rs)] = 1
            if rs == 2:
                # a rank-1 map whose kernel vector has l1 norm 4, so every
                # enumerated vector costs one residue search of fixed scale
                row = [rng.choice((1, -1)) * x for x in rng.choice(((1, 3), (3, 1)))]
                matrix = [row] + [[rng.choice((-2, -1, 1, 2)) * x for x in row]
                                  for _ in range(rt - 1)]
            else:
                matrix = [[rng.choice((-3, -2, -1, 1, 2, 3))] for _ in range(rt)]
            spec = {"ring": rng.choice(["Z", "Ztriv"]), "source": source,
                    "target": [rng.randint(1, 3) for _ in range(rt)],
                    "matrix": matrix}
        else:
            rl, rr = (a, b) if rng.random() < 0.5 else (b, a)
            cb, tb = self.TENSOR_BOUNDS[rl * rr]
            spec = {"ring": rng.choice(["Z", "Ztriv"]),
                    "left": [rng.randint(1, 3) for _ in range(rl)],
                    "right": [rng.randint(1, 3) for _ in range(rr)],
                    "terms": [[[rng.randint(-3, 3) for _ in range(rl)],
                               [rng.randint(-3, 3) for _ in range(rr)]]
                              for _ in range(rng.randint(1, 3))],
                    "coeff_bound": cb, "term_bound": tb}
        return (kind, {"spec": spec, "obj": _build_lattice(kind, spec)})

    def inputs(self):
        """The ops generated in set-up."""
        return self._inputs

    def warmup_ops(self):
        return self._warmup

    def stream(self):
        """The ops generated in set-up, then further rounds from the same
        seed, so that a run repeats no op however fast it goes."""
        for i in itertools.count():
            if i == len(self.ops):
                self._add_round()
            yield self.ops[i]

    def execute(self, op):
        kind, obj = op[0], op[1]["obj"]
        if kind.startswith("residue"):
            M, v = obj
            return normed_core.residue_norm(M, v)
        if kind == "strictness":
            return normed_core.check_strictness(obj)
        x, cb, tb = obj
        return tensor.tensor_norm_certified(x, SUM, cb, tb)

    def canonical(self, op, raw) -> bytes:
        if op[0] == "strictness":
            if isinstance(raw, normed_core.StrictWithConstants):
                return canonical(["strict", str(raw.c), str(raw.C)])
            if isinstance(raw, normed_core.NotStrictWitness):
                return canonical(["witness", [str(x) for x in raw.vector]])
            return canonical(["inconclusive", raw.reason])
        return canonical(raw.to_json())

    def check(self, op, raw, out: bytes):
        return _LATTICE_CHECKS[op[0].split("-")[0]](op[1]["spec"], raw)

    def probes(self):
        """Known-defect probe: the 2x2 rank-2 sum-flavor element whose
        certified search does not end, at its default search bounds."""
        spec = {"ring": "Z", "left": [1, 1], "right": [1, 1],
                "terms": [[[1, 0], [1, 1]], [[0, 1], [1, -1]]],
                "coeff_bound": 10, "term_bound": 4}
        op = ("tensor", {"spec": spec, "obj": _build_lattice("tensor", spec)})
        return [(op, lambda o: o.missed)]


def _relations(rng, rank, count):
    """``count`` integer vectors of l1 norm 6, pairwise at least 45
    degrees apart (Gram determinant >= half the product of the squared
    lengths)."""
    while True:
        rels = [_vector_of_norm(rng, [1] * rank, 6) for _ in range(count)]
        if count < 2:
            return rels
        a, b = rels
        aa, bb = sum(x * x for x in a), sum(x * x for x in b)
        ab = sum(x * y for x, y in zip(a, b))
        if 2 * (aa * bb - ab * ab) >= aa * bb:
            return rels


def _vector_of_norm(rng, weights, target):
    """Random integer vector with weighted l1 norm exactly ``target``;
    some weight must be 1."""
    v = [0] * len(weights)
    left = target
    while left:
        i = rng.choice([i for i, w in enumerate(weights) if w <= left])
        v[i] += (1 if v[i] > 0 else -1) if v[i] else rng.choice((1, -1))
        left -= weights[i]
    return v


def _ring(name):
    return integers_archimedean() if name == "Z" else integers_trivial()


def _free(ring, weights, flavor=SUM):
    return WeightedFreeModule(ring, tuple(Fraction(w) for w in weights), flavor)


def _build_lattice(kind, spec):
    ring = _ring(spec["ring"])
    if kind.startswith("residue"):
        amb = _free(ring, spec["weights"])
        rels = spec["relations"]
        src = _free(ring, [1] * len(rels))
        mat = tuple(tuple(Fraction(c[i]) for c in rels)
                    for i in range(spec["rank"]))
        M = cokernel(ModuleMap(src, amb, mat))
        return M, [Fraction(x) for x in spec["v"]]
    if kind == "strictness":
        return ModuleMap(_free(ring, spec["source"]), _free(ring, spec["target"]),
                         tuple(tuple(Fraction(x) for x in row)
                               for row in spec["matrix"]))
    x = tensor.TensorElement(_free(ring, spec["left"]),
                             _free(ring, spec["right"]),
                             tuple((tuple(Fraction(a) for a in m),
                                    tuple(Fraction(b) for b in n))
                                   for m, n in spec["terms"]))
    return x, spec["coeff_bound"], spec["term_bound"]


def _oracle_residue(spec, limit=4000):
    """Exhaustive weighted-l1 distance from v to the relation lattice, with
    a sympy Hermite basis; None when the window exceeds ``limit``."""
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    w, v = spec["weights"], spec["v"]
    B = hermite_normal_form(Matrix(spec["relations"]).T)
    cols = [[int(B[i, j]) for i in range(B.rows)] for j in range(B.cols)]
    cols = [c for c in cols if any(c)]
    norm_v = sum(abs(x) * wi for x, wi in zip(v, w))
    if not cols:
        return Fraction(norm_v)
    Bm = Matrix(cols).T
    left = (Bm.T * Bm).inv() * Bm.T
    windows = []
    for i in range(left.rows):
        row_sum = sum(abs(left[i, j]) for j in range(left.cols))
        windows.append(int(row_sum * 2 * norm_v / min(w)) + 1)
    size = 1
    for k in windows:
        size *= 2 * k + 1
    if size > limit:
        return None
    best = norm_v
    for combo in itertools.product(*(range(-k, k + 1) for k in windows)):
        dist = 0
        for i in range(len(v)):
            dist += abs(v[i] - sum(c * col[i] for c, col in zip(combo, cols))) * w[i]
            if dist >= best:
                break
        best = min(best, dist)
    return Fraction(best)


def _check_residue(spec, nv):
    w, v = spec["weights"], spec["v"]
    norm_v = Fraction(sum(abs(x) * wi for x, wi in zip(v, w)))
    lo, hi = nv.lo, nv.hi
    if hi is None or not 0 <= lo <= hi <= norm_v or lo not in (0, hi):
        return f"residue: {nv} not a certified or lower-0 interval in [0, |v|]"
    if spec["ring"] == "Ztriv":
        subset_sums = {sum(c) for r in range(len(w) + 1)
                       for c in itertools.combinations(w, r)}
        if hi not in subset_sums:
            return f"residue: trivial-norm value {hi} is no sum of weights"
    elif lo == hi:
        oracle = _oracle_residue(spec)
        if oracle is not None and oracle != hi:
            return f"residue: {nv} but the exhaustive oracle gives {oracle}"
    return None


def _check_strictness(spec, res):
    if isinstance(res, normed_core.NotStrictWitness):
        image = [sum(Fraction(a) * x for a, x in zip(row, res.vector))
                 for row in spec["matrix"]]
        if not any(res.vector) or any(image):
            return f"strictness: witness {res.vector} is not in the kernel"
        return None
    if not isinstance(res, normed_core.StrictWithConstants):
        return f"strictness: {res}"
    kind = spec["ring"]
    cols = list(zip(*spec["matrix"]))
    op_norm = max(_vec_norm(kind, spec["target"], SUM, col) / w
                  for col, w in zip(cols, spec["source"]))
    if op_norm == 0:   # the zero map: constants (1, 1) by convention
        return None if res.c == res.C == 1 else f"strictness: zero map gave {res}"
    if not 0 < res.c <= res.C <= op_norm:
        return f"strictness: constants {res.c}, {res.C} vs operator norm {op_norm}"
    return None


def _check_tensor_norm(spec, nv):
    kind = spec["ring"]
    T = [[sum((Fraction(m[i]) * n[j] for m, n in spec["terms"]), Fraction(0))
          for j in range(len(spec["right"]))] for i in range(len(spec["left"]))]
    rep = sum((_vec_norm(kind, spec["left"], SUM, m)
               * _vec_norm(kind, spec["right"], SUM, n)
               for m, n in spec["terms"]), Fraction(0))
    # a unit functional w_i e_i^* (x) v_j e_j^* bounds the norm from below
    coord = max(_abs(kind, T[i][j]) * spec["left"][i] * spec["right"][j]
                for i in range(len(T)) for j in range(len(T[0])))
    if nv.hi is None or not 0 <= nv.lo <= nv.hi <= rep:
        return f"tensor: {nv} not inside [0, representation {rep}]"
    if kind == "Z" and nv.hi < coord:
        return f"tensor: upper bound {nv.hi} below the coordinate bound {coord}"
    return None


_LATTICE_CHECKS = {"residue": _check_residue, "strictness": _check_strictness,
                   "tensor": _check_tensor_norm}


WORKLOADS = {w.name: w for w in (SelftestWorkload, CliMixWorkload,
                                 LatticeWorkload)}
