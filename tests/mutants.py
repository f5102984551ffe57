"""Mutation audit of the certified bounds.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py 21 22 23   # the mutants of these numbers
    python3 tests/mutants.py --every 9  # every failing test, not the first

Each mutant below breaks one bound that a printed interval rests on, by
one exact string replacement in one package module.  For each mutant the
repository is copied to a temporary directory, the replacement is made
there (it must match exactly once, so a mutant that no longer fits the
code stops the audit), and the tier-1 suite runs on the copy with
``-x``.  A mutant is killed when the suite fails; the table names the
first failing test.  With ``--every`` the suite runs without ``-x`` and
the table lists every failing test, so that one can see whether a test
that checks an enclosure against an independent value is among them.
An unmutated copy runs first and must pass.

Exits 0 when every mutant run is killed, 1 otherwise, and 2 on an
argument that names no mutant.  Not a test: pytest does not collect it.
A run takes a few minutes per mutant.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 900

# (name, module under src/daggeralg, exact text, replacement)
MUTANTS = [
    ("norm_T without the tail sum bound", "series.py",
     "hi = Fraction(total, den) + _tail_sum_bound(f, rho)",
     "hi = Fraction(total, den)"),
    ("Gauss norm_T without the tail max bound", "series.py",
     "return NormValue(gauss, max(gauss, _tail_max_bound(f, rho)))",
     "return NormValue(gauss, gauss)"),
    ("tail sum bound halved", "series.py",
     "return f.tail.C * (full - Fraction(sum(P), Q))",
     "return f.tail.C * (full - Fraction(sum(P), Q)) / 2"),
    ("tail partial sum one degree short", "series.py",
     "if sum(I) <= D])",
     "if sum(I) < D])"),
    ("size table's sum without its first term", "series.py",
     "poly = Fraction(sum(sizes), den)",
     "poly = Fraction(sum(sizes[1:]), den)"),
    ("Archimedean multiply without its 3/4 shrink", "series.py",
     "sigma = tuple(s * Fraction(3, 4) for s in sigma)",
     "sigma = tuple(sigma)"),
    ("Archimedean multiply without its growth constant", "series.py",
     "C *= _poly_growth_constant(f.n)",
     "C *= 1"),
    ("torus lower bound kept for a tailed series", "series.py",
     "if (f.tail is None or not f.tail.C) and cauchy != total:",
     "if cauchy != total:"),
    ("torus lower bound rounded up", "series.py",
     "lo = max(lo, nth_root_interval(best_sq, 2).lo)",
     "lo = max(lo, nth_root_interval(best_sq, 2).hi)"),
    ("root bracket's hi rounded down", "scalars.py",
     "return Fraction(r, s), Fraction(r + 1, s)",
     "return Fraction(r, s), Fraction(r, s)"),
    ("stopped residue search reported as exact", "normed_core.py",
     "return NormValue(hi if ended else Fraction(0), hi)",
     "return NormValue(hi, hi)"),
    ("Z residue search skipping every other k", "normed_core.py",
     "side[0] = k + step\n            side[1] = cost(k + step)",
     "side[0] = k + 2 * step\n            side[1] = cost(k + 2 * step)"),
    ("strictness c without its rounding term", "normed_core.py",
     "StrictWithConstants(1 / (g_norm + mu / w_min), C)",
     "StrictWithConstants(1 / g_norm, C)"),
    ("strictness c doubled over Z_triv", "normed_core.py",
     "StrictWithConstants(w_min / ones, C)",
     "StrictWithConstants(2 * w_min / ones, C)"),
    ("power estimates without their tail term", "spectrum.py",
     "bound += known.hi**k - known.lo**k",
     "pass"),
    ("tail Gauss bound set to 0", "spectrum.py",
     "        return tail.C\n",
     "        return Fraction(0)\n"),
    ("l^oo (x) l^oo tensor lo set to the cell sum", "tensor.py",
     "return NormValue(Fraction(max(cells, default=0), den),",
     "return NormValue(Fraction(sum(cells), den),"),
    ("l^1-factor tensor norm read along the other factor", "tensor.py",
     "Fraction(rows, den))\n    if x.right.flavor == SUM:\n"
     "        return NormValue.exact(Fraction(cols, den))",
     "Fraction(cols, den))\n    if x.right.flavor == SUM:\n"
     "        return NormValue.exact(Fraction(rows, den))"),
    ("p-adic size shift without v_p(L)", "scalars.py",
     "shift = V + _valuation(L, p)",
     "shift = V"),
    ("mixed operator norm reported as exact at the max", "normed_core.py",
     "return NormValue(best, sum(ratios, Fraction(0)))",
     "return NormValue.exact(best)"),
    ("torus row cut without its margin", "series.py",
     "if bounds[i] + delta < best - 2 * delta:",
     "if bounds[i] < best:"),
    ("torus row bound the largest coefficient, not the sum", "series.py",
     "bounds = list(map(add, bounds, map(abs, column)))",
     "bounds = list(map(max, bounds, map(abs, column)))"),
    ("torus rows visited in product order, not by bound", "series.py",
     "for i in sorted(range(rows), key=bounds.__getitem__, reverse=True):",
     "for i in range(rows):"),
    ("non-Archimedean multiply still shrunk by 3/4 and grown", "series.py",
     "        if not f.ring.non_archimedean:\n"
     "            C *= _poly_growth_constant(f.n)",
     "        if True:\n"
     "            C *= _poly_growth_constant(f.n)"),
    ("multiply's sigma over both factors, 2 for an untailed one",
     "series.py",
     "sigma = tuple(map(min, zip(*(h.tail.sigma for h in tailed))))",
     "sigma = tuple(map(min, zip(*(h.tail.sigma if h.tail else "
     "(Fraction(2),) * f.n for h in (f, g)))))"),
]

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                ".pytest_cache", ".bench_work")


def run_suite(copy: str, every: bool):
    """(failed, failing tests or a note) for tier-1 on the copy, with its
    own package first on the path: with -x and the first failing test,
    or, when ``every``, without it and every failing test."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", *([] if every else ["-x"])],
            cwd=copy, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True, f"timed out after {TIMEOUT_S} s"
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    if done.returncode == 0:
        return False, ""
    return True, "\n      ".join(failed) if failed else \
        f"exit {done.returncode}"


def main(argv) -> int:
    every = "--every" in argv
    argv = [a for a in argv if a != "--every"]
    chosen = [int(a) for a in argv if a.isdigit()]
    if len(chosen) != len(argv) or \
            not all(1 <= i <= len(MUTANTS) for i in chosen):
        print(f"usage: mutants.py [--every] [N ...], N in "
              f"1..{len(MUTANTS)}")
        return 2
    chosen = chosen or range(1, len(MUTANTS) + 1)
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        failed, note = run_suite(copy, every)
        if failed:
            print(f"the unmutated suite fails ({note}): no audit")
            return 1
        survivors = 0
        for i in chosen:
            name, module, old, new = MUTANTS[i - 1]
            path = os.path.join(copy, "src", "daggeralg", module)
            with open(path) as fh:
                source = fh.read()
            if source.count(old) != 1:
                print(f"mutant {i} ({name}) matches {source.count(old)} "
                      f"times in {module}: update it")
                return 1
            with open(path, "w") as fh:
                fh.write(source.replace(old, new))
            start = time.perf_counter()
            try:
                killed, note = run_suite(copy, every)
            finally:
                with open(path, "w") as fh:
                    fh.write(source)
            survivors += not killed
            print(f"{i:2d}  {'killed' if killed else 'SURVIVED':8s} "
                  f"{time.perf_counter() - start:6.0f} s  {name}"
                  f"{'  by ' + note if note else ''}", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
