"""Mutation audit of the certified bounds.

    python3 tests/mutants.py

Each mutant below breaks one bound that a printed interval rests on, by
one exact string replacement in one package module.  For each mutant the
repository is copied to a temporary directory, the replacement is made
there (it must match exactly once, so a mutant that no longer fits the
code stops the audit), and the tier-1 suite runs on the copy with
``-x``.  A mutant is killed when the suite fails; the table names the
first failing test.  An unmutated copy runs first and must pass.

Exits 0 when every mutant is killed, 1 otherwise.  Not a test: pytest
does not collect it, and it takes no options.  A run takes a few
minutes per mutant.
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
    ("multiply without its 3/4 shrink", "series.py",
     "sigma = PolyRadius(tuple(s * Fraction(3, 4) for s in sigma_min))",
     "sigma = PolyRadius(tuple(sigma_min))"),
    ("multiply without its growth constant", "series.py",
     "Tail(Cf * Cg * _poly_growth_constant(f.n), sigma)",
     "Tail(Cf * Cg, sigma)"),
    ("torus lower bound kept for a tailed series", "series.py",
     "if (f.tail is None or not f.tail.C) and cauchy != total:",
     "if cauchy != total:"),
    ("torus lower bound rounded up", "series.py",
     "Fraction(1, 10**9)).lo",
     "Fraction(1, 10**9)).hi"),
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
]

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                ".pytest_cache", ".bench_work")


def run_suite(copy: str):
    """(failed, first failing test or a note) for tier-1 with -x on the
    copy, with its own package first on the path."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "--continue-on-collection-errors"],
            cwd=copy, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True, f"timed out after {TIMEOUT_S} s"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    if done.returncode == 0:
        return False, ""
    return True, failed.group(1) if failed else f"exit {done.returncode}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        failed, note = run_suite(copy)
        if failed:
            print(f"the unmutated suite fails ({note}): no audit")
            return 1
        survivors = 0
        for i, (name, module, old, new) in enumerate(MUTANTS, start=1):
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
                killed, note = run_suite(copy)
            finally:
                with open(path, "w") as fh:
                    fh.write(source)
            survivors += not killed
            print(f"{i:2d}  {'killed' if killed else 'SURVIVED':8s} "
                  f"{time.perf_counter() - start:6.0f} s  {name}"
                  f"{'  by ' + note if note else ''}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
