"""Interleaved A/B timer of the lattice kernels on the benchmark's
`lattice` ops.

    python3 tests/ab_lattice.py PARENT CHANGE [--seed 101]

PARENT and CHANGE are two checkouts of this repository (the same one
twice gives an A/A run).  Their packages are loaded in one process under
the distinct names ``daggeralg_a`` and ``daggeralg_b`` (as in
``tests/ab_cli.py``), and each side's ``bench/workloads.py`` is loaded
against its own package, so that every op is built from that side's
classes.  The first ``OPS`` ops of the `lattice` stream at the seed run
through both sides' ``LatticeWorkload.execute`` back to back, ``REPS``
times each, in alternating order, after one untimed pass.  Every op
should give the same canonical output under both.  The report gives
each side's total op time and their ratio (parent / change, above 1
when the change is faster), overall and by op class: residue-Z by
ambient rank, residue-Ztriv, strictness by ring, and tensor.  Any
differing output exits 1.

Not a test: pytest does not collect it, and it needs no dependency
beyond the benchmark's own.  Time is taken in process around
``execute`` alone, so the benchmark harness's per-op work is not in it.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import sys
import tempfile
import time
from collections import defaultdict

from ab_cli import load_cli

OPS = 800
REPS = 40


def load_workloads(checkout: str, package: str):
    """The checkout's ``bench/workloads.py``, loaded as ``workloads_`` +
    the package name, with the name ``daggeralg`` pointing at the
    already loaded ``package`` while it imports."""
    alias = {key.replace(package, "daggeralg", 1): mod
             for key, mod in sys.modules.items()
             if key == package or key.startswith(package + ".")}
    saved = {key: sys.modules.pop(key) for key in list(sys.modules)
             if key == "daggeralg" or key.startswith("daggeralg.")}
    sys.modules.update(alias)
    try:
        spec = importlib.util.spec_from_file_location(
            f"workloads_{package}",
            os.path.join(os.path.abspath(checkout), "bench", "workloads.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for key in alias:
            sys.modules.pop(key, None)
        sys.modules.update(saved)
    return module


def op_class(op) -> str:
    kind, spec = op[0], op[1]["spec"]
    if kind == "residue-Z":
        return f"residue-Z rank {spec['rank']}"
    if kind == "strictness":
        return f"strictness {spec['ring']}"
    return kind


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seed", type=int, default=101)
    args = ap.parse_args(argv)

    sides = {}
    with tempfile.TemporaryDirectory() as workdir:
        for side, checkout, name in (("parent", args.parent, "daggeralg_a"),
                                     ("change", args.change, "daggeralg_b")):
            load_cli(checkout, name)
            workload = load_workloads(checkout, name).LatticeWorkload(
                args.seed, workdir)
            stream = workload.stream()
            sides[side] = (workload, [next(stream) for _ in range(OPS)])
    specs = [[(op[0], op[1]["spec"]) for op in ops]
             for _, ops in sides.values()]
    if specs[0] != specs[1]:
        print("the two checkouts generate different lattice ops")
        return 1

    def run(side, i):
        workload, ops = sides[side]
        start = time.perf_counter()
        raw = workload.execute(ops[i])
        seconds = time.perf_counter() - start
        return seconds, workload.canonical(ops[i], raw)

    totals = {side: defaultdict(float) for side in sides}
    counts = defaultdict(int)
    differing = {}      # op class -> [differing ops, the spec of the first]
    for i in range(OPS):
        for side in sides:
            run(side, i)
    gc.collect()
    for i, (kind, spec) in enumerate(specs[0]):
        cls = op_class(sides["parent"][1][i])
        counts[cls] += 1
        differs = False
        for rep in range(REPS):
            order = list(sides) if (i + rep) % 2 == 0 else list(sides)[::-1]
            outs = {}
            for side in order:
                seconds, outs[side] = run(side, i)
                totals[side][cls] += seconds
            differs |= outs["parent"] != outs["change"]
        if differs:
            differing.setdefault(cls, [0, spec])[0] += 1

    report = {"seed": args.seed, "ops": OPS, "reps": REPS,
              "outputs_identical": not differing, "by_class": {}}
    for cls in sorted(totals["parent"]):
        a, b = totals["parent"][cls], totals["change"][cls]
        calls = counts[cls] * REPS
        count, first = differing.get(cls, (0, None))
        report["by_class"][cls] = {
            "ops": counts[cls],
            "parent_us": round(a / calls * 1e6, 2),
            "change_us": round(b / calls * 1e6, 2),
            "ratio": round(a / b, 4), "differing_ops": count}
        if first:
            report["by_class"][cls]["first_differing"] = first
    a, b = sum(totals["parent"].values()), sum(totals["change"].values())
    report.update(parent_us=round(a / (OPS * REPS) * 1e6, 2),
                  change_us=round(b / (OPS * REPS) * 1e6, 2),
                  ratio=round(a / b, 4))
    print(json.dumps(report, indent=2))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
