"""Interleaved A/B timer of the CLI on the benchmark's `cli-mix` ops.

    python3 tests/ab_cli.py PARENT CHANGE [--seed 101]

PARENT and CHANGE are two checkouts of this repository (the same one
twice gives an A/A run).  Their packages are loaded in one process under
the distinct names ``daggeralg_a`` and ``daggeralg_b``.  The `cli-mix`
ops of ``bench/workloads.py`` at the seed (the first ``OPS``), generated
by CHANGE's copy of it, run through both ``cli.main``s back to back,
``REPS`` times each, in alternating order.  Every op should give the
same exit code, stdout and stderr under both.  The report gives each
side's total op time, their ratio (parent / change, above 1 when the
change is faster) and the same by subcommand, with the count of ops
whose outputs differ and the first such op of each subcommand; any
difference exits 1.

Not a test: pytest does not collect it, and it needs no dependency
beyond the benchmark's own.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import sys
import tempfile
import time
from collections import defaultdict

OPS = 960
REPS = 5


def load_cli(checkout: str, name: str):
    """The ``cli`` module of the package in ``checkout``/src/daggeralg,
    with the package imported as ``name``.  Its modules import each other
    relatively, so they all land under ``name``."""
    root = os.path.join(os.path.abspath(checkout), "src", "daggeralg")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"),
        submodule_search_locations=[root])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def cli_mix_ops(checkout: str, seed: int, count: int, workdir: str):
    """The first ``count`` ops of the `cli-mix` stream at ``seed``, as
    (subcommand, argv) pairs, with their fixtures written to ``workdir``."""
    # the workloads module imports the package as ``daggeralg``: a third
    # copy, from this checkout, that only generates the ops
    sys.path[:0] = [os.path.join(checkout, "src"),
                    os.path.join(checkout, "bench")]
    import workloads

    stream = workloads.CliMixWorkload(seed, workdir).stream()
    return [(kind, op["argv"]) for kind, op in
            (next(stream) for _ in range(count))]


def run(cli, argv):
    """(seconds, (exit code, stdout, stderr)) of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(argv)
        seconds = time.perf_counter() - start
    return seconds, (rc, out.getvalue(), err.getvalue())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seed", type=int, default=101)
    args = ap.parse_args(argv)

    sides = {"parent": load_cli(args.parent, "daggeralg_a"),
             "change": load_cli(args.change, "daggeralg_b")}
    totals = {side: defaultdict(float) for side in sides}
    # subcommand -> [differing ops, the argv of the first]
    differing = {}
    with tempfile.TemporaryDirectory() as workdir:
        ops = cli_mix_ops(os.path.abspath(args.change), args.seed, OPS,
                          workdir)
        # one untimed pass fills the caches both sides keep per process
        for _, op_argv in ops:
            for cli in sides.values():
                run(cli, op_argv)
        gc.collect()
        for i, (kind, op_argv) in enumerate(ops):
            differs = False
            for rep in range(REPS):
                order = list(sides) if (i + rep) % 2 == 0 else \
                    list(sides)[::-1]
                results = {}
                for side in order:
                    seconds, results[side] = run(sides[side], op_argv)
                    totals[side][kind] += seconds
                differs |= results["parent"] != results["change"]
            if differs:
                differing.setdefault(kind, [0, op_argv])[0] += 1

    report = {"seed": args.seed, "ops": len(ops), "reps": REPS,
              "outputs_identical": not differing, "by_subcommand": {}}
    for kind in sorted(totals["parent"]):
        a, b = totals["parent"][kind], totals["change"][kind]
        count, first = differing.get(kind, (0, None))
        report["by_subcommand"][kind] = {
            "parent_s": round(a, 4), "change_s": round(b, 4),
            "ratio": round(a / b, 4), "differing_ops": count}
        if first:
            report["by_subcommand"][kind]["first_differing"] = \
                " ".join(first)
    a, b = sum(totals["parent"].values()), sum(totals["change"].values())
    report.update(parent_s=round(a, 4), change_s=round(b, 4),
                  ratio=round(a / b, 4))
    print(json.dumps(report, indent=2))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
