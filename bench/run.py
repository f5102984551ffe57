"""daggeralg benchmark runner.

    python3 bench/run.py --workload {selftest,cli-mix,lattice} --seed N \
        --seconds S --trace {0,1}

Runs one workload as a closed loop with one client for ``--seconds``
seconds against the package sources in ``src/`` of this checkout,
checks every output, and prints as its last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, measured by replaying the same ops under span
wrappers.  Exits 1 when an op raises, misses its deadline or gives a
wrong output, and 2 when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# set-ups per run (the run's own and fresh interpreters); setup_s is their median
SETUP_REPEATS = 5
# a known-defect probe that has not ended after this long counts as missed
PROBE_DEADLINE_S = 1.0
# seconds of one host-speed sample loop on the reference host (2-CPU VM,
# Python 3.11.7)
CALIBRATION_REF_S = 0.014


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "daggeralg", "__init__.py")):
        _fail(f"no package sources at {SRC}/daggeralg")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import daggeralg

    if os.path.dirname(os.path.dirname(os.path.abspath(daggeralg.__file__))) != SRC:
        _fail("daggeralg was imported from outside this checkout")
    return daggeralg


class Outcome:
    __slots__ = ("op", "start", "seconds", "raw", "error", "missed")

    def __init__(self, op, start, raw=None, error=None, missed=False):
        self.op, self.start, self.raw = op, start, raw
        self.seconds = time.monotonic() - start
        self.error, self.missed = error, missed


def run_op(workload, op, limit=None):
    """One op inside the timed region; checks come later."""
    from workloads import DeadlineExceeded, deadline

    limit = limit or workload.deadline_s
    t0 = time.monotonic()
    try:
        if workload.name == "selftest":   # a report's thread pool is not interrupted
            raw = workload.execute(op)
        else:
            with deadline(limit):
                raw = workload.execute(op)
    except DeadlineExceeded:
        return Outcome(op, t0, missed=True)
    except Exception as exc:  # the op raised: a failed op, not a crash
        return Outcome(op, t0, error=f"{type(exc).__name__}: {exc}")
    outcome = Outcome(op, t0, raw=raw)
    outcome.missed = outcome.seconds > limit
    return outcome


def finish(workload, outcomes):
    """Check outputs after the timed loop; returns the canonical outputs,
    one per outcome, and the problems found: wrong outputs, raised ops
    and deadline misses.  No op fails on a healthy run, so any problem
    makes the run incorrect."""
    outs, problems = [], []
    for o in outcomes:
        if o.raw is None:
            outs.append(b"missed" if o.missed else b"raised")
        else:
            outs.append(workload.canonical(o.op, o.raw))
            wrong = workload.check(o.op, o.raw, outs[-1])
            if wrong:
                o.error = wrong
                problems.append(f"WRONG OUTPUT: {wrong}")
                continue
        if o.missed:
            problems.append(f"DEADLINE MISS: {o.op[0]} after {o.seconds:.3f} s")
        elif o.error:
            problems.append(f"RAISED: {o.op[0]}: {o.error}")
    return outs, problems


def digest(outs):
    """SHA-256 over canonical outputs in workload order."""
    h = hashlib.sha256()
    for out in outs:
        h.update(out + b"\n")
    return h.hexdigest()


def _time_reference_loop():
    """Seconds taken by a fixed pure-Python Fraction loop that runs no
    daggeralg code, with the collector off."""
    gc.disable()
    try:
        t0 = time.monotonic()
        x = Fraction(0)
        for k in range(1, 2001):
            x += Fraction(1, k % 97 + 1) * Fraction(k % 13 + 1, 7)
        return time.monotonic() - t0
    finally:
        gc.enable()


class HostSpeed:
    """How slow the host was during each op, in units of the reference
    loop's time on the reference host.

    The host drifts by tens of percent over minutes (see README.md).
    The runner probes it between ops only, so that nothing competes with
    an op for the CPUs.  A probe is a burst of ``BURST`` reference loops
    in this thread, read as their median.  For a workload that runs a
    thread pool, the probe adds a burst of ``BURST`` loops in each of
    ``threads`` pooled threads, read as wall time per loop.

    An op is scaled by the mean of the probes just before and after it.
    A selftest report runs the criteria twice, serially and then over
    ``threads`` threads; inside ``legs_probed()`` the runner probes after
    each of these legs, and scales the serial leg by the serial reads and
    the pooled leg by the pooled reads.
    """

    BURST = 3

    def __init__(self, threads=1):
        self.threads = threads
        self.probes = []   # (start, end, serial loop s, pooled loop s)
        self.legs = []     # selftest legs: (start, end, pooled)

    def probe(self):
        t0 = time.monotonic()
        serial = statistics.median(_time_reference_loop()
                                   for _ in range(self.BURST))
        pooled = serial
        if self.threads > 1:
            t1 = time.monotonic()
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                for _ in pool.map(lambda _: [_time_reference_loop()
                                             for _ in range(self.BURST)],
                                  range(self.threads)):
                    pass
            pooled = (time.monotonic() - t1) / (self.threads * self.BURST)
        self.probes.append((t0, time.monotonic(), serial, pooled))

    @contextlib.contextmanager
    def legs_probed(self):
        """Probe after each leg of a selftest report and record the leg."""
        from daggeralg import selftest

        run_leg = selftest._run_first_nine

        def leg(seed, threads):
            t0 = time.monotonic()
            try:
                return run_leg(seed, threads)
            finally:
                self.legs.append((t0, time.monotonic(), threads > 1))
                self.probe()

        selftest._run_first_nine = leg
        try:
            yield
        finally:
            selftest._run_first_nine = run_leg

    def slowness(self, start, end, pooled=False):
        """The host's slowness over [start, end] (monotonic clock), from
        the probes around it."""
        ends = [p[1] for p in self.probes]
        i = max(bisect.bisect_right(ends, start) - 1, 0)
        j = min(bisect.bisect_left(ends, end), len(ends) - 1)
        read = 3 if pooled else 2
        return (self.probes[i][read] + self.probes[j][read]) / 2 \
            / CALIBRATION_REF_S

    def busy(self, start, end):
        """Seconds of [start, end] outside the probes taken inside it."""
        return end - start - sum(b - a for a, b, *_ in self.probes
                                 if start <= a and b <= end)

    def scaled(self, start, end):
        """The op time of [start, end] at the reference host speed."""
        legs = [(a, b, pooled) for a, b, pooled in self.legs
                if start <= a and b <= end]
        if not legs:
            return self.busy(start, end) / self.slowness(start, end)
        return sum((b - a) / self.slowness(a, b, pooled) for a, b, pooled in legs)


def closed_loop(workload, ops, seconds, host):
    """Run ops back to back in whole rounds of the workload's op mix, at
    least two, until ``seconds`` have passed (all of ``ops`` when
    ``seconds`` is None).  The host is probed before the first op and
    after each round."""
    outcomes = []
    host.probe()
    start = time.monotonic()
    for op in ops:
        outcomes.append(run_op(workload, op))
        rounds, rest = divmod(len(outcomes), workload.round_size)
        if not rest:
            host.probe()
            if seconds is not None and rounds >= 2 \
                    and time.monotonic() - start >= seconds:
                break
    return outcomes


def setup(name, seed, workdir):
    """Everything before the timed loop: import, inputs, lazy imports and
    one untimed warm-up op of each kind.  Returns the workload, the
    set-up's seconds and the warm-up outcomes."""
    t0 = time.monotonic()
    _import_package()
    import workloads

    wl = workloads.WORKLOADS[name](seed, workdir)
    warm = [run_op(wl, op) for op in wl.warmup_ops()]
    return wl, time.monotonic() - t0, warm


def setup_probe(name, seed, workdir):
    """Set-up of a fresh interpreter, in a child process: returns its
    seconds and the (start, end) of the child's life."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed), "--workdir", workdir]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1]), start, time.monotonic()


def summarize(outcomes, host):
    """Counts, latency percentiles and throughput.  ``ops_per_s`` counts
    correct, in-deadline ops per second of op time, each op's time first
    scaled to the reference host speed by the host's slowness during it."""
    ok = [o for o in outcomes if o.error is None and not o.missed]
    busy = {id(o): host.busy(o.start, o.start + o.seconds) for o in outcomes}
    scaled = sum(host.scaled(o.start, o.start + o.seconds) for o in outcomes)
    lat = [busy[id(o)] for o in ok]
    return {
        "attempted": len(outcomes),
        "failed": len(outcomes) - len(ok),
        "raw_ops_per_s": len(ok) / sum(busy.values()),
        "host_slowness": sum(busy.values()) / scaled,
        "ops_per_s": len(ok) / scaled,
        "p50_ms": spans.percentile(lat, 50) * 1e3,
        "p90_ms": spans.percentile(lat, 90) * 1e3,
    }


def _print_table(title, rows):
    print(f"# {title}")
    for name, value, unit in rows:
        print(f"#   {name:<48s} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["selftest", "cli-mix", "lattice"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")

    workdir = args.workdir or os.path.join(
        ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    if args.setup_probe:
        _, seconds, warm = setup(args.workload, args.seed, workdir)
        if any(o.raw is None for o in warm):
            return 1
        print(seconds)
        return 0

    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def _run(args, workdir) -> int:
    os.makedirs(workdir, exist_ok=True)
    start = time.monotonic()
    wl, seconds, warm = setup(args.workload, args.seed, workdir)
    setups = [(seconds, start, start + seconds)]
    host = HostSpeed(wl.threads)
    host.probe()
    for _ in range(SETUP_REPEATS - 1):
        setups.append(setup_probe(args.workload, args.seed, workdir))
        host.probe()
    import workloads

    with host.legs_probed():
        outcomes = closed_loop(wl, wl.stream(), args.seconds, host)
        if args.trace:
            tracer = spans.Tracer(deadline_exc=workloads.DeadlineExceeded)
            with tracer:
                traced = closed_loop(wl, [o.op for o in outcomes], None, host)
                probes = [(run_op(wl, op, PROBE_DEADLINE_S), reproduced)
                          for op, reproduced in wl.probes()]

    _, problems = finish(wl, warm)
    outs, run_problems = finish(wl, outcomes)
    problems += run_problems
    s = summarize(outcomes, host)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = statistics.median(sec / host.slowness(a, b) for sec, a, b in setups)
    prefix = 2 * wl.round_size   # every run completes these ops

    print(f"# workload={wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} "
          f"threads={wl.threads} clients=1 loop=closed")
    print(f"# inputs_sha256={workloads.fingerprint(wl.inputs())}")
    print(f"# outputs_sha256={digest(outs[:prefix])} (first {prefix} ops)")
    print(f"# all_outputs_sha256={digest(outs)} ops={len(outcomes)}")
    for problem in problems[:20]:
        print(f"# {problem}")

    e2e = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (s["ops_per_s"], "ops/s"),
        "ok_ratio": (1 - s["failed"] / s["attempted"], "1"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    extra = [("raw_ops_per_s", s["raw_ops_per_s"], "ops/s"),
             ("host_slowness", s["host_slowness"], "1"),
             ("failed_ratio", s["failed"] / s["attempted"], "1")]
    if wl.name == "selftest":
        extra.append(("report_s", s["p50_ms"] / 1e3, "s"))
    else:
        extra.append(("op_p50_ms", s["p50_ms"], "ms"))
    if wl.name == "cli-mix":
        extra.append(("op_p90_ms", s["p90_ms"], "ms"))
    _print_table("end to end (untraced)",
                 [(k, v, u) for k, (v, u) in e2e.items()] + extra)
    correct = not problems

    if args.trace:
        traced_outs, _ = finish(wl, traced)
        outputs_match = digest(traced_outs) == digest(outs)
        metrics = trace_metrics(wl, tracer, traced, probes, s, host,
                                outputs_match)
        if not outputs_match:
            print("# WRONG OUTPUT: traced outputs differ from untraced ones")
            correct = False
        _print_table("per layer (traced replay of the same ops)",
                     [(k, v, u) for k, (v, u) in metrics.items()])
    else:
        metrics = e2e

    result = {
        "correct": correct,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


TRACE_METRICS = ["trace.untraced_ops_per_s", "trace.traced_ops_per_s",
                 "trace.known_defects_reproduced", "trace.outputs_match"]


def trace_metrics(wl, tracer, traced, probes, untraced_summary, host,
                  outputs_match):
    """Per-layer metrics from the traced replay and the known-defect probes."""
    t = summarize(traced, host)
    reports = len(traced) if wl.name == "selftest" else 0
    metrics = spans.layer_metrics(tracer, reports)
    metrics["trace.untraced_ops_per_s"] = (untraced_summary["ops_per_s"], "ops/s")
    metrics["trace.traced_ops_per_s"] = (t["ops_per_s"], "ops/s")
    metrics["trace.known_defects_reproduced"] = (
        sum(1 for o, reproduced in probes if reproduced(o)), "count")
    metrics["trace.outputs_match"] = (int(outputs_match), "1")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
