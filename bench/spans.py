"""In-memory span tracer that wraps public daggeralg functions from outside.

Each traced function is replaced, in every ``daggeralg`` module namespace
(and module-level dict) that binds it, by a wrapper that opens a span on
a per-thread stack.  A span's self time is its duration minus the
durations of the spans opened directly inside it on the same thread.
Spans are folded into per-thread accumulators as they close and merged
when the run ends; nothing is written while the workload runs.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time

# Functions traced per layer, as (layer, attribute path in that module).
LAYERS = {
    "series": ["multiply", "evaluate_complex", "norm_S", "norm_T",
               "TruncatedSeries.__init__"],
    "scalars": ["abs_value", "nth_root_interval"],
    "localization": ["laurent_solve", "koszul_h_check"],
    "linalg": ["rref", "solve"],
    "normed_core": ["residue_norm", "vector_norm", "check_strictness",
                    "operator_norm"],
    "tensor": ["tensor_norm_certified"],
    "spectrum": ["fiber_sup", "spectral_via_powers"],
    "nonarch": ["check_adjunction", "pi_tensor_check"],
    "selftest": [f"criterion_{k}" for k in range(1, 10)],
    "cli": ["cmd_norm", "cmd_tensor", "cmd_localize", "cmd_koszul",
            "cmd_mv_check", "cmd_spectrum", "cmd_shilov", "cmd_pi_check"],
}

# Span names whose individual durations are kept for percentiles.
_KEEP_DURATIONS = {"normed_core.residue_norm"} | {
    f"cli.{fn}" for fn in LAYERS["cli"]
}

CLI_SUBCOMMANDS = {fn: fn[4:].replace("_", "-") for fn in LAYERS["cli"]}


def span_name(layer: str, attr: str) -> str:
    if attr == "TruncatedSeries.__init__":
        return "series.construct"
    return f"{layer}.{attr}"


class _ThreadState:
    def __init__(self):
        self.stack = []          # frames: [child_ns]
        self.calls = {}
        self.total_ns = {}
        self.self_ns = {}
        self.durations = {}
        self.counters = {}       # extra per-span counters
        self.residue_depth = 0   # open residue_norm spans on this thread

    def bump(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def top(self, key, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value


def _coeff_bits(series) -> int:
    best = 0
    for c in series.coeffs.values():
        best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


class Tracer:
    """Installs span wrappers on entry and removes them on exit."""

    def __init__(self, deadline_exc=None):
        self._deadline_exc = deadline_exc
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._patches = []      # (container, key, original, is_attr)

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    # -- wrappers -------------------------------------------------------------

    def _extras(self, name, st, args, kwargs, result):
        if name == "series.multiply":
            f, g = args[0], args[1]
            st.bump("series.multiply.term_pairs", len(f.coeffs) * len(g.coeffs))
            st.top("series.multiply.max_coeff_bits", _coeff_bits(result))
        elif name == "linalg.rref":
            A = args[0]
            st.bump("linalg.rref.entries", len(A) * (len(A[0]) if A else 0))
        elif name == "normed_core.residue_norm":
            if result.hi is not None and result.lo == result.hi:
                st.bump("normed_core.residue_norm.certified")
        elif name == "tensor.tensor_norm_certified":
            if result.hi is not None and result.lo == result.hi:
                st.bump("tensor.tensor_norm_certified.exact")

    def _wrap(self, fn, name):
        tracer = self
        keep = name in _KEEP_DURATIONS
        is_residue = name == "normed_core.residue_norm"
        is_vector = name == "normed_core.vector_norm"
        is_criterion = name.startswith("selftest.criterion_")
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            st = tracer._state()
            frame = [0]
            st.stack.append(frame)
            if is_residue:
                st.residue_depth += 1
            elif is_vector and st.residue_depth:
                st.bump("normed_core.residue_norm.candidates")
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            except BaseException as exc:
                if tracer._deadline_exc and isinstance(exc, tracer._deadline_exc):
                    st.bump(f"{name}.deadline_misses")
                raise
            finally:
                dt = clock() - t0
                st.stack.pop()
                if is_residue:
                    st.residue_depth -= 1
                if st.stack:
                    st.stack[-1][0] += dt
                st.calls[name] = st.calls.get(name, 0) + 1
                st.total_ns[name] = st.total_ns.get(name, 0) + dt
                st.self_ns[name] = st.self_ns.get(name, 0) + dt - frame[0]
                if keep:
                    st.durations.setdefault(name, []).append(dt)
                if is_criterion:
                    threads = args[1] if len(args) > 1 else kwargs.get("threads", 1)
                    leg = "serial" if threads <= 1 else "threaded"
                    st.bump(f"selftest.{leg}_leg_ns", dt)
                    if leg == "serial":
                        st.bump(f"{name}.serial_ns", dt)
            if ok:
                tracer._extras(name, st, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def __enter__(self):
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "daggeralg"
                                    or name.startswith("daggeralg."))
        }
        for layer, attrs in LAYERS.items():
            home = modules[f"daggeralg.{layer}"]
            for attr in attrs:
                name = span_name(layer, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrap(orig, name), orig, True)
                    continue
                orig = getattr(home, attr)
                wrapper = self._wrap(orig, name)
                for mod in modules.values():
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, wrapper, orig, True)
                        elif isinstance(val, dict):
                            for k, v in list(val.items()):
                                if v is orig:
                                    self._patch(val, k, wrapper, orig, False)
        return self

    def _patch(self, container, key, new, orig, is_attr):
        if is_attr:
            setattr(container, key, new)
        else:
            container[key] = new
        self._patches.append((container, key, orig, is_attr))

    def __exit__(self, *exc):
        for container, key, orig, is_attr in reversed(self._patches):
            if is_attr:
                setattr(container, key, orig)
            else:
                container[key] = orig
        self._patches.clear()
        return False

    # -- results --------------------------------------------------------------

    def merged(self):
        calls, total, self_ns, durations, counters = {}, {}, {}, {}, {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for src, dst in ((st.calls, calls), (st.total_ns, total),
                             (st.self_ns, self_ns)):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v
            for k, v in st.durations.items():
                durations.setdefault(k, []).extend(v)
            for k, v in st.counters.items():
                if k.endswith("max_coeff_bits"):
                    counters[k] = max(counters.get(k, 0), v)
                else:
                    counters[k] = counters.get(k, 0) + v
        return calls, total, self_ns, durations, counters


def percentile(values, q):
    """q-th percentile (1-99) by the inclusive method; 0 when empty."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, reports: int):
    """Per-layer metrics as {name: (value, unit)} from a finished trace.

    ``reports`` is the number of selftest reports traced, used to state
    criterion times per report.
    """
    calls, total, self_ns, durations, counters = tracer.merged()
    out = {}
    for layer, attrs in LAYERS.items():
        if layer in ("selftest", "cli"):
            continue
        for attr in attrs:
            name = span_name(layer, attr)
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self_ns.get(name, 0) / 1e9, "s")

    pairs = counters.get("series.multiply.term_pairs", 0)
    out["series.multiply.term_pairs"] = (pairs, "count")
    out["series.multiply.ns_per_term_pair"] = (
        total.get("series.multiply", 0) / pairs if pairs else 0.0, "ns")
    out["series.multiply.max_coeff_bits"] = (
        counters.get("series.multiply.max_coeff_bits", 0), "bits")
    out["linalg.rref.entries"] = (counters.get("linalg.rref.entries", 0),
                                  "count")

    res = "normed_core.residue_norm"
    n_res = calls.get(res, 0)
    out[f"{res}.p90_ms"] = (percentile(durations.get(res, []), 90) / 1e6, "ms")
    out[f"{res}.certified_ratio"] = (
        counters.get(f"{res}.certified", 0) / n_res if n_res else 0.0, "1")
    res_s = total.get(res, 0) / 1e9
    out[f"{res}.candidates_per_s"] = (
        counters.get(f"{res}.candidates", 0) / res_s if res_s else 0.0, "1/s")

    ten = "tensor.tensor_norm_certified"
    n_ten = calls.get(ten, 0)
    finished = n_ten - counters.get(f"{ten}.deadline_misses", 0)
    out[f"{ten}.exact_ratio"] = (
        counters.get(f"{ten}.exact", 0) / finished if finished else 0.0, "1")
    out[f"{ten}.deadline_misses"] = (
        counters.get(f"{ten}.deadline_misses", 0), "count")

    per = max(reports, 1)
    for k in range(1, 10):
        out[f"selftest.criterion_{k}.s"] = (
            counters.get(f"selftest.criterion_{k}.serial_ns", 0) / 1e9 / per,
            "s")
    serial = counters.get("selftest.serial_leg_ns", 0) / 1e9 / per
    threaded = counters.get("selftest.threaded_leg_ns", 0) / 1e9 / per
    out["selftest.serial_leg_s"] = (serial, "s")
    out["selftest.threaded_leg_s"] = (threaded, "s")
    out["selftest.threaded_speedup"] = (
        serial / threaded if threaded else 0.0, "1")

    for fn, sub in CLI_SUBCOMMANDS.items():
        name = f"cli.{fn}"
        out[f"cli.{sub}.calls"] = (calls.get(name, 0), "count")
        out[f"cli.{sub}.p50_ms"] = (percentile(durations.get(name, []), 50) / 1e6, "ms")
    return out


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    return [(k, u) for k, (_, u) in layer_metrics(Tracer(), 0).items()]
