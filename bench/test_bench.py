"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py
"""

import itertools
import json
import os
import time

import pytest

import run

run._import_package()

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("name", ["cli-mix", "lattice"])
def test_same_seed_same_inputs_and_digest(name, tmp_path):
    a = workloads.WORKLOADS[name](3, str(tmp_path / "a"))
    b = workloads.WORKLOADS[name](3, str(tmp_path / "b"))
    assert workloads.fingerprint(a.inputs()) == workloads.fingerprint(b.inputs())
    ops_a, ops_b = a.ops[:12], b.ops[:12]
    out_a = [run.run_op(a, op)
             for op in ops_a]
    out_b = [run.run_op(b, op)
             for op in ops_b]
    outs_a, problems_a = run.finish(a, out_a)
    outs_b, problems_b = run.finish(b, out_b)
    assert not problems_a and not problems_b
    assert run.digest(outs_a) == run.digest(outs_b)


@pytest.mark.parametrize("name", ["cli-mix", "lattice"])
def test_other_seed_other_inputs(name, tmp_path):
    a = workloads.WORKLOADS[name](3, str(tmp_path / "a"))
    b = workloads.WORKLOADS[name](4, str(tmp_path / "b"))
    assert workloads.fingerprint(a.inputs()) != workloads.fingerprint(b.inputs())


def test_stream_goes_on_past_the_set_up_ops(tmp_path):
    wl = workloads.LatticeWorkload(3, str(tmp_path))
    before = workloads.fingerprint(wl.inputs())
    n = len(wl.ops)
    stream = list(itertools.islice(wl.stream(), n + wl.round_size))
    first = [op[1]["spec"] for op in stream[:n]]
    assert all(op[1]["spec"] not in first for op in stream[n:])
    assert workloads.fingerprint(wl.inputs()) == before


class _SteadyHost:
    def busy(self, start, end):
        return end - start

    scaled = busy


class _Faulty(workloads.LatticeWorkload):
    deadline_s = 0.2

    def execute(self, op):
        if op[0] == "raise":
            raise ValueError("made to raise")
        if op[0] == "spin":
            end = time.perf_counter() + 5
            while time.perf_counter() < end:
                pass
        return super().execute(op)


def test_raise_and_deadline_miss_each_count_once(tmp_path):
    wl = _Faulty(5, str(tmp_path))
    good = wl.ops[0]
    ops = [("raise", good[1]), ("spin", good[1]), good]
    start = time.perf_counter()
    outcomes = [run.run_op(wl, op)
                for op in ops]
    assert time.perf_counter() - start < 3, "the deadline did not interrupt"
    _, problems = run.finish(wl, outcomes)
    s = run.summarize(outcomes, _SteadyHost())
    assert outcomes[0].error and not outcomes[0].missed
    assert outcomes[1].missed
    assert (s["attempted"], s["failed"]) == (3, 2)
    # each is one problem, and any problem makes the run incorrect
    assert [p.split(":")[0] for p in problems] == ["RAISED", "DEADLINE MISS"]


def test_wrong_output_is_caught(tmp_path):
    wl = workloads.LatticeWorkload(5, str(tmp_path))
    op = next(o for o in wl.ops if o[0] == "residue-Z")
    outcome = run.run_op(wl, op)
    _, problems = run.finish(wl, [outcome])
    assert not problems
    too_big = wl.RESIDUE_NORM + 1   # above the norm of the representative
    outcome.raw = type(outcome.raw)(too_big, too_big)
    _, problems = run.finish(wl, [outcome])
    assert problems


def test_tracer_restores_the_package():
    from daggeralg import localization, selftest, series

    before = (series.multiply, localization.multiply,
              selftest._CRITERIA[3], series.TruncatedSeries.__init__)
    with spans.Tracer():
        assert localization.multiply is not before[1]
        assert selftest._CRITERIA[3] is selftest.criterion_3
        assert selftest.criterion_3 is not before[2]
    after = (series.multiply, localization.multiply,
             selftest._CRITERIA[3], series.TruncatedSeries.__init__)
    assert after == before


@pytest.mark.parametrize("name", ["cli-mix", "lattice"])
def test_every_metric_is_printed(name, capsys):
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for trace, expected in ((0, e2e), (1, layer)):
        code = run.main(["--workload", name, "--seed", "2",
                         "--seconds", "0.5", "--trace", str(trace)])
        out = capsys.readouterr().out
        result = _last_json(out)
        assert code == 0 and result["correct"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected
        for extra in ("failed_ratio", "op_p50_ms"):
            assert f"#   {extra} " in out
        if trace:
            assert result["metrics"]["trace.outputs_match"]["value"] == 1
    assert (name == "cli-mix") == ("#   op_p90_ms " in out)


def test_layer_separation_markers(capsys):
    """Zero residue-norm calls on cli-mix, zero multiplications on lattice."""
    run.main(["--workload", "cli-mix", "--seed", "2", "--seconds", "0.5",
              "--trace", "1"])
    cli_metrics = _last_json(capsys.readouterr().out)["metrics"]
    run.main(["--workload", "lattice", "--seed", "2", "--seconds", "0.5",
              "--trace", "1"])
    lat_metrics = _last_json(capsys.readouterr().out)["metrics"]
    assert cli_metrics["normed_core.residue_norm.calls"]["value"] == 0
    assert lat_metrics["series.multiply.calls"]["value"] == 0
    assert cli_metrics["localization.laurent_solve.calls"]["value"] == 0
    assert lat_metrics["localization.laurent_solve.calls"]["value"] == 0


def test_per_layer_names_match_the_spec():
    names = [n for n, _ in spans.per_layer_names()] + run.TRACE_METRICS
    assert names == [m["name"] for m in SPEC["per_layer"]]
