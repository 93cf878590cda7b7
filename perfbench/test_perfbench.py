"""Self-tests of the benchmark on tiny instances.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "direct": (bench.Case(4, 1, 2),),
    "pac": (bench.Case(4, 1, 4),),
    "divide": (bench.Case(100, 1), bench.Case(24, 2)),
}
COUNTS = ("depth_sum", "stages_sum", "solver_calls", "cut_loss",
          "fail_share")


def _traced(workload: str):
    tracer = tracing.Tracer()
    with tracer:
        outcomes = [bench.run_case(workload, c, tracer)
                    for c in TINY[workload]]
    return tracer, outcomes


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["direct", "divide"])
def test_every_declared_metric_reported_with_unit(workload, trace, capsys):
    result = run.measure(workload, 1, 0.0, trace, TINY[workload])
    line = run.result_line(result, SPEC, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert [d["name"] for d in declared] == list(line["metrics"])
    for d in declared:
        assert line["metrics"][d["name"]]["unit"] == d["unit"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] == len(TINY[workload])
    if not trace:
        report = capsys.readouterr().out.splitlines()
        for name, unit in run.REPORT_UNITS.items():
            assert any(r.split()[:1] == [name] and r.endswith(" " + unit)
                       for r in report), name


@pytest.mark.parametrize("workload", ["direct", "pac", "divide"])
def test_counts_repeat_across_runs(workload):
    def counts():
        outcomes = [bench.run_case(workload, c) for c in TINY[workload]
                    for _ in range(2)]
        _, m, problems = bench.summarize(workload, outcomes)
        assert not problems
        return {k: m[k] for k in COUNTS if k in m}

    assert counts() == counts()

    def layer_counts():
        tracer, _ = _traced(workload)
        layers = tracing.layer_metrics(tracer.spans, bench.INSTANCE_SPAN)
        return {d["name"]: layers[d["name"]] for d in SPEC["per_layer"]
                if d["unit"] == "count"}

    assert layer_counts() == layer_counts()


@pytest.mark.parametrize("workload", ["direct", "pac", "divide"])
def test_self_times_non_negative(workload):
    tracer, outcomes = _traced(workload)
    assert all(not o.wrong for o in outcomes)
    selfs = tracing.self_times(tracer.spans)
    assert selfs and min(selfs.values()) >= 0.0
    layers = tracing.layer_metrics(tracer.spans, bench.INSTANCE_SPAN)
    if workload != "pac":
        assert 0.95 <= layers["trace.coverage"] <= 1.0 + 1e-9


def test_failed_instance_counted_at_gate_count_and_traced(monkeypatch):
    monkeypatch.setattr(bench, "COMPILE_CAP_S", 1e-6)
    tracer, outcomes = _traced("direct")
    assert [(o.status, o.depth, o.stages) for o in outcomes] == [
        ("CompileTimeout", 6, 6)]
    layers = tracing.layer_metrics(tracer.spans, bench.INSTANCE_SPAN)
    assert layers["compiler.grow_retries"] == 0


def test_pac_loss_is_that_of_the_partition_pac_compile_divides_by():
    case = TINY["pac"][0]
    c = case.circuit()
    _, phases = bench.orchestrator.pac_compile(
        c, bench.arrays.ArraySpec(case.array))
    k = bench.orchestrator.PacOptions().division.k
    assert bench._pac_partition_loss(c) == \
        bench.division.loss(phases.partition, k)


def test_pac_local_phases_are_children_of_pac_compile():
    tracer, _ = _traced("pac")
    pac = [s for s in tracer.spans if s.name == "orchestrator.pac_compile"]
    compiles = [s for s in tracer.spans
                if s.name == "compiler.compile_circuit"]
    assert len(pac) == 1 and len(compiles) == 3
    assert all(s.parent is pac[0] for s in compiles)
    assert sum(s.thread != pac[0].thread for s in compiles) == 2


def test_wrappers_removed_after_traced_run():
    tracer, _ = _traced("pac")
    assert len(tracer.wrapped) >= len(tracing.TARGETS)
    for owner, key, original in tracer.wrapped:
        assert vars(owner)[key] is original, (owner, key)


def test_tracer_wraps_every_binding_while_active():
    import atomc.compiler
    import atomc.orchestrator
    import atomc.smt
    original = atomc.compiler.compile_circuit
    with tracing.Tracer() as tracer:
        places = {(owner, key) for owner, key, _ in tracer.wrapped}
        assert (atomc.orchestrator, "compile_circuit") in places
        assert (atomc.orchestrator, "verify") in places
        assert (atomc.smt.MilpBackend, "check") in places
        assert atomc.orchestrator.compile_circuit is not original
        assert atomc.orchestrator.compile_circuit is \
            atomc.compiler.compile_circuit
    assert atomc.orchestrator.compile_circuit is original


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "direct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
