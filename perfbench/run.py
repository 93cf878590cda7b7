"""atomc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload direct --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.  With
--trace 0 the run measures end-to-end metrics with no tracing; with
--trace 1 it makes one untraced and one traced pass and reports per-layer
metrics.  Earlier stdout lines are a readable report (host record, one row
per instance, every end-to-end metric); the last line is the JSON result.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3

# Fresh-process set-up: import atomc, then one warm-up compile of a 1-gate
# circuit on 2x2, which pays the lazy scipy.optimize import.
PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import atomc
from atomc.compiler import compile_circuit
compile_circuit(atomc.Circuit(2, ((0, 1),)), atomc.full_region(atomc.ArraySpec(2)))
print(time.perf_counter() - t0)
"""

# name -> unit of every end-to-end metric the report prints
REPORT_UNITS = {
    "wall_s": "s", "depth_sum": "stages", "stages_sum": "stages",
    "solver_calls": "count", "cut_loss": "loss", "fail_share": "ratio",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def _import_program():
    if not (SRC / "atomc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'atomc'}")
    sys.path.insert(0, str(SRC))
    import atomc
    if Path(atomc.__file__).resolve().parent != SRC / "atomc":
        sys.exit(f"perfbench: atomc imported from {atomc.__file__}, "
                 f"not from {SRC}")


def setup_seconds() -> float:
    """Median set-up time over fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python job that does not touch atomc; it
    moves only with the host, so it tells a drifted host from a slow PR."""
    t0 = time.perf_counter()
    rng = random.Random(0)
    sorted(rng.random() for _ in range(300_000))
    return time.perf_counter() - t0


def host_record() -> dict:
    import networkx
    import numpy
    import scipy
    return {"loadavg": [round(x, 2) for x in os.getloadavg()],
            "ref_s": round(reference_seconds(), 4),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "networkx": networkx.__version__}


def _print_rows(workload: str, rows) -> None:
    import bench
    compiles = workload in bench.COMPILE_KINDS
    divides = workload in bench.DIVIDE_KINDS
    print(f"{'instance':<22}{'wall_s':>9}{'depth':>7}{'stages':>8}"
          f"{'calls':>7}{'loss':>7}  status")
    for r in rows:
        status = r.status + (f" [{','.join(r.rules)}]" if r.rules else "")
        if r.wrong:
            status += f" WRONG: {r.wrong}"
        cells = [r.depth, r.stages, r.solver_calls] if compiles else ["-"] * 3
        loss = f"{r.loss:g}" if divides else "-"
        print(f"{r.case.name:<22}{r.wall_s:>9.3f}{cells[0]:>7}{cells[1]:>8}"
              f"{cells[2]:>7}{loss:>7}  {status}")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            cases=None) -> dict:
    """Run one workload; returns the result with every metric it computed.

    Prints the readable report; the caller prints the JSON line.
    """
    import bench

    cases = tuple(cases or bench.LADDERS[workload])
    rng = random.Random(seed)
    print(f"perfbench {workload} seed={seed} trace={int(trace)}")
    setup = None if trace else setup_seconds()
    bench.warm_up(workload)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if trace:
        outcomes, layers = _traced_passes(workload, seed, cases, rng)
    else:
        outcomes = bench.run_cycle(workload, cases, seconds, rng)
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("host " + json.dumps(host_record() | {
        "cpu_s": round(cpu, 3), "wall_s": round(wall, 3),
        "instance_runs": len(outcomes)}))
    rows, m, problems = bench.summarize(workload, outcomes)
    if not trace:
        m["setup_s"] = setup
        m["peak_rss_mb"] = peak_rss_mb
        _print_rows(workload, rows)
        for name, unit in REPORT_UNITS.items():
            value = f"{m[name]:.6g}" if name in m else "n/a"
            print(f"{name:<14}{value:>12} {unit}")
    for p in problems:
        print("PROBLEM " + p)
    return {"correct": not problems, "attempted": len(rows),
            "failed": sum(r.failed for r in rows),
            "metrics": layers if trace else m}


def _traced_passes(workload: str, seed: int, cases, rng: random.Random):
    """One untraced pass, then the same order traced; returns the outcomes
    of both and the per-layer metrics, and writes the spans out."""
    import bench
    import tracing

    order = list(cases)
    rng.shuffle(order)
    untraced = [bench.run_case(workload, c) for c in order]
    tracer = tracing.Tracer()
    with tracer:
        traced = [bench.run_case(workload, c, tracer) for c in order]
    layers = tracing.layer_metrics(tracer.spans, bench.INSTANCE_SPAN)
    layers["trace.overhead_s"] = (sum(o.wall_s for o in traced)
                                  - sum(o.wall_s for o in untraced))
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{workload}-{seed}.json").write_text(
        json.dumps([s.to_json() for s in tracer.spans]))
    return untraced + traced, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("direct", "pac", "divide"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_program()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(json.dumps(result_line(result, spec, bool(args.trace))))
    return 0


def result_line(result: dict, spec: dict, trace: bool) -> dict:
    """The JSON result: exactly the metrics BENCHMARK.json declares for this
    mode, each with its declared unit."""
    declared = spec["per_layer" if trace else "end_to_end"]
    values = result["metrics"]
    return result | {"metrics": {d["name"]: {"value": values[d["name"]],
                                             "unit": d["unit"]}
                                 for d in declared}}


if __name__ == "__main__":
    sys.exit(main())
