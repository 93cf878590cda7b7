"""Workload ladders, per-instance runs with independent output checks, and
the end-to-end metrics.

Every call into atomc goes through its module attribute (for example
``compiler.compile_circuit``), so a tracer that swaps the attribute sees the
call; the untraced run calls the originals directly.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import random
import statistics
import time
from dataclasses import dataclass

from atomc import arrays, circuits, compiler, division, orchestrator, \
    schedule, verifier

# A compile call that runs this long raises CompileTimeout and counts as a
# failure at this wall time.  No ladder compile call takes more than ~8 s.
COMPILE_CAP_S = 30.0

DIVISION = division.DivisionOptions()
INSTANCE_SPAN = "bench.instance"


@dataclass(frozen=True)
class Case:
    """One rand3reg instance on an n x n array (array 0: no array)."""

    qubits: int
    seed: int
    array: int = 0

    @property
    def name(self) -> str:
        where = f"@{self.array}x{self.array}" if self.array else ""
        return f"rand3reg_{self.qubits}_{self.seed}{where}"

    def circuit(self) -> circuits.Circuit:
        return circuits.generate_rand3reg(self.qubits, self.seed)


# Fixed ladders (see README.md for why each instance is there).  The
# workload seed shuffles the order they run in.
LADDERS: dict[str, tuple[Case, ...]] = {
    "direct": (Case(6, 2, 3), Case(6, 3, 3), Case(6, 13, 3)),
    "pac": (Case(12, 1, 8), Case(12, 2, 8), Case(12, 6, 8)),
    "divide": (Case(160, 1), Case(160, 2), Case(160, 3), Case(180, 3),
               Case(200, 2), Case(200, 5)),
}
COMPILE_KINDS = ("direct", "pac")
DIVIDE_KINDS = ("pac", "divide")


@dataclass
class Outcome:
    """What one instance run produced.

    status is "ok" or the name of the exception the program raised; rules
    are the verifier rule ids that exception's report carries.  wrong is
    set when the program returned an output that the benchmark's own checks
    reject.  A failed instance counts its gate count as depth and stages.
    """

    case: Case
    wall_s: float
    status: str = "ok"
    rules: tuple[str, ...] = ()
    depth: int = 0
    stages: int = 0
    solver_calls: int = 0
    loss: float = 0.0
    wrong: str = ""

    @property
    def failed(self) -> bool:
        return self.status != "ok" or bool(self.wrong)

    def counts(self) -> tuple:
        return (self.status, self.rules, self.depth, self.stages,
                self.solver_calls, self.loss, self.wrong)


def _rules(report) -> tuple[str, ...]:
    return tuple(sorted({v.rule for v in report.violations}))


def _check_schedule(sched, c, n: int, mode: str) -> str:
    """'' when the schedule verifies and survives a JSON round trip."""
    report = verifier.verify(sched, c, arrays.ArraySpec(n))
    if not report.ok:
        return "verify " + ",".join(_rules(report))
    digest = c.digest()
    text = schedule.schedule_to_json(
        sched, circuit_name=c.name, circuit_digest=digest,
        num_qubits=c.num_qubits, num_gates=c.num_gates, array=n, mode=mode)
    back, meta = schedule.schedule_from_json(text)
    if (back.stages != sched.stages or meta["array"] != n
            or meta["circuit"]["sha256"] != digest or meta["mode"] != mode):
        return "json round trip"
    return ""


def _check_partition(c, start, p, parts) -> str:
    """'' when the refined partition and the split are consistent."""
    everyone = frozenset(range(c.num_qubits))
    if p.q1 & p.q2 or p.q1 | p.q2 != everyone \
            or abs(len(p.q1) - len(p.q2)) > 1:
        return "unbalanced partition"
    cross = {i for i, (u, v) in enumerate(c.gates)
             if (u in p.q1) != (v in p.q1)}
    if cross != set(p.e3):
        return "cross gate set"
    if sum(part.num_gates for part in parts) != c.num_gates:
        return "split loses gates"
    if division.loss(p, DIVISION.k) > division.loss(start, DIVISION.k):
        return "refine raised the loss"
    return ""


def _pac_partition_loss(c) -> float:
    """Loss of the partition pac_compile divides by (its default options).

    A failed pac_compile returns no partition, so the loss of every pac
    instance is recomputed here, after the timed and traced passes."""
    opts = orchestrator.PacOptions().division
    p = division.refine(c, division.initial_partition(c, opts.seed), opts)
    return division.loss(p, opts.k)


def _failure(case: Case, c, wall: float, exc: Exception) -> Outcome:
    report = getattr(exc, "report", None)
    return Outcome(case, wall, status=type(exc).__name__,
                   rules=_rules(report) if report is not None else (),
                   depth=c.num_gates, stages=c.num_gates,
                   solver_calls=getattr(exc, "solver_calls", 0))


def _compile(kind: str, case: Case, c) -> Outcome:
    opts = compiler.SolverOptions(timeout=COMPILE_CAP_S)
    a = arrays.ArraySpec(case.array)
    t0 = time.perf_counter()
    try:
        if kind == "pac":
            merged, phases = orchestrator.pac_compile(
                c, a, orchestrator.PacOptions(solver=opts))
        else:
            res = compiler.compile_circuit(c, arrays.full_region(a),
                                           opts=opts)
    except Exception as exc:  # the program failed this instance; record it
        return _failure(case, c, time.perf_counter() - t0, exc)
    wall = time.perf_counter() - t0
    if kind == "pac":
        out = Outcome(case, wall, depth=merged.depth,
                      stages=len(merged.stages),
                      solver_calls=sum(r.solver_calls for r in
                                       (phases.r1, phases.r2, phases.r3)))
        out.wrong = _check_schedule(merged, c, case.array, kind)
        if not out.wrong:
            report = verifier.verify_phases(phases, c, a)
            if not report.ok:
                out.wrong = "verify_phases " + ",".join(_rules(report))
        return out
    out = Outcome(case, wall, depth=res.schedule.depth,
                  stages=len(res.schedule.stages),
                  solver_calls=res.solver_calls)
    out.wrong = _check_schedule(res.schedule, c, case.array, kind)
    return out


def _divide(case: Case, c) -> Outcome:
    start = division.initial_partition(c, DIVISION.seed)
    t0 = time.perf_counter()
    p = division.refine(c, start, DIVISION)
    parts = division.split_circuit(c, p)
    wall = time.perf_counter() - t0
    return Outcome(case, wall, loss=division.loss(p, DIVISION.k),
                   wrong=_check_partition(c, start, p, parts))


def warm_up(kind: str) -> None:
    """Pay the lazy scipy.optimize import and the first HiGHS call before a
    compile is timed (set-up is measured on its own, as setup_s)."""
    if kind in COMPILE_KINDS:
        compiler.compile_circuit(circuits.Circuit(2, ((0, 1),)),
                                 arrays.full_region(arrays.ArraySpec(2)))


def run_case(kind: str, case: Case, tracer=None) -> Outcome:
    """Run one instance; with a tracer, inside an instance root span.

    Garbage left by the previous instance is collected first, so that its
    collection is not timed here."""
    c = case.circuit()
    gc.collect()
    span = contextlib.nullcontext()
    if tracer is not None:
        tracer.instance = case.name
        span = tracer.span(INSTANCE_SPAN)
    with span:
        return _divide(case, c) if kind == "divide" else _compile(kind, case, c)


def run_cycle(kind: str, cases, seconds: float, rng: random.Random
              ) -> list[Outcome]:
    """Cycle through the ladder in a seeded order until the next instance
    would end after `seconds` (judged by its previous wall); every instance
    runs at least once."""
    order = list(cases)
    rng.shuffle(order)
    outcomes: list[Outcome] = []
    last: dict[Case, float] = {}
    t0 = time.perf_counter()
    for i in itertools.count():
        case = order[i % len(order)]
        if case in last and time.perf_counter() - t0 + last[case] > seconds:
            return outcomes
        outcomes.append(run_case(kind, case))
        last[case] = outcomes[-1].wall_s


def summarize(kind: str, outcomes: list[Outcome]
              ) -> tuple[list[Outcome], dict[str, float], list[str]]:
    """Per-instance rows (mean wall over the instance's runs), the
    end-to-end sums, and a list of problems (outputs rejected, counts that
    did not repeat).

    The mean, not the median: on a shared host whose speed flips between
    two levels every few seconds, the median of an instance's two to five
    runs jumps between the levels, while the mean follows the share of the
    run spent at each."""
    by_case: dict[str, list[Outcome]] = {}
    for o in outcomes:
        by_case.setdefault(o.case.name, []).append(o)
    rows: list[Outcome] = []
    problems: list[str] = []
    for name in sorted(by_case):
        runs = by_case[name]
        first = runs[0]
        if any(o.counts() != first.counts() for o in runs[1:]):
            problems.append(f"{name}: results differ between runs")
        if first.wrong:
            problems.append(f"{name}: {first.wrong}")
        row = Outcome(first.case, statistics.fmean(o.wall_s for o in runs),
                      *first.counts())
        if kind == "pac":
            row.loss = _pac_partition_loss(row.case.circuit())
        rows.append(row)
    m = {"wall_s": sum(r.wall_s for r in rows),
         "fail_share": sum(r.failed for r in rows) / len(rows)}
    if kind in COMPILE_KINDS:
        m["depth_sum"] = sum(r.depth for r in rows)
        m["stages_sum"] = sum(r.stages for r in rows)
        m["solver_calls"] = sum(r.solver_calls for r in rows)
    if kind in DIVIDE_KINDS:
        m["cut_loss"] = sum(r.loss for r in rows)
    return rows, m, problems
