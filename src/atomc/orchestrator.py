"""End-to-end split-region compilation (the CLI's "pac" mode).

The array splits into two diagonal quadrants and the circuit into two
communities plus cross gates.  Both intra-community sub-circuits compile
independently, in two threads, on their own quadrant, every
local qubit parking in a static trap at the local final stage.  The cross
gates then compile on the full array, inheriting the local outcome: parked
sites are avoided, every active qubit starts at its local final position,
and stage-0 line indices respect the order of the lines each active qubit
last held.

Each phase schedule is lifted from its sub-circuit ids to the original ids
once (`_lift`), and the hand-off works in original ids only.  The two local
stage lists are zipped slot by slot, holding only stages that fire nothing,
with as few firing slots as such an alignment allows; the global phase's
directives are read from the zipped stages, and merging appends the global
stages to them.  The merged depth is max(d1, d2) + d3 whenever the local
sides' firing stages can pair up round by round (see `_zip_local`).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from .arrays import ArraySpec, full_region, split_plane
from .circuits import Circuit
from .compiler import SolverOptions, compile_circuit
from .division import (DivisionOptions, Partition, initial_partition, refine,
                       split_circuit)
from .errors import AtomcError, CompileTimeout, InfeasibleError, MergeError, \
    VerificationError
from .schedule import AOD, SLM, CompileResult, Schedule, Stage
from .verifier import verify, verify_phases


@dataclass(frozen=True)
class PacOptions:
    """Options of one pac compile.

    `division` weighs the division's loss and seeds its first partition.
    `solver` applies to each phase compile on its own: its timeout is the
    budget of each local phase and of the global phase, not of the pac
    compile as a whole.  The two local phases run at once and the global
    phase after them, so a pac compile can run for about twice
    `solver.timeout` (plus division, merge and verify) before it raises.
    """

    division: DivisionOptions = field(default_factory=DivisionOptions)
    solver: SolverOptions = field(default_factory=SolverOptions)


@dataclass
class PhaseResults:
    """The three per-phase compile results plus the division they realize."""

    r1: CompileResult
    r2: CompileResult
    r3: CompileResult
    partition: Partition


@dataclass(frozen=True)
class GlobalDirectives:
    """Hand-off from the local phases to the global one, in the global
    phase's sub-circuit ids (see `split_circuit`).

    init_xy pins every active qubit's global stage-0 position to its local
    final position; avoid_sites holds the sites of the parked resolved
    qubits, which no global-phase qubit may occupy in either trap kind
    (it would stand co-sited with a parked atom that has no gate left to
    fire with it); held maps each active that rode a movable line locally
    to the last (column, row) it held, whose order its stage-0 line
    indices keep (see `Boundary.held`).
    """

    init_xy: dict[int, tuple[int, int]]
    avoid_sites: frozenset[tuple[int, int]]
    held: dict[int, tuple[int, int]]


def _lift(schedule: Schedule, qubits: frozenset[int],
          gates: frozenset[int]) -> list[Stage]:
    """Rewrite a phase schedule from sub-circuit ids to original ids."""
    qubit_ids, gate_ids = sorted(qubits), sorted(gates)
    return [Stage({qubit_ids[q]: st for q, st in stage.states.items()},
                  tuple(gate_ids[g] for g in stage.fired))
            for stage in schedule.stages]


def build_global_constraints(p: Partition,
                             local: Sequence[Stage]) -> GlobalDirectives:
    """Derive the global phase's initial conditions from the zipped local
    stages (original ids): positions from the junction, their last stage,
    and held lines from the last stage each active rode a movable line."""
    junction = local[-1].states
    seen: dict[tuple[int, int], int] = {}
    for q in sorted(junction):
        st = junction[q]
        if (st.x, st.y) in seen:
            raise MergeError(f"qubits {seen[(st.x, st.y)]} and {q} ended the "
                             f"local phases on one site ({st.x},{st.y})")
        seen[(st.x, st.y)] = q

    parked = frozenset((junction[q].x, junction[q].y) for q in p.qr1 | p.qr2)
    init_xy, held = {}, {}
    for i, q in enumerate(sorted(p.qa1 | p.qa2)):
        init_xy[i] = junction[q].x, junction[q].y
        for stage in reversed(local):
            st = stage.states[q]
            if st.a == AOD:
                held[i] = st.c, st.r
                break
    return GlobalDirectives(init_xy, parked, held)


def _zip_local(s1: list[Stage], s2: list[Stage]) -> list[Stage]:
    """Zip two region-disjoint stage lists slot by slot.

    Each slot shows one stage of each side; both sides start at their first
    stage, end at their last, and at each slot at least one side moves on to
    its next stage.  A side may hold a stage for extra slots only if that
    stage fires nothing: a repeated firing stage would leave its co-sited
    pairs unfired while the other side fires.  Among these alignments a
    dynamic program over the two lists picks the one with the fewest firing
    slots, then the fewest slots.  The merged local depth is therefore
    max(d1, d2) whenever the two sides' k-th firing stages can share a slot
    for every k: a side that reaches its k-th firing stage first waits on
    the stage before it, which works unless that stage fires too or there
    is none.  Otherwise it is the least depth any legal alignment has.
    """
    best: dict[tuple[int, int], tuple[int, int]] = {}  # firing slots, slots
    back: dict[tuple[int, int], tuple[int, int] | None] = {}
    for i, st1 in enumerate(s1):
        for j, st2 in enumerate(s2):
            if i == j == 0:
                base, prev = (0, 0), None
            else:
                moves = [(i - 1, j - 1)]
                if not st2.fired:
                    moves.append((i - 1, j))  # side 2 holds stage j
                if not st1.fired:
                    moves.append((i, j - 1))  # side 1 holds stage i
                reached = [(best[m], m) for m in moves if m in best]
                if not reached:
                    continue
                base, prev = min(reached)
            best[i, j] = (base[0] + bool(st1.fired or st2.fired), base[1] + 1)
            back[i, j] = prev
    cell = (len(s1) - 1, len(s2) - 1)
    if cell not in best:
        raise MergeError("no alignment of the local phases holds only "
                         "stages that fire nothing")
    slots = []
    while cell is not None:
        slots.append(cell)
        cell = back[cell]
    return [Stage({**s1[i].states, **s2[j].states}, s1[i].fired + s2[j].fired)
            for i, j in reversed(slots)]


def merge(local: list[Stage], pr: PhaseResults) -> Schedule:
    """Append the lifted global stages to the zipped local stages, every
    parked qubit standing at its junction site throughout."""
    p = pr.partition
    junction = local[-1].states
    parked = {}
    for q in sorted(p.qr1 | p.qr2):
        st = junction[q]
        if st.a != SLM:
            raise MergeError(f"resolved qubit {q} not in a static trap at "
                             "the junction")
        parked[q] = st
    s3 = _lift(pr.r3.schedule, p.qa1 | p.qa2, p.e3)
    for q, st3 in s3[0].states.items():
        ju = junction[q]
        if (ju.x, ju.y) != (st3.x, st3.y):
            raise MergeError(
                f"active qubit {q} discontinuity at the junction: "
                f"({ju.x},{ju.y}) vs ({st3.x},{st3.y})")
    return Schedule(list(local) + [Stage({**parked, **stage.states},
                                         stage.fired) for stage in s3])


def _with_phase(exc: Exception, label: str) -> Exception:
    if isinstance(exc, (CompileTimeout, InfeasibleError)) and not exc.phase:
        exc.phase = label
        exc.args = (f"[{label}] {exc.args[0]}",) + exc.args[1:]
    return exc


def pac_compile(c: Circuit, a: ArraySpec,
                opts: PacOptions | None = None
                ) -> tuple[Schedule, PhaseResults]:
    """Divide, compile both quadrants (in parallel), finish globally, merge."""
    opts = opts or PacOptions()
    region1, region2 = split_plane(a)
    if c.num_qubits < 2:
        raise InfeasibleError("need at least 2 qubits to divide")

    partition = refine(c, initial_partition(c, opts.division.seed),
                       opts.division)
    for side, qs, region in ((1, partition.q1, region1),
                             (2, partition.q2, region2)):
        if len(qs) > region.num_sites:
            raise InfeasibleError(
                f"community {side} has {len(qs)} qubits, more than its "
                f"region's {region.num_sites} sites")
    qc1, qc2, qc3 = split_circuit(c, partition)

    def run_local(side: int):
        qc, region = (qc1, region1) if side == 1 else (qc2, region2)
        # every local qubit parks in a static trap at the end: resolved
        # qubits must not occupy lines the global phase may need, and
        # actives ending static give the global phase a line-free start
        park = frozenset(range(qc.num_qubits))
        try:
            return compile_circuit(qc, region, final_stage_slm=park,
                                   opts=opts.solver)
        except AtomcError as exc:
            raise _with_phase(exc, f"local-{side}")

    with ThreadPoolExecutor(max_workers=2) as pool:
        fut1 = pool.submit(run_local, 1)
        fut2 = pool.submit(run_local, 2)
        r1, r2 = fut1.result(), fut2.result()

    local = _zip_local(_lift(r1.schedule, partition.q1, partition.e1),
                       _lift(r2.schedule, partition.q2, partition.e2))
    gd = build_global_constraints(partition, local)
    try:
        r3 = compile_circuit(
            qc3, full_region(a), opts=opts.solver,
            init_xy=gd.init_xy,
            held_lines=gd.held, avoid_sites=gd.avoid_sites)
    except AtomcError as exc:
        raise _with_phase(exc, "global")

    phases = PhaseResults(r1, r2, r3, partition)
    merged = merge(local, phases)
    report = verify(merged, c, a)
    if not report.ok:
        raise VerificationError("merged schedule failed verification", report)
    phase_report = verify_phases(phases, c, a)
    if not phase_report.ok:
        raise VerificationError("phase hand-off failed verification",
                                phase_report)
    return merged, phases
