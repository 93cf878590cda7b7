"""End-to-end split-region compilation (the CLI's "pac" mode).

The array splits into two diagonal quadrants and the circuit into two
communities plus cross gates.  Both intra-community sub-circuits compile
independently, in two threads, on their own quadrant, every
local qubit parking in a static trap at the local final stage.  The cross
gates then compile on the full array, inheriting the local outcome: parked
sites are avoided, every active qubit starts at its local final position,
and stage-0 line indices respect the order of the lines each active qubit
last held.  Merging zips the two local stage lists slot by slot, holding
only stages that fire nothing, with as few firing slots as such an alignment
allows, and appends the global stages.  The merged depth is max(d1, d2) + d3
whenever the local sides' firing stages can pair up round by round (see
`_zip_local`).
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
    """Hand-off from the local phases to the global one.

    init_xy pins every active qubit's global stage-0 position to its local
    final position; avoid_sites holds the sites of the parked resolved
    qubits, which no global-phase qubit may occupy in either trap kind
    (it would stand co-sited with a parked atom that has no gate left to
    fire with it); col_order / row_order keep stage-0 line indices in the
    order of the last lines the actives held locally.
    """

    init_xy: dict[int, tuple[int, int]]
    avoid_sites: frozenset[tuple[int, int]]
    col_order: tuple[tuple[int, int, str], ...]
    row_order: tuple[tuple[int, int, str], ...]


def _local_ids(qubits: frozenset[int]) -> dict[int, int]:
    return {q: i for i, q in enumerate(sorted(qubits))}


def _last_held(schedule: Schedule, local: int) -> tuple[int, int] | None:
    for stage in reversed(schedule.stages):
        st = stage.states.get(local)
        if st is not None and st.a == AOD:
            return st.c, st.r
    return None


def build_global_constraints(p: Partition, r1: CompileResult,
                             r2: CompileResult) -> GlobalDirectives:
    """Derive the global phase's initial conditions from the local finals."""
    map1, map2 = _local_ids(p.q1), _local_ids(p.q2)
    final1 = r1.schedule.stages[-1].states
    final2 = r2.schedule.stages[-1].states

    def final_state(q: int):
        return final1[map1[q]] if q in map1 else final2[map2[q]]

    seen: dict[tuple[int, int], int] = {}
    for q in sorted(p.q1 | p.q2):
        st = final_state(q)
        if (st.x, st.y) in seen:
            raise MergeError(f"qubits {seen[(st.x, st.y)]} and {q} ended the "
                             f"local phases on one site ({st.x},{st.y})")
        seen[(st.x, st.y)] = q

    parked = frozenset((final_state(q).x, final_state(q).y)
                       for q in p.qr1 | p.qr2)
    actives = sorted(p.qa1 | p.qa2)
    init_xy = {q: (final_state(q).x, final_state(q).y) for q in actives}

    held = {}
    for q in actives:
        sched = r1.schedule if q in map1 else r2.schedule
        held[q] = _last_held(sched, map1.get(q, map2.get(q)))
    rel = {1: ">", 0: "=", -1: "<"}
    col_order, row_order = [], []
    for i, u in enumerate(actives):
        if held[u] is None:
            continue
        for v in actives[i + 1:]:
            if held[v] is None:
                continue
            col_order.append((u, v, rel[(held[u][0] > held[v][0])
                                        - (held[u][0] < held[v][0])]))
            row_order.append((u, v, rel[(held[u][1] > held[v][1])
                                        - (held[u][1] < held[v][1])]))
    return GlobalDirectives(init_xy, parked,
                            tuple(col_order), tuple(row_order))


def _remap_schedule(schedule: Schedule, qubit_ids: Sequence[int],
                    gate_ids: Sequence[int]) -> list[Stage]:
    """Rewrite a phase schedule from dense local ids to original ids."""
    out = []
    for stage in schedule.stages:
        states = {qubit_ids[q]: st for q, st in stage.states.items()}
        fired = tuple(gate_ids[g] for g in stage.fired)
        out.append(Stage(states, fired))
    return out


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


def merge(pr: PhaseResults) -> Schedule:
    """Join the three phase schedules into one over the original ids."""
    p = pr.partition
    side1, side2 = sorted(p.q1), sorted(p.q2)
    side3 = sorted(p.qa1 | p.qa2)
    s1 = _remap_schedule(pr.r1.schedule, side1, sorted(p.e1))
    s2 = _remap_schedule(pr.r2.schedule, side2, sorted(p.e2))
    s3 = _remap_schedule(pr.r3.schedule, side3, sorted(p.e3))

    joint = _zip_local(s1, s2)
    junction = joint[-1].states
    parked = {}
    for q in sorted(p.qr1 | p.qr2):
        st = junction[q]
        if st.a != SLM:
            raise MergeError(f"resolved qubit {q} not in a static trap at "
                             "the junction")
        parked[q] = st
    for stage in s3:
        for q in side3:
            st3 = stage.states[q]
            if stage is s3[0]:
                ju = junction[q]
                if (ju.x, ju.y) != (st3.x, st3.y):
                    raise MergeError(
                        f"active qubit {q} discontinuity at the junction: "
                        f"({ju.x},{ju.y}) vs ({st3.x},{st3.y})")
        states = dict(parked)
        states.update(stage.states)
        joint.append(Stage(states, stage.fired))
    return Schedule(joint)


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

    gd = build_global_constraints(partition, r1, r2)
    map3 = _local_ids(partition.qa1 | partition.qa2)
    init_xy = {map3[q]: xy for q, xy in gd.init_xy.items()}
    col_order = tuple((map3[u], map3[v], rel) for u, v, rel in gd.col_order)
    row_order = tuple((map3[u], map3[v], rel) for u, v, rel in gd.row_order)
    try:
        r3 = compile_circuit(
            qc3, full_region(a), opts=opts.solver,
            init_xy=init_xy if init_xy else None,
            stage0_aod_order=(col_order, row_order),
            avoid_sites=gd.avoid_sites)
    except AtomcError as exc:
        raise _with_phase(exc, "global")

    phases = PhaseResults(r1, r2, r3, partition)
    merged = merge(phases)
    report = verify(merged, c, a)
    if not report.ok:
        raise VerificationError("merged schedule failed verification", report)
    phase_report = verify_phases(phases, c, a)
    if not phase_report.ok:
        raise VerificationError("phase hand-off failed verification",
                                phase_report)
    return merged, phases
