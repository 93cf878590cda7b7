"""End-to-end split-region compilation (the CLI's "pac" mode).

The array splits into two diagonal quadrants and the circuit into two
communities plus cross gates.  Both intra-community sub-circuits compile
independently, in two threads, on their own quadrant, every
local qubit parking in a static trap at the local final stage.  The cross
gates then compile on the full array, inheriting the local outcome: parked
sites are avoided, every active qubit starts at its local final position,
and stage-0 line indices respect the order of the lines each active qubit
last held.  Merging zips the two local stage lists firing-round by
firing-round (padding with stages that fire nothing) and appends the global
stages, so the merged depth is exactly max(d1, d2) + d3.
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


def _blocks(stages: Sequence[Stage]) -> tuple[list[list[Stage]], list[Stage]]:
    """Split into firing rounds (each ends with its firing stage) and the
    movement-only tail."""
    rounds: list[list[Stage]] = []
    cur: list[Stage] = []
    for st in stages:
        cur.append(st)
        if st.fired:
            rounds.append(cur)
            cur = []
    return rounds, cur


def _timeline(stages: list[Stage], lengths: Sequence[int]) -> list[Stage]:
    """One side's stages, slot by slot, with round k stretched to lengths[k].

    A side never repeats a firing stage, since its co-sited pairs would sit
    unfired while the other side fires.  A round pads in front by repeating
    its first stage, which fires nothing when the round has more than one
    stage.  In the rounds a side sits out it runs its movement-only tail
    (the separating and parking stages) and then repeats its final stage,
    where every qubit is parked apart.  The one case with no legal pad is a
    one-stage round that waits for a longer round on the other side: its pad
    holds a firing stage's positions without firing, and the merged
    verification rejects the schedule.
    """
    rounds, tail = _blocks(stages)
    out: list[Stage] = []
    for k, n in enumerate(lengths):
        if k < len(rounds):
            blk = rounds[k]
            pad = out[-1] if len(blk) == 1 and out else blk[0]
            out.extend([Stage(pad.states)] * (n - len(blk)) + blk)
        else:
            run, tail = tail[:n], tail[n:]
            out.extend(run + [Stage(stages[-1].states)] * (n - len(run)))
    return out + tail


def _zip_local(s1: list[Stage], s2: list[Stage]) -> list[Stage]:
    """Zip two region-disjoint stage lists, aligning firing rounds.

    The k-th firing stages coincide, so the joint depth is max(d1, d2); see
    `_timeline` for how each side fills the slots it does not fire in.  The
    shorter timeline ends by repeating its final stage.
    """
    rounds1, rounds2 = _blocks(s1)[0], _blocks(s2)[0]
    lengths = [max(len(r[k]) if k < len(r) else 0 for r in (rounds1, rounds2))
               for k in range(max(len(rounds1), len(rounds2)))]
    t1, t2 = _timeline(s1, lengths), _timeline(s2, lengths)
    n = max(len(t1), len(t2))
    t1 += [Stage(s1[-1].states)] * (n - len(t1))
    t2 += [Stage(s2[-1].states)] * (n - len(t2))
    return [Stage({**a.states, **b.states}, a.fired + b.fired)
            for a, b in zip(t1, t2)]


def merge(pr: PhaseResults) -> Schedule:
    """Join the three phase schedules into one over the original ids."""
    p = pr.partition
    side1, side2 = sorted(p.q1), sorted(p.q2)
    side3 = sorted(p.qa1 | p.qa2)
    s1 = _remap_schedule(pr.r1.schedule, side1, sorted(p.e1))
    s2 = _remap_schedule(pr.r2.schedule, side2, sorted(p.e2))
    s3 = _remap_schedule(pr.r3.schedule, side3, sorted(p.e3))

    joint = _zip_local(s1, s2)
    if not joint:
        return Schedule(list(s3))
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
