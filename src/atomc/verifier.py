"""Independent schedule validation against the circuit and array physics.

This module re-derives every rule from the hardware model (it shares no code
with the constraint encoder): site bounds, static-trap stationarity, rigid
line movement, line non-crossing and order continuity, trap occupancy, gate
co-siting, blockade isolation, and exact-once gate coverage.  It is the
acceptance oracle for every compiled artifact; the compiler self-checks its
output here and a disagreement is a build-failing event.

Rule ids: C1..C8 as above, "coherence" for malformed state sets, and E2/E3/
E4/E5 for the phase hand-off rules checked by verify_phases (local parking,
reserved parked sites, position inheritance, line-order inheritance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .arrays import ArraySpec, Region, full_region, split_plane
from .circuits import Circuit
from .division import split_circuit
from .schedule import AOD, SLM, QubitState, Schedule, Stage

if TYPE_CHECKING:  # pragma: no cover
    from .orchestrator import PhaseResults


@dataclass(frozen=True)
class Violation:
    stage: int | None
    rule: str
    detail: str


@dataclass
class VerifierReport:
    ok: bool
    violations: list[Violation]

    def by_rule(self, rule: str) -> list[Violation]:
        return [v for v in self.violations if v.rule == rule]


def _sign(a: int, b: int) -> int:
    return (a > b) - (a < b)


def verify(s: Schedule, c: Circuit, a: ArraySpec | None = None,
           scope: Region | None = None) -> VerifierReport:
    """Check a schedule against the circuit on the given scope.

    `scope` defaults to the whole array; violations are data, not errors.
    """
    if scope is None:
        if a is None:
            raise ValueError("need an array or an explicit region scope")
        scope = full_region(a)
    out: list[Violation] = []
    expected_qubits = set(range(c.num_qubits))

    # C8: every gate fired exactly once, ids valid
    fired_all: list[int] = []
    for stage in s.stages:
        fired_all.extend(stage.fired)
    valid = set(range(c.num_gates))
    for g in sorted(set(fired_all)):
        if g not in valid:
            out.append(Violation(None, "C8", f"unknown gate id {g}"))
        elif fired_all.count(g) > 1:
            out.append(Violation(None, "C8", f"gate {g} fired "
                                 f"{fired_all.count(g)} times"))
    for g in sorted(valid - set(fired_all)):
        out.append(Violation(None, "C8", f"gate {g} never fired"))

    for t, stage in enumerate(s.stages):
        _check_stage(out, t, stage, c, scope, expected_qubits)
    for t in range(len(s.stages) - 1):
        _check_transition(out, t, s.stages[t], s.stages[t + 1])

    return VerifierReport(ok=not out, violations=out)


def _check_stage(out, t, stage: Stage, c: Circuit, scope: Region,
                 expected_qubits: set[int]) -> None:
    states = stage.states
    if set(states) != expected_qubits:
        missing = expected_qubits - set(states)
        extra = set(states) - expected_qubits
        out.append(Violation(t, "coherence",
                             f"state set mismatch (missing {sorted(missing)}, "
                             f"extra {sorted(extra)})"))

    for q in sorted(states):
        st = states[q]
        if st.x not in scope.x_range or st.y not in scope.y_range:
            out.append(Violation(t, "C1", f"qubit {q} at ({st.x},{st.y}) "
                                 "outside the region"))
        if st.a == AOD and (st.c not in scope.x_range
                            or st.r not in scope.y_range):
            out.append(Violation(t, "C1", f"qubit {q} on line ({st.c},{st.r}) "
                                 "not owned by the region"))

    aod = [(q, states[q]) for q in sorted(states) if states[q].a == AOD]
    for i, (u, su) in enumerate(aod):
        for v, sv in aod[i + 1:]:
            if su.c == sv.c and su.x != sv.x:
                out.append(Violation(t, "C3", f"qubits {u},{v} share column "
                                     f"{su.c} but x {su.x} != {sv.x}"))
            if su.r == sv.r and su.y != sv.y:
                out.append(Violation(t, "C3", f"qubits {u},{v} share row "
                                     f"{su.r} but y {su.y} != {sv.y}"))
            if (su.c - sv.c) * (su.x - sv.x) < 0:
                out.append(Violation(t, "C4", f"qubits {u},{v} column order "
                                     "contradicts x order"))
            if (su.r - sv.r) * (su.y - sv.y) < 0:
                out.append(Violation(t, "C4", f"qubits {u},{v} row order "
                                     "contradicts y order"))
            if su.c == sv.c and su.r == sv.r:
                out.append(Violation(t, "C5", f"qubits {u},{v} occupy one "
                                     f"movable trap ({su.c},{su.r})"))

    firing_pairs: set[frozenset[int]] = set()
    for g in stage.fired:
        if g not in range(c.num_gates):
            continue  # already a C8 violation
        u, v = c.gates[g]
        su, sv = states.get(u), states.get(v)
        if su is None or sv is None:
            out.append(Violation(t, "C6", f"gate {g} endpoint missing"))
            continue
        if (su.x, su.y) != (sv.x, sv.y):
            out.append(Violation(t, "C6", f"gate {g} endpoints {u},{v} not "
                                 "co-sited"))
        firing_pairs.add(frozenset((u, v)))

    by_site: dict[tuple[int, int], list[int]] = {}
    for q in sorted(states):
        by_site.setdefault((states[q].x, states[q].y), []).append(q)
    for site, occupants in sorted(by_site.items()):
        if len(occupants) == 1:
            continue
        if len(occupants) == 2:
            u, v = occupants
            if states[u].a == states[v].a == SLM:
                # a site has one static trap, firing or not
                out.append(Violation(t, "C5", f"qubits {u},{v} share the "
                                     f"static trap at {site}"))
            elif frozenset((u, v)) in firing_pairs:
                pass  # co-siting blessed by the fired gate
            elif states[u].a == states[v].a:
                out.append(Violation(t, "C5", f"qubits {u},{v} share the "
                                     f"movable traps at {site} without "
                                     "firing"))
            else:
                out.append(Violation(t, "C7", f"qubits {u},{v} co-sited at "
                                     f"{site} without firing a gate"))
        else:
            out.append(Violation(t, "C7", f"{len(occupants)} qubits "
                                 f"{occupants} share site {site}"))


def _check_transition(out, t, here: Stage, there: Stage) -> None:
    shared = sorted(set(here.states) & set(there.states))
    for q in shared:
        a0, a1 = here.states[q], there.states[q]
        if a0.a == SLM and (a0.x, a0.y) != (a1.x, a1.y):
            out.append(Violation(t, "C2", f"statically trapped qubit {q} "
                                 f"moved ({a0.x},{a0.y}) -> ({a1.x},{a1.y})"))
    aod_now = [q for q in shared if here.states[q].a == AOD]
    for i, u in enumerate(aod_now):
        su0, su1 = here.states[u], there.states[u]
        for v in aod_now[i + 1:]:
            sv0, sv1 = here.states[v], there.states[v]
            if su0.c == sv0.c and su1.x != sv1.x:
                out.append(Violation(t, "C3", f"qubits {u},{v} rode column "
                                     f"{su0.c} to different x"))
            if su0.r == sv0.r and su1.y != sv1.y:
                out.append(Violation(t, "C3", f"qubits {u},{v} rode row "
                                     f"{su0.r} to different y"))
            if (su0.c - sv0.c) * (su1.x - sv1.x) < 0:
                out.append(Violation(t, "C4", f"columns of {u},{v} crossed "
                                     "during the move"))
            if (su0.r - sv0.r) * (su1.y - sv1.y) < 0:
                out.append(Violation(t, "C4", f"rows of {u},{v} crossed "
                                     "during the move"))
            if su1.a == AOD and sv1.a == AOD:
                if _sign(su0.c, sv0.c) != _sign(su1.c, sv1.c):
                    out.append(Violation(t, "C4", f"column order of {u},{v} "
                                         "not preserved across the stage"))
                if _sign(su0.r, sv0.r) != _sign(su1.r, sv1.r):
                    out.append(Violation(t, "C4", f"row order of {u},{v} "
                                         "not preserved across the stage"))


def _original(states: Mapping[int, QubitState], qubits: frozenset[int]
              ) -> dict[int, QubitState]:
    """A phase's states keyed by original id: the phase numbers `qubits`
    0, 1, ... in increasing original order."""
    return {q: states[i] for i, q in enumerate(sorted(qubits)) if i in states}


def _held_lines(schedule: Schedule, qubits: frozenset[int]
                ) -> dict[int, tuple[int, int]]:
    """Original id -> the (column, row) that qubit last held in a phase
    over `qubits`."""
    held = {}
    for stage in schedule.stages:
        for q, st in _original(stage.states, qubits).items():
            if st.a == AOD:
                held[q] = st.c, st.r
    return held


def verify_phases(phases: "PhaseResults", c: Circuit,
                  a: ArraySpec) -> VerifierReport:
    """Validate the phase artifacts and their hand-off rules.

    Beyond re-verifying each phase on its own scope, this checks: both sides
    parked fully in static traps at their final stage (E2), no shared-phase
    static placement on a parked site (E3), shared-phase start positions
    equal to the local final positions (E4), and line-index order at the
    shared-phase start consistent with the last lines each active qubit held
    locally (E5).
    """
    p = phases.partition
    out: list[Violation] = []
    region1, region2 = split_plane(a)
    qc1, qc2, qc3 = split_circuit(c, p)

    for label, res, qc, region in (("local-1", phases.r1, qc1, region1),
                                   ("local-2", phases.r2, qc2, region2)):
        rep = verify(res.schedule, qc, a, scope=region)
        out.extend(Violation(v.stage, v.rule, f"{label}: {v.detail}")
                   for v in rep.violations)
    rep3 = verify(phases.r3.schedule, qc3, a)
    out.extend(Violation(v.stage, v.rule, f"global: {v.detail}")
               for v in rep3.violations)

    final = {**_original(phases.r1.schedule.stages[-1].states, p.q1),
             **_original(phases.r2.schedule.stages[-1].states, p.q2)}
    for label, side in (("local-1", p.q1), ("local-2", p.q2)):
        for q in sorted(side):
            st = final.get(q)
            if st is None or st.a != SLM:
                out.append(Violation(None, "E2",
                                     f"{label}: qubit {q} not parked in a "
                                     "static trap at the final stage"))

    positions = {}
    for q, st in sorted(final.items()):
        if (st.x, st.y) in positions:
            out.append(Violation(None, "E2", f"qubits {positions[(st.x, st.y)]}"
                                 f",{q} parked on one site ({st.x},{st.y})"))
        positions[(st.x, st.y)] = q

    parked = {(final[q].x, final[q].y) for q in p.qr1 | p.qr2 if q in final}
    for t, stage in enumerate(phases.r3.schedule.stages):
        for local in sorted(stage.states):
            st = stage.states[local]
            if st.a == SLM and (st.x, st.y) in parked:
                out.append(Violation(t, "E3", f"global: qubit in a static "
                                     f"trap on parked site ({st.x},{st.y})"))

    actives = sorted(p.qa1 | p.qa2)
    if actives and phases.r3.schedule.stages:
        start = _original(phases.r3.schedule.stages[0].states,
                          p.qa1 | p.qa2)
        for q in actives:
            st_local, st3 = final.get(q), start.get(q)
            if (st_local is None or st3 is None
                    or (st3.x, st3.y) != (st_local.x, st_local.y)):
                out.append(Violation(0, "E4", f"active qubit {q} starts the "
                                     "global phase away from its local final "
                                     "position"))
        held = {**_held_lines(phases.r1.schedule, p.q1),
                **_held_lines(phases.r2.schedule, p.q2)}
        for i, u in enumerate(actives):
            su = start.get(u)
            for v in actives[i + 1:]:
                sv = start.get(v)
                if (su is None or sv is None or su.a != AOD or sv.a != AOD
                        or u not in held or v not in held):
                    continue
                if _sign(su.c, sv.c) != _sign(held[u][0], held[v][0]):
                    out.append(Violation(0, "E5", f"column order of {u},{v} "
                                         "does not match the last held lines"))
                if _sign(su.r, sv.r) != _sign(held[u][1], held[v][1]):
                    out.append(Violation(0, "E5", f"row order of {u},{v} "
                                         "does not match the last held lines"))

    return VerifierReport(ok=not out, violations=out)
