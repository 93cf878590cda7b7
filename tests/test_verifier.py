"""Mutation tests: perturb a valid schedule, expect the specific rule."""

import itertools
from dataclasses import replace

import pytest

from atomc.arrays import ArraySpec, full_region, split_plane
from atomc.circuits import Circuit
from atomc.compiler import compile_circuit
from atomc.orchestrator import pac_compile
from atomc.schedule import AOD, SLM, QubitState, Schedule, Stage
from atomc.verifier import verify, verify_phases

A = ArraySpec(2)
K4 = Circuit(4, tuple(itertools.combinations(range(4), 2)), name="k4")
# whenever (1, 2) fires, qubits 0 and 3 are idle
PATH = Circuit(4, ((0, 1), (1, 2), (2, 3)), name="path")
TWO_TRIANGLES = Circuit(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                            (2, 3)), name="two-triangles")


@pytest.fixture(scope="module")
def k4():
    return compile_circuit(K4, full_region(A)).schedule


@pytest.fixture(scope="module")
def path():
    return compile_circuit(PATH, full_region(A)).schedule


@pytest.fixture(scope="module")
def two_triangles():
    return pac_compile(TWO_TRIANGLES, ArraySpec(4))[1]


def _set(s: Schedule, t: int, q: int, st: QubitState | None) -> Schedule:
    """Copy of s with qubit q's state at stage t replaced (None drops it)."""
    stages = list(s.stages)
    states = dict(stages[t].states)
    if st is None:
        del states[q]
    else:
        states[q] = st
    stages[t] = Stage(states, stages[t].fired)
    return Schedule(stages)


def _idle_pair(s: Schedule, c: Circuit) -> tuple[int, int, int]:
    """(stage, u, v): two qubits that fire nothing there, on distinct sites."""
    for t, stage in enumerate(s.stages):
        busy = {q for g in stage.fired for q in c.gates[g]}
        idle = [q for q in sorted(stage.states) if q not in busy]
        if len(idle) >= 2:
            return t, idle[0], idle[1]
    raise AssertionError("no stage with two idle qubits")


def _first_firing(s: Schedule, c: Circuit) -> tuple[int, int]:
    """(stage, gate) of the first fired gate."""
    for t, stage in enumerate(s.stages):
        if stage.fired:
            return t, stage.fired[0]
    raise AssertionError("nothing fired")


def _rules(s: Schedule, c: Circuit = K4) -> set[str]:
    return {v.rule for v in verify(s, c, A).violations}


def test_compiled_schedule_is_clean(k4):
    assert verify(k4, K4, A).ok


def test_c1_site_outside_region(k4):
    st = k4.stages[0].states[0]
    assert "C1" in _rules(_set(k4, 0, 0, replace(st, x=A.n)))


def test_c1_line_outside_region(k4):
    st = k4.stages[0].states[0]
    bad = QubitState(x=st.x, y=st.y, a=AOD, c=A.n, r=0)
    assert "C1" in _rules(_set(k4, 0, 0, bad))


def test_c3_shared_column_at_two_x(path):
    t, u, v = _idle_pair(path, PATH)
    su, sv = path.stages[t].states[u], path.stages[t].states[v]
    assert (su.x, su.y) != (sv.x, sv.y)
    # one column, two rows: the column must then hold one x
    x_u, x_v = (su.x, sv.x) if su.x != sv.x else (su.x, 1 - su.x)
    s = _set(path, t, u, QubitState(x=x_u, y=su.y, a=AOD, c=0, r=0))
    s = _set(s, t, v, QubitState(x=x_v, y=sv.y, a=AOD, c=0, r=1))
    c3 = verify(s, PATH, A).by_rule("C3")
    assert any("share column 0 but x" in x.detail for x in c3)


def test_c5_two_static_traps_on_one_site(path):
    t, u, v = _idle_pair(path, PATH)
    su = path.stages[t].states[u]
    s = _set(path, t, u, QubitState(x=su.x, y=su.y, a=SLM))
    s = _set(s, t, v, QubitState(x=su.x, y=su.y, a=SLM))
    assert "C5" in _rules(s, PATH)


def test_c5_firing_pair_in_two_static_traps(k4):
    # a site has one static trap, so even a firing pair needs a movable one
    t, g = _first_firing(k4, K4)
    u, v = K4.gates[g]
    su = k4.stages[t].states[u]
    s = _set(k4, t, u, QubitState(x=su.x, y=su.y, a=SLM))
    s = _set(s, t, v, QubitState(x=su.x, y=su.y, a=SLM))
    c5 = verify(s, K4, A).by_rule("C5")
    assert any(f"qubits {min(u, v)},{max(u, v)} share the static trap"
               in x.detail for x in c5)


def test_c5_one_movable_trap_for_two_qubits(path):
    t, u, v = _idle_pair(path, PATH)
    su = path.stages[t].states[u]
    s = _set(path, t, u, QubitState(x=su.x, y=su.y, a=AOD, c=0, r=0))
    s = _set(s, t, v, QubitState(x=su.x, y=su.y, a=AOD, c=0, r=0))
    assert "C5" in _rules(s, PATH)


def test_c6_gate_fired_apart(k4):
    t, g = _first_firing(k4, K4)
    u, v = K4.gates[g]
    su = k4.stages[t].states[u]
    moved = QubitState(x=1 - su.x, y=su.y, a=SLM)
    assert "C6" in _rules(_set(k4, t, v, moved))


def test_c7_mixed_traps_co_sited_without_firing(path):
    t, u, v = _idle_pair(path, PATH)
    su = path.stages[t].states[u]
    s = _set(path, t, u, QubitState(x=su.x, y=su.y, a=SLM))
    s = _set(s, t, v, QubitState(x=su.x, y=su.y, a=AOD, c=0, r=0))
    assert "C7" in _rules(s, PATH)


def test_c8_gate_never_fired(k4):
    t, g = _first_firing(k4, K4)
    stages = list(k4.stages)
    stages[t] = Stage(stages[t].states,
                      tuple(x for x in stages[t].fired if x != g))
    details = [v.detail for v in verify(Schedule(stages), K4, A).by_rule("C8")]
    assert f"gate {g} never fired" in details


def test_c8_gate_fired_twice(k4):
    t, g = _first_firing(k4, K4)
    stages = list(k4.stages)
    stages[-1] = Stage(stages[-1].states, stages[-1].fired + (g,))
    details = [v.detail for v in verify(Schedule(stages), K4, A).by_rule("C8")]
    assert f"gate {g} fired 2 times" in details


def test_c8_unknown_gate_id(k4):
    stages = list(k4.stages)
    stages[-1] = Stage(stages[-1].states, stages[-1].fired + (K4.num_gates,))
    details = [v.detail for v in verify(Schedule(stages), K4, A).by_rule("C8")]
    assert f"unknown gate id {K4.num_gates}" in details


# gate -1 would read as gates[-1], (2, 3), if ids counted from the end
TWO_PAIRS = Circuit(4, ((0, 1), (2, 3)), name="two-pairs")


def _fires_minus_one(site3: tuple[int, int]) -> list:
    """The violations of one stage that fires gates 0 and -1 of TWO_PAIRS:
    0 and 1 fire on one site, 2 stands at (2, 2) in a movable trap and 3
    in a static trap at `site3`."""
    stage = Stage({0: QubitState(x=0, y=0, a=AOD, c=0, r=0),
                   1: QubitState(x=0, y=0, a=SLM),
                   2: QubitState(x=2, y=2, a=AOD, c=2, r=2),
                   3: QubitState(x=site3[0], y=site3[1], a=SLM)}, (0, -1))
    return verify(Schedule([stage]), TWO_PAIRS, ArraySpec(3)).violations


@pytest.mark.parametrize("site3,rule,detail", [
    ((2, 2), "C7", "qubits 2,3 co-sited at (2, 2) without firing a gate"),
    ((1, 1), "C8", "unknown gate id -1")], ids=["co-sited", "apart"])
def test_a_negative_gate_id_is_only_unknown(site3, rule, detail):
    # gate 1, (2, 3), does not fire: its co-sited pair breaks C7, and apart
    # the pair breaks nothing, not C6 as gate -1's endpoints
    found = {(v.rule, v.detail) for v in _fires_minus_one(site3)}
    assert (rule, detail) in found
    assert ("C8", "unknown gate id -1") in found
    assert not any(r == "C6" for r, _ in found)


def test_coherence_missing_qubit(k4):
    assert "coherence" in _rules(_set(k4, 0, 0, None))


def test_phases_are_clean(two_triangles):
    assert verify_phases(two_triangles, TWO_TRIANGLES, ArraySpec(4)).ok


def test_e2_local_qubit_not_parked(two_triangles):
    r1 = two_triangles.r1
    region1 = split_plane(ArraySpec(4))[0]
    last = len(r1.schedule.stages) - 1
    st = r1.schedule.stages[last].states[0]
    lifted = QubitState(x=st.x, y=st.y, a=AOD,
                        c=region1.x_range[0], r=region1.y_range[0])
    phases = replace(two_triangles, r1=replace(
        r1, schedule=_set(r1.schedule, last, 0, lifted)))
    report = verify_phases(phases, TWO_TRIANGLES, ArraySpec(4))
    assert report.by_rule("E2")


def test_e4_global_start_away_from_local_final(two_triangles):
    r3 = two_triangles.r3
    st = r3.schedule.stages[0].states[0]
    shifted = replace(st, x=(st.x + 1) % 4)
    phases = replace(two_triangles, r3=replace(
        r3, schedule=_set(r3.schedule, 0, 0, shifted)))
    report = verify_phases(phases, TWO_TRIANGLES, ArraySpec(4))
    assert report.by_rule("E4")


def test_c2_static_trap_moved(k4):
    t, q = next((t, q) for t in range(len(k4.stages) - 1)
                for q, st in sorted(k4.stages[t].states.items())
                if st.a == SLM)
    here, there = k4.stages[t].states[q], k4.stages[t + 1].states[q]
    moved = replace(there, x=1 - here.x)
    c2 = verify(_set(k4, t + 1, q, moved), K4, A).by_rule("C2")
    assert any(f"statically trapped qubit {q} moved" in x.detail for x in c2)


def test_c4_column_order_contradicts_x_order(path):
    t, u, v = _idle_pair(path, PATH)
    su, sv = path.stages[t].states[u], path.stages[t].states[v]
    # column 0 stands right of column 1
    s = _set(path, t, u, QubitState(x=1, y=su.y, a=AOD, c=0, r=0))
    s = _set(s, t, v, QubitState(x=0, y=sv.y, a=AOD, c=1, r=1))
    c4 = verify(s, PATH, A).by_rule("C4")
    assert any("column order contradicts x order" in x.detail for x in c4)


@pytest.mark.parametrize("axis,moved", [
    ("column", QubitState(x=0, y=1, a=AOD, c=0, r=1)),
    ("row", QubitState(x=1, y=0, a=AOD, c=1, r=0))], ids=["column", "row"])
def test_c4_line_order_not_preserved_across_the_stage(axis, moved):
    # two idle qubits in movable traps, on columns 0 and 1 and rows 0 and 1,
    # stand still; the mutant moves qubit 1 onto x = 0 (y = 0) and relabels
    # it to column (row) 0 there, so that axis's order changes within the
    # transition
    c = Circuit(2, ())
    line = {0: QubitState(x=0, y=0, a=AOD, c=0, r=0),
            1: QubitState(x=1, y=1, a=AOD, c=1, r=1)}
    still = Schedule([Stage(line), Stage(line)])
    assert verify(still, c, A).ok
    report = verify(_set(still, 1, 1, moved), c, A)
    assert [(v.rule, v.detail) for v in report.violations] == [
        ("C4", f"{axis} order of 0,1 not preserved across the stage")]


def test_e2_two_qubits_parked_on_one_site(two_triangles):
    r1 = two_triangles.r1
    last = len(r1.schedule.stages) - 1
    st = r1.schedule.stages[last].states[1]
    phases = replace(two_triangles, r1=replace(
        r1, schedule=_set(r1.schedule, last, 0, replace(st, a=SLM))))
    e2 = verify_phases(phases, TWO_TRIANGLES, ArraySpec(4)).by_rule("E2")
    assert any(f"parked on one site ({st.x},{st.y})" in v.detail for v in e2)


def _parked_sites(phases) -> set[tuple[int, int]]:
    """Final sites of the resolved (parked) qubits of both local phases."""
    p = phases.partition
    sites = set()
    for res, side, resolved in ((phases.r1, p.q1, p.qr1),
                                (phases.r2, p.q2, p.qr2)):
        final = res.schedule.stages[-1].states
        for q in resolved:
            st = final[sorted(side).index(q)]
            sites.add((st.x, st.y))
    return sites


def test_e3_global_static_trap_on_parked_site(two_triangles):
    r3 = two_triangles.r3
    last = len(r3.schedule.stages) - 1
    x, y = min(_parked_sites(two_triangles))
    phases = replace(two_triangles, r3=replace(
        r3, schedule=_set(r3.schedule, last, 0, QubitState(x=x, y=y, a=SLM))))
    e3 = verify_phases(phases, TWO_TRIANGLES, ArraySpec(4)).by_rule("E3")
    assert any(f"parked site ({x},{y})" in v.detail for v in e3)


def _held_line(phases, q):
    """The (column, row) original qubit q last held in its local phase."""
    p = phases.partition
    side, res = (p.q1, phases.r1) if q in p.q1 else (p.q2, phases.r2)
    local = sorted(side).index(q)
    return next((st.states[local].c, st.states[local].r)
                for st in reversed(res.schedule.stages)
                if st.states[local].a == AOD)


def _e5_details(phases, axis):
    """The E5 details once both actives start the global phase in movable
    traps, their lines on `axis` (0: columns, 1: rows) in the opposite
    order to the lines they last held, and on the other axis in the same
    order."""
    r3 = phases.r3
    actives = sorted(phases.partition.qa1 | phases.partition.qa2)
    assert len(actives) == 2, "fixture changed"
    held = [_held_line(phases, q) for q in actives]
    assert held[0][axis] != held[1][axis], "fixture changed"
    lines = [list(line) for line in held]
    lines[0][axis], lines[1][axis] = held[1][axis], held[0][axis]
    start = r3.schedule.stages[0].states
    s = r3.schedule
    # global qubit i is actives[i]
    for i, (c, r) in enumerate(lines):
        s = _set(s, 0, i, replace(start[i], a=AOD, c=c, r=r))
    phases = replace(phases, r3=replace(r3, schedule=s))
    e5 = verify_phases(phases, TWO_TRIANGLES, ArraySpec(4)).by_rule("E5")
    return [x.detail for x in e5]


def test_e5_global_start_reverses_held_column_order(two_triangles):
    details = _e5_details(two_triangles, 0)
    assert any("column order" in x for x in details)
    assert not any("row order" in x for x in details)


def test_e5_global_start_reverses_held_row_order(two_triangles):
    details = _e5_details(two_triangles, 1)
    assert any("row order" in x for x in details)
    assert not any("column order" in x for x in details)
