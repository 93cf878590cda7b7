import itertools
import random

import networkx
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from atomc import compiler
from atomc.arrays import ArraySpec, full_region
from atomc.circuits import Circuit, generate_rand3reg
from atomc.compiler import (SolverOptions, compile_circuit, matching_number,
                            matchings)
from atomc.encoding import Boundary, WindowSpec
from atomc.errors import CompileTimeout, InfeasibleError, MergeError
from atomc.orchestrator import PacOptions, _zip_local, pac_compile
from atomc.schedule import SLM, QubitState, Stage
from atomc.smt import MilpBackend
from atomc.verifier import verify, verify_phases
from test_can_fire import _answer, _decide

K4 = Circuit(4, tuple(itertools.combinations(range(4), 2)), name="k4")
# two triangles joined by one cross gate
TWO_TRIANGLES = Circuit(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                            (2, 3)), name="two-triangles")


def test_budget_history_counts_new_stages():
    res = compile_circuit(K4, full_region(ArraySpec(2)))
    assert res.stage_budget_history
    assert sum(res.stage_budget_history) == len(res.schedule.stages)


def test_budget_history_skips_given_stage0():
    init_xy = {q: (q // 2, q % 2) for q in range(4)}
    res = compile_circuit(K4, full_region(ArraySpec(2)), init_xy=init_xy)
    stage0 = res.schedule.stages[0].states
    assert {q: (st.x, st.y) for q, st in stage0.items()} == init_xy
    assert sum(res.stage_budget_history) == len(res.schedule.stages) - 1


def test_window_specs_keep_the_gates_pending_when_solved(monkeypatch):
    solved = []
    solve = compiler.solve_window

    def recording(spec, **kwargs):
        result = solve(spec, **kwargs)
        solved.append((spec, result))
        return result

    monkeypatch.setattr(compiler, "solve_window", recording)
    compile_circuit(K4, full_region(ArraySpec(2)))
    assert len(solved) > 1
    pending = dict(enumerate(K4.gates))
    for spec, result in solved:
        assert spec.gates == pending
        if result is not None:
            for g in result.fired:
                del pending[g]
    assert not pending


def test_matching_number_agrees_with_networkx():
    rng = random.Random(0)
    for _ in range(3000):
        # few qubits with sparse ids, so that pairs repeat
        ids = rng.sample(range(50), rng.randint(2, 14))
        gates = {rng.randrange(10_000): tuple(rng.sample(ids, 2))
                 for _ in range(rng.randint(0, 3 * len(ids)))}
        graph = networkx.Graph(gates.values())
        assert matching_number(gates) == len(
            networkx.max_weight_matching(graph)), gates


# a 5-cycle 0..4 with the stem 5-6-0 into it and a pendant 7 on 1
FLOWER = [(5, 6), (6, 0), (0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (7, 1)]
# the triangle (0, 4, 7) on the side of the odd cycle 6-2-3-(7 0 4)-8-6
NESTED = [(0, 4), (0, 7), (2, 3), (2, 6), (3, 7), (4, 7), (4, 8), (5, 8),
          (6, 8)]
# an outer 5-cycle, five spokes and an inner pentagram
PETERSEN = ([(i, (i + 1) % 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


@pytest.mark.parametrize("edges,size", [
    (FLOWER, 4), (TWO_TRIANGLES.gates, 3), (PETERSEN, 5), (NESTED, 4)],
    ids=["flower", "two-triangles", "petersen", "nested"])
def test_matching_number_on_blossoms(edges, size):
    assert matching_number(dict(enumerate(edges))) == size


# from each root, with these pairs matched, every augmenting path leaves an
# odd cycle by a qubit the search first reaches as odd: a search that labels
# each qubit once, contracting no cycle, finds no path
@pytest.mark.parametrize("edges,pairs,root", [
    (FLOWER, [(6, 0), (1, 2), (3, 4)], 5),
    (TWO_TRIANGLES.gates, [(1, 2), (3, 5)], 4),
    (NESTED, [(0, 7), (2, 3), (4, 8)], 6)],
    ids=["flower", "two-triangles", "nested"])
def test_an_augmenting_path_runs_through_blossoms(edges, pairs, root):
    adj: dict = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    mate = {q: p for u, v in pairs for q, p in ((u, v), (v, u))}
    compiler._augment(adj, mate, root)
    assert len(mate) == 2 * len(pairs) + 2
    assert root in mate and all(mate[mate[q]] == q and mate[q] in adj[q]
                                for q in mate)


def _probed(spec, matrices=None):
    """Solve one window; (result, (probe, answer) of each HiGHS check,
    its `_Stats`).  The probe is the sorted ids of the gates the check
    fixes to fire.  The constraint matrix each check hands HiGHS is
    appended to `matrices`."""
    stats = compiler._Stats(t0=0.0, deadline=float("inf"))
    probes = []
    check = MilpBackend.check

    def recording(backend, timeout=None, fixed=None):
        answer = check(backend, timeout=timeout, fixed=fixed)
        # fire variables are named f_g<gate>_s<stage>
        probe = tuple(sorted(int(var.name.split("_")[1][1:])
                             for var, on in (fixed or {}).items()
                             if on and var.name.startswith("f_")))
        probes.append((probe, answer))
        return answer

    def milp(real=scipy.optimize.milp, **kwargs):
        matrices.append(kwargs["constraints"].A)
        return real(**kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MilpBackend, "check", recording)
        if matrices is not None:
            mp.setattr(scipy.optimize, "milp", milp)
        result = compiler.solve_window(spec, gates=spec.gates, shapes={},
                                       stats=stats)
    return result, probes, stats


# the four gates hold a matching of three, but from this pinned start at
# most two of them fire within one new stage
REFUTED_FIRST = WindowSpec(
    list(range(6)), {0: (0, 1), 1: (2, 3), 2: (4, 5), 3: (1, 2)}, 2,
    full_region(ArraySpec(3)),
    Boundary(xy={0: (0, 2), 1: (0, 1), 2: (2, 2), 3: (0, 0), 4: (1, 0),
                 5: (1, 1)}))


def _unfiltered(monkeypatch):
    """Let `_Moves.decide` discard no matching, so each reaches a witness
    or HiGHS."""
    decide = compiler._Moves.decide
    monkeypatch.setattr(compiler._Moves, "decide",
                        lambda self, m, v: decide(self, m, v) or None)


def test_probes_refute_down_to_the_optimum(monkeypatch):
    spec = REFUTED_FIRST
    assert matching_number(spec.gates) == 3
    # {0, 1, 2} is the only 3-matching; the 2-matchings follow in
    # lexicographic order, and the first, {0, 1}, fires
    assert list(matchings(spec.gates, 3)) == [(0, 1, 2)]
    # without the filter and witnesses, HiGHS refutes {0, 1, 2} and finds
    # {0, 1} sat
    _unfiltered(monkeypatch)
    monkeypatch.setattr(compiler, "WITNESS_BUDGET", 0)
    matrices = []
    result, probes, stats = _probed(spec, matrices)
    assert probes == [((0, 1, 2), "unsat"), ((0, 1), "sat")]
    assert stats.calls == 2 and sorted(result.fired) == [0, 1]
    # the window's matrix is assembled once and shared by every check
    assert len(matrices) == 2 and matrices[0] is matrices[1]


def test_a_witness_decides_the_first_sat_check(monkeypatch):
    # the same window without the filter: no witness exists for the
    # refuted {0, 1, 2}, so HiGHS refutes it, and a witness decides {0, 1}
    # with no call
    _unfiltered(monkeypatch)
    result, probes, stats = _probed(REFUTED_FIRST)
    assert probes == [((0, 1, 2), "unsat")]
    assert (stats.calls, stats.witnessed) == (1, 1)
    assert sorted(result.fired) == [0, 1]


def test_the_filter_discards_the_refuted_matching():
    # y=2  0  .  2
    # y=1  1  5  .
    # y=0  3  4  .
    # every way to fire {0, 1, 2} moves 4 onto 5 and has 2 and 3 meet.
    # Beside either other gate alone they find a site, but beside both
    # the move order leaves them only (1, 1), where 4 lands.  Placing the
    # pairs that meet jointly, the filter discards {0, 1, 2}, which the
    # MILP refutes, and the window makes no HiGHS call at all
    spec = REFUTED_FIRST
    assert _decide(spec, (0, 1, 2)) is False
    assert _answer(spec, (0, 1, 2)) == "unsat"
    result, probes, stats = _probed(spec)
    assert probes == []
    assert (stats.calls, stats.discarded, stats.witnessed) == (0, 1, 1)
    assert sorted(result.fired) == [0, 1]


def test_a_window_that_fires_nothing_is_grown():
    # a window the greedy compile of rand3reg(6, 34) on 3x3 had to grow:
    # two pairs share sites at the boundary, four qubits are tied to lines,
    # and the one pending gate cannot fire within one new stage, but can
    # within two
    boundary = Boundary(
        xy={0: (2, 1), 1: (0, 1), 2: (2, 0), 3: (0, 1), 4: (2, 1),
            5: (0, 0)},
        prev_traps={0: (2, 2), 2: (2, 1), 3: (1, 2), 5: (0, 0)})
    solved = []
    for horizon in (1, 2):
        spec = WindowSpec(list(range(6)), {7: (2, 5)}, horizon + 1,
                          full_region(ArraySpec(3)), boundary)
        solved.append(_probed(spec))
    (grown, probes1, stats1), (result, probes2, stats2) = solved
    assert grown is None and probes1 == [((7,), "unsat")]
    assert probes2 == [((7,), "sat")]
    assert stats1.calls == stats2.calls == 1
    assert list(result.fired) == [7] and result.horizon == 2


@pytest.mark.parametrize("park,witnessed", [(frozenset(), 0),
                                            (frozenset({0, 1}), 1)],
                         ids=["plain", "parked"])
def test_a_one_gate_circuit_compiles(park, witnessed):
    # the firing pair ends on one site, so parking it takes one more
    # window, which a witness decides: one qubit leaves the site and drops
    c = Circuit(2, ((0, 1),))
    res = compile_circuit(c, full_region(ArraySpec(2)), final_stage_slm=park)
    assert (res.solver_calls, res.witnessed) == (1, witnessed)
    assert len(res.stage_budget_history) == 1 + witnessed
    assert res.schedule.fired_multiset() == [0]
    assert verify(res.schedule, c, ArraySpec(2)).ok


def test_a_duplicated_gate_fires_twice():
    # the two copies of (0, 1) share both qubits, so no stage fires both,
    # and (1, 2) shares qubit 1 with each
    c = Circuit(3, ((0, 1), (0, 1), (1, 2)))
    res = compile_circuit(c, full_region(ArraySpec(2)))
    assert verify(res.schedule, c, ArraySpec(2)).ok
    assert res.schedule.fired_multiset() == [0, 1, 2]
    assert res.schedule.depth == 3


@pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan")])
def test_a_timeout_that_is_not_positive_is_rejected(timeout):
    with pytest.raises(ValueError, match="timeout must be positive"):
        SolverOptions(timeout=timeout)


def test_parameters_after_region_are_keyword_only():
    with pytest.raises(TypeError):
        compile_circuit(K4, full_region(ArraySpec(2)), frozenset())


@pytest.mark.parametrize("init_xy,avoid,message", [
    ({0: (0, 0), 1: (0, 0), 2: (1, 0), 3: (1, 1)}, frozenset(),
     r"qubits 0 and 1 on one site \(0, 0\)"),
    ({q: (q // 2, q % 2) for q in range(4)}, frozenset({(1, 0)}),
     r"qubit 2 on avoided site \(1, 0\)"),
], ids=["co-sited", "avoided"])
def test_impossible_stage0_is_rejected_before_solving(init_xy, avoid, message,
                                                      monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solver was called")

    monkeypatch.setattr(MilpBackend, "check", no_solve)
    with pytest.raises(InfeasibleError, match=message):
        compile_circuit(K4, full_region(ArraySpec(2)), init_xy=init_xy,
                        avoid_sites=avoid)


@pytest.mark.parametrize("kwargs,message", [
    ({"init_xy": {q: (q // 2, q % 2) for q in range(4)},
      "held_lines": {0: (0, 0), 9: (1, 1)}}, "held_lines names qubit 9"),
    ({"held_lines": {0: (0, 0), 1: (1, 1)}}, "held_lines needs init_xy"),
    ({"final_stage_slm": frozenset({1, 5})},
     "final_stage_slm names qubit 5"),
], ids=["stray-qubit", "no-init-xy", "stray-parked-qubit"])
def test_bad_held_lines_are_rejected_before_solving(kwargs, message,
                                                    monkeypatch):
    # a stray parked qubit is rejected like a stray held one
    def no_solve(*args, **kwargs):
        raise AssertionError("the solver was called")

    monkeypatch.setattr(MilpBackend, "check", no_solve)
    with pytest.raises(ValueError, match=message):
        compile_circuit(K4, full_region(ArraySpec(2)), **kwargs)


def test_placement_only_keeps_off_avoided_sites():
    a = ArraySpec(2)
    res = compile_circuit(Circuit(3, ()), full_region(a),
                          avoid_sites=frozenset({(0, 0)}))
    (stage,) = res.schedule.stages
    assert {(st.x, st.y) for st in stage.states.values()} == {
        (0, 1), (1, 0), (1, 1)}
    assert res.solver_calls == 0


def test_placement_only_keeps_a_pinned_stage0():
    a = ArraySpec(2)
    init_xy = {0: (1, 1), 1: (0, 1), 2: (1, 0)}
    res = compile_circuit(Circuit(3, ()), full_region(a), init_xy=init_xy)
    (stage,) = res.schedule.stages
    assert {q: (st.x, st.y, st.a) for q, st in stage.states.items()} == {
        q: (x, y, SLM) for q, (x, y) in init_xy.items()}
    assert res.solver_calls == 0


def test_placement_only_needs_a_site_per_qubit():
    # two of the four sites are avoided, so three qubits cannot all stand
    with pytest.raises(InfeasibleError, match="3 qubits cannot fit the 2 "):
        compile_circuit(Circuit(3, ()), full_region(ArraySpec(2)),
                        avoid_sites=frozenset({(0, 0), (1, 1)}))


# every site of 2x2 but (1, 1)
ONE_SITE = frozenset({(0, 0), (0, 1), (1, 0)})


def test_greedy_stops_at_the_horizon_cap():
    # three qubits cannot share the one usable site, so no window of any
    # horizon is feasible
    c = Circuit(3, ((0, 1), (1, 2)))
    with pytest.raises(InfeasibleError, match="within 8 stages"):
        compile_circuit(c, full_region(ArraySpec(2)), avoid_sites=ONE_SITE)


def test_parking_stops_at_the_horizon_cap():
    # the pair fires on the one free site and then cannot separate
    c = Circuit(2, ((0, 1),))
    with pytest.raises(InfeasibleError,
                       match=r"cannot park \[0, 1\] within 8 stages"):
        compile_circuit(c, full_region(ArraySpec(2)), avoid_sites=ONE_SITE,
                        final_stage_slm=frozenset({0, 1}))


def test_pac_admits_communities_that_fit_their_quadrants():
    # 6 qubits exceed one 2x2 quadrant, but each community of 3 fits its own
    a = ArraySpec(4)
    merged, phases = pac_compile(TWO_TRIANGLES, a)
    assert max(len(phases.partition.q1), len(phases.partition.q2)) == 3
    assert verify(merged, TWO_TRIANGLES, a).ok
    assert verify_phases(phases, TWO_TRIANGLES, a).ok
    assert merged.fired_multiset() == list(range(TWO_TRIANGLES.num_gates))


def test_pac_rejects_a_community_larger_than_its_quadrant():
    with pytest.raises(InfeasibleError, match="community 1 has 5 qubits"):
        pac_compile(generate_rand3reg(10, 1), ArraySpec(4))


def test_pac_timeout_names_its_phase():
    opts = PacOptions(solver=SolverOptions(timeout=1e-9))
    with pytest.raises(CompileTimeout, match=r"^\[local-[12]\] ") as exc:
        pac_compile(TWO_TRIANGLES, ArraySpec(4), opts)
    assert exc.value.phase.startswith("local-")


def _unknown_after(monkeypatch, calls):
    """Make every HiGHS check answer "unknown" once `calls` checks have
    run; returns the list the checks append their answers to."""
    real, answers = MilpBackend.check, []

    def check(self, timeout=None, fixed=None):
        answer = real(self, timeout, fixed) if len(answers) < calls \
            else "unknown"
        answers.append(answer)
        return answer

    monkeypatch.setattr(MilpBackend, "check", check)
    return answers


def test_a_solver_time_limit_is_a_compile_timeout(monkeypatch):
    # the first window is free and goes to HiGHS, which hits its limit
    answers = _unknown_after(monkeypatch, 0)
    with pytest.raises(CompileTimeout,
                       match=r"^solver hit the time limit$") as exc:
        compile_circuit(K4, full_region(ArraySpec(2)))
    assert answers == ["unknown"]
    assert exc.value.solver_calls == 1 and exc.value.phase is None


def test_pac_global_failure_names_its_phase(monkeypatch):
    # four qubits park here, and the global phase makes one HiGHS call
    # after the local phases' own; that one hits the solver's time limit
    c, a = generate_rand3reg(12, 16), ArraySpec(8)
    _, phases = pac_compile(c, a)
    local_calls = phases.r1.solver_calls + phases.r2.solver_calls
    assert phases.r3.solver_calls == 1
    answers = _unknown_after(monkeypatch, local_calls)
    with pytest.raises(CompileTimeout,
                       match=r"^\[global\] solver hit the time limit$") as exc:
        pac_compile(c, a)
    assert exc.value.phase == "global" and exc.value.solver_calls == 1
    assert answers[-1] == "unknown" and len(answers) == local_calls + 1


def _pac_verifies(c, n):
    a = ArraySpec(n)
    merged, phases = pac_compile(c, a)
    assert verify(merged, c, a).ok
    assert verify_phases(phases, c, a).ok
    # the merged local depth is the least any legal alignment of the two
    # local stage lists reaches (lifting keeps which stages fire); it is
    # max(d1, d2) only when their firing stages pair up, which follows
    # which of several equally good windows the solver returned
    fires1, fires2 = ([bool(st.fired) for st in r.schedule.stages]
                      for r in (phases.r1, phases.r2))
    least = min(sum(1 for i, j in path if fires1[i] or fires2[j])
                for path in _paths(len(fires1), len(fires2))
                if _legal(path, fires1, fires2))
    d1, d2, d3 = (r.schedule.depth for r in (phases.r1, phases.r2, phases.r3))
    assert merged.depth == least + d3
    assert merged.depth >= max(d1, d2) + d3


def test_pac_merge_pads_a_side_that_ran_out_of_rounds():
    # the two local phases fire a different number of rounds here
    _pac_verifies(generate_rand3reg(12, 2), 8)


@pytest.mark.slow
@pytest.mark.parametrize("q,seed", [(12, 1), (12, 3), (12, 4), (12, 5),
                                    (12, 6), (16, 1), (20, 1), (20, 2)])
def test_pac_seed_sweep_verifies(q, seed):
    _pac_verifies(generate_rand3reg(q, seed), 8)


def _side(qubit, fired):
    """Hand-built stages of one side: stage t puts `qubit` at (t, qubit) and
    fires fired[t] (a tuple of gate ids)."""
    return [Stage({qubit: QubitState(x=t, y=qubit, a=SLM)}, gates)
            for t, gates in enumerate(fired)]


def _shown(merged, side, qubit):
    """The index of the side's stage each merged slot shows."""
    return [next(t for t, st in enumerate(side)
                 if st.states[qubit] == slot.states[qubit])
            for slot in merged]


@pytest.mark.parametrize("fired1,fired2,depth", [
    # round 2 is one stage on side 1 and two on side 2: side 1 cannot wait
    # on its round-1 firing stage, so the rounds cannot share slots
    (((), (0,), (1,), ()), ((), (2,), (), (3,), ()), 3),
    # one side fires at its first two stages, so it can never wait
    (((), (0,), (1,), ()), ((2,), (3,), ()), 3),
    (((2,), (3,), ()), ((), (0,), (1,), ()), 3),
    # round 2 is two stages on side 1: it waits on its first stage
    (((), (0,), (), (1,), ()), ((), (2,), (), (), (3,), ()), 2),
    # side 2 fires one round fewer and waits on its final stage
    (((), (0,), (), (1,), ()), ((), (2,), ()), 2),
], ids=["one-stage-round-waits", "no-wait-2", "no-wait-1", "rounds-align",
        "side-runs-out"])
def test_zip_local_holds_only_stages_that_fire_nothing(fired1, fired2,
                                                       depth):
    s1, s2 = _side(0, fired1), _side(1, fired2)
    merged = _zip_local(s1, s2)
    assert sum(1 for st in merged if st.fired) == depth
    assert sorted(g for st in merged for g in st.fired) == sorted(
        g for gates in fired1 + fired2 for g in gates)
    for side, qubit in ((s1, 0), (s2, 1)):
        shown = _shown(merged, side, qubit)
        assert shown[0] == 0 and shown[-1] == len(side) - 1
        assert all(b - a in (0, 1) for a, b in zip(shown, shown[1:]))
        for slot, t in zip(merged, shown):
            # a slot that shows a firing stage fires its gates, once
            assert set(side[t].fired) <= set(slot.fired)
            if side[t].fired:
                assert shown.count(t) == 1


def _paths(n1, n2):
    """Every monotone path of slots from (0, 0) to (n1 - 1, n2 - 1)."""
    def walk(path):
        i, j = path[-1]
        if (i, j) == (n1 - 1, n2 - 1):
            yield path
            return
        for di, dj in ((1, 1), (1, 0), (0, 1)):
            if i + di < n1 and j + dj < n2:
                yield from walk(path + [(i + di, j + dj)])
    yield from walk([(0, 0)])


def _legal(path, fires1, fires2):
    """A side shows a stage in two slots only if that stage fires nothing."""
    return all(not fires[shown[t]]
               for fires, shown in ((fires1, [i for i, _ in path]),
                                    (fires2, [j for _, j in path]))
               for t in range(1, len(path)) if shown[t] == shown[t - 1])


@given(st.lists(st.booleans(), min_size=1, max_size=6),
       st.lists(st.booleans(), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_zip_local_matches_brute_force_alignment(fires1, fires2):
    s1 = _side(0, [(2 * t,) if f else () for t, f in enumerate(fires1)])
    s2 = _side(1, [(2 * t + 1,) if f else () for t, f in enumerate(fires2)])
    legal = [path for path in _paths(len(s1), len(s2))
             if _legal(path, fires1, fires2)]
    if not legal:
        with pytest.raises(MergeError):
            _zip_local(s1, s2)
        return
    merged = _zip_local(s1, s2)
    path = list(zip(_shown(merged, s1, 0), _shown(merged, s2, 1)))
    assert path in legal
    assert (sum(1 for slot in merged if slot.fired), len(merged)) == min(
        (sum(1 for i, j in p if fires1[i] or fires2[j]), len(p))
        for p in legal)


def _compiles_and_verifies(c, n):
    a = ArraySpec(n)
    res = compile_circuit(c, full_region(a))
    report = verify(res.schedule, c, a)
    assert report.ok, report.violations[:5]
    assert res.schedule.fired_multiset() == list(range(c.num_gates))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rand3reg6_seed_sweep_verifies(seed):
    _compiles_and_verifies(generate_rand3reg(6, seed), 3)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(4, 13))
def test_rand3reg6_seed_sweep_verifies_slow(seed):
    _compiles_and_verifies(generate_rand3reg(6, seed), 3)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2])
def test_rand3reg8_seed_sweep_verifies(seed):
    _compiles_and_verifies(generate_rand3reg(8, seed), 4)
