"""The witnesses of `compiler._Moves.decide`, solver-free models of a
pinned one-stage window's check: every witness passes the check's own rows
(`MilpBackend.accept`), HiGHS finds every witnessed matching sat, and so a
window fires the matching HiGHS alone would fire first.  Each witness rule
has a hand-built window of its own."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomc import compiler
from atomc.arrays import ArraySpec, full_region
from atomc.compiler import _checks, _extract, _Moves, _Stats, solve_window
from atomc.encoding import Boundary, WindowSpec, window_bounds
from atomc.schedule import AOD, SLM
from test_can_fire import (ROOT, _direct_windows, _encoded,
                           _model_passes_the_system, _pac_windows,
                           _pinned_windows)


def _fixed(spec, v, m) -> dict:
    """The bounds of the window's check that fires matching m."""
    return {**window_bounds(v, spec),
            **{v.f[g]: int(g in m) for g in spec.gates}}


def _witnessed(specs) -> int:
    """For each pinned one-stage window, walk its checks in order up to
    the first that HiGHS finds sat: each witness must pass the row check,
    and HiGHS must find its matching sat.  The model HiGHS finds must pass
    `_Moves._system` (`_model_passes_the_system`).  `solve_window`,
    witnesses and all, must fire that first sat matching.  Returns how many
    witnesses there were."""
    count = 0
    for spec in specs:
        moves = _Moves.of(spec)
        if moves is None:
            continue
        backend, v = _encoded(spec)
        first = None
        for m in _checks(spec):
            witness = moves.decide(m, v)
            if witness is False:
                continue
            fixed = _fixed(spec, v, m)
            if witness is not None:
                assert backend.accept(witness, fixed), m
                count += 1
            answer = backend.check(fixed=fixed)
            assert witness is None or answer == "sat", m
            if answer == "sat":
                _model_passes_the_system(moves, spec, m, backend.model(), v)
                first = m
                break
        stats = _Stats(t0=0.0, deadline=float("inf"))
        result = solve_window(spec, gates=spec.gates, shapes={}, stats=stats)
        assert (result and tuple(sorted(result.fired))) == first
    return count


def test_recorded_windows_are_witnessed():
    specs = [s for seed in (1, 2, 3) for s in _direct_windows(6, seed, 3)]
    specs += [s for seed in (1, 6) for s in _pac_windows(12, seed, 8)]
    # the pac windows include the local phases' parking windows
    assert any(s.final_slm for s in specs)
    assert _witnessed(specs) >= 20


@pytest.mark.slow
def test_recorded_windows_are_witnessed_over_the_depth_sweep(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from depth_sweep import SWEEP
    specs = []
    for mode, q, seed, n in SWEEP["roadmap"]:
        if mode == "direct":
            specs += _direct_windows(q, seed, n)
        else:
            specs += _pac_windows(q, seed, n)
    assert _witnessed(specs) > 100


@st.composite
def _pinned_or_parking(draw):
    """A window of `_pinned_windows`, or, half the time, its parking
    window: no gates, and some qubits listed to end in static traps."""
    spec = draw(_pinned_windows())
    if draw(st.booleans()):
        return spec
    parked = draw(st.frozensets(st.sampled_from(spec.qubits), min_size=1))
    return WindowSpec(spec.qubits, {}, 2, spec.region, spec.boundary,
                      spec.avoid_sites, final_slm=parked)


@given(_pinned_or_parking())
@settings(max_examples=100, deadline=None)
def test_random_windows_accept_every_witness(spec):
    _witnessed([spec])


def _spec(n, xy, gates, tied=None, held=None, final_slm=()):
    """A pinned horizon-1 window on n x n."""
    return WindowSpec(sorted(xy), dict(enumerate(gates)), 2,
                      full_region(ArraySpec(n)),
                      Boundary(xy=xy, prev_traps=tied or {},
                               held=held or {}),
                      final_slm=frozenset(final_slm))


def _witness(spec, m):
    """The witness for matching m, which must pass the row check and
    whose matching HiGHS must find sat; (its stages, its values by
    variable name, the window's vars)."""
    backend, v = _encoded(spec)
    witness = _Moves(spec).decide(m, v)
    assert isinstance(witness, dict)
    fixed = _fixed(spec, v, m)
    assert backend.accept(witness, fixed)
    assert backend.check(fixed=fixed) == "sat"
    values = {var.name: value for var, value in witness.items()}
    return _extract(values, v, spec).stages, values, v


def _site(state) -> tuple[int, int]:
    return state.x, state.y


def test_a_mover_lands_on_its_static_partner():
    spec = _spec(3, {0: (0, 0), 1: (2, 2)}, [(0, 1)])
    (s0, s1), _, _ = _witness(spec, (0,))
    assert (s0.states[0].a, s0.states[1].a) == (AOD, SLM)
    assert _site(s1.states[0]) == _site(s1.states[1]) == (2, 2)
    assert s1.states[0].a == AOD


def test_the_second_endpoint_moves_when_the_first_cannot():
    # held rows run against the stage-0 rows of 0 and 2, so 0 and 2 are
    # never up together: 0 moves onto 1, and 3 onto 2
    xy = {0: (0, 0), 1: (0, 1), 2: (2, 3), 3: (3, 3)}
    spec = _spec(4, xy, [(0, 1), (2, 3)], held={0: (0, 1), 2: (0, 0)})
    (s0, s1), _, _ = _witness(spec, (0, 1))
    assert [s0.states[q].a for q in range(4)] == [AOD, SLM, SLM, AOD]
    assert _site(s1.states[3]) == (2, 3)


def test_a_pair_meets_on_a_free_site():
    # 2 and 3 share column 2; a single mover of (0, 1) would cross that
    # column, and one of (2, 3) would cross the meeting point of (0, 1)
    xy = {0: (0, 3), 1: (4, 3), 2: (2, 0), 3: (2, 2)}
    spec = _spec(5, xy, [(0, 1), (2, 3)])
    (s0, s1), _, _ = _witness(spec, (0, 1))
    met = [(u, q) for u, q in spec.gates.values()
           if s0.states[u].a == s0.states[q].a == AOD]
    assert met
    for u, q in met:
        assert _site(s1.states[u]) == _site(s1.states[q])
        assert _site(s1.states[u]) not in xy.values()


def test_one_of_two_idle_qubits_on_one_site_departs():
    # 2 and 3 fired together in the window before; 3, tied to its line,
    # stays, and 2 goes up and drops on a site next to theirs
    xy = {0: (0, 0), 1: (0, 2), 2: (2, 2), 3: (2, 2)}
    spec = _spec(3, xy, [(0, 1)], tied={3: (2, 2)})
    (s0, s1), _, _ = _witness(spec, (0,))
    assert (s0.states[2].a, s1.states[2].a) == (AOD, SLM)
    assert (s0.states[3].a, s1.states[3].a) == (SLM, SLM)
    x, y = _site(s1.states[2])
    assert abs(x - 2) + abs(y - 2) == 1


def test_a_tied_mover_keeps_its_tied_line():
    spec = _spec(3, {0: (0, 0), 1: (2, 2)}, [(0, 1)], tied={0: (2, 1)})
    (s0, s1), _, _ = _witness(spec, (0,))
    for stage in (s0, s1):
        assert (stage.states[0].c, stage.states[0].r) == (2, 1)


def test_held_lines_keep_their_order():
    # 2 and 3 stay static, but their stage-0 lines keep the order of the
    # lines they held, against the order of their sites
    xy = {0: (0, 0), 1: (0, 1), 2: (0, 2), 3: (2, 2)}
    spec = _spec(3, xy, [(0, 1)], held={2: (2, 0), 3: (0, 2)})
    _, values, _ = _witness(spec, (0,))
    assert values["c_q2_t0"] > values["c_q3_t0"]
    assert values["r_q2_t0"] < values["r_q3_t0"]


def test_a_parking_window_drops_a_departing_qubit():
    # 0 and 1 fired together in the window before; every qubit ends in a
    # static trap, so the one that leaves their site drops where it lands
    xy = {0: (1, 1), 1: (1, 1), 2: (0, 0)}
    spec = _spec(3, xy, [], tied={0: (1, 1)}, final_slm={0, 1, 2})
    (s0, s1), _, _ = _witness(spec, ())
    assert [s0.states[q].a for q in range(3)] == [SLM, AOD, SLM]
    assert all(st.a == SLM for st in s1.states.values())
    assert _site(s1.states[1]) != (1, 1)


def test_two_up_qubits_never_share_one_trap():
    # y=2  0
    # y=1  1,3
    # y=0  2,4
    # 0 moving onto 2 leaves 1 and 3 to meet right of column 0 while 4
    # leaves 2's site.  The lines then give 1 and 3 one column and one
    # row, one trap, which `c5_occupancy` forbids, so that leaf does not
    # complete.  The search goes on: 1 stays on 3's site while 0 and 2 meet
    xy = {0: (0, 2), 1: (0, 1), 2: (0, 0), 3: (0, 1), 4: (0, 0)}
    spec = _spec(3, xy, [(0, 2), (1, 3)])
    (s0, s1), _, _ = _witness(spec, (0, 1))
    up = [q for q in xy if s0.states[q].a == AOD]
    assert up == [0, 1, 2]
    assert _site(s1.states[1]) == _site(s1.states[3]) == (0, 1)
    assert _site(s1.states[0]) == _site(s1.states[2])
    traps = {(s0.states[q].c, s0.states[q].r) for q in up}
    assert len(traps) == len(up)


def test_the_search_stops_at_its_budget(monkeypatch):
    spec = _spec(3, {0: (0, 0), 1: (2, 2)}, [(0, 1)])
    backend, v = _encoded(spec)
    monkeypatch.setattr(compiler, "WITNESS_BUDGET", 0)
    assert _Moves(spec).decide((0,), v) is None


def test_lines_solved_after_each_site_find_a_witness_early():
    # the second window of direct rand3reg(8, 1) on 4x4: four co-sited
    # pairs in one corner, and its first sat matching fires four gates.
    # Two pairs meet and two movers land on their partners, and the lines
    # rule out most sites in turn, so a search that solves them only once
    # every site is placed spends a budget of 256 before it finds a model.
    # Solving them after each site decides the window with no HiGHS call
    spec = _direct_windows(8, 1, 4)[1]
    assert sorted(spec.gates) == [1, 2, 3, 5, 6, 7, 8, 11]
    stats = _Stats(t0=0.0, deadline=float("inf"))
    result = solve_window(spec, gates=spec.gates, shapes={}, stats=stats)
    assert (stats.calls, stats.witnessed) == (0, 1)
    assert sorted(result.fired) == [1, 5, 6, 8]
    _witness(spec, (1, 5, 6, 8))
