import itertools

import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from atomc import compiler
from atomc.arrays import ArraySpec, full_region, split_plane
from atomc.circuits import Circuit, generate_rand3reg
from atomc.compiler import (_internal_boundary, _Stats, compile_circuit,
                            extract_schedule, matchings, solve_window)
from atomc.encoding import (ALL_FAMILIES, Boundary, WindowSpec, avoid_rows,
                            encode_window, line_order, make_vars, shape_key,
                            static_lines, window_bounds)
from atomc.orchestrator import pac_compile
from atomc.schedule import AOD, SLM, QubitState, Schedule, Stage
from atomc.smt import EQ, MilpBackend, neg
from atomc.verifier import verify
from test_smt import evaluate, maximize

K4 = Circuit(4, tuple(itertools.combinations(range(4), 2)), name="k4")
NO_PIN = tuple(f for f in ALL_FAMILIES if f is not static_lines)


def window(c, region, stages=1, boundary=Boundary(), **kw):
    return WindowSpec(list(range(c.num_qubits)), dict(enumerate(c.gates)),
                      stages, region, boundary, **kw)


def one_gate_per_qubit(v, w):
    """C8 as clauses: two gates that share a qubit never fire together.
    The compiler's checks each fix a matching to fire; a maximize over free
    fire variables needs these clauses to ask the same question."""
    for q in w.qubits:
        incident = [v.f[g] for g, ends in sorted(w.gates.items()) if q in ends]
        for i, f in enumerate(incident):
            for g in incident[i + 1:]:
                yield neg(f), neg(g)


def solve(spec, families=ALL_FAMILIES):
    """Maximize the fired count over `families` and `one_gate_per_qubit`,
    encoded for the spec's pending gates only, and the window's bounds as
    rows; (fired count, model, vars) or None."""
    backend = MilpBackend()
    v = encode_window(backend, spec, (*families, one_gate_per_qubit))
    for var, value in window_bounds(v, spec).items():
        backend.add(EQ(var, value))
    best = maximize(backend, v.f.values())
    return None if best is None else (*best, v)


def assert_pinned(spec, model, v, exempt=frozenset()):
    """Check the pin at every static (qubit, stage); return how many."""
    reg = spec.region
    checked = 0
    for q in spec.qubits:
        for t in range(spec.stages):
            static = not model[v.a[q, t].name]
            if t > 0:
                static = static and not model[v.a[q, t - 1].name]
            elif q in exempt:
                continue
            if static:
                checked += 1
                assert model[v.c[q, t].name] == reg.x_range.start, (q, t)
                assert model[v.r[q, t].name] == reg.y_range.start, (q, t)
    return checked


def greedy_windows(c, region, count):
    """The first `count` greedy window specs (horizon 1), each solved with
    every family so that the next boundary is the committed schedule's."""
    stats = _Stats(t0=0.0, deadline=float("inf"))
    shapes = {}
    pending = dict(enumerate(c.gates))
    boundary, done, specs = Boundary(), [], []
    for _ in range(count):
        spec = WindowSpec(list(range(c.num_qubits)), dict(pending),
                          1 + (boundary.xy is not None), region, boundary)
        specs.append(spec)
        res = solve_window(spec, gates=dict(enumerate(c.gates)),
                           shapes=shapes, stats=stats)
        assert res is not None
        done.append(res)
        for g in res.fired:
            del pending[g]
        boundary = _internal_boundary(extract_schedule(done).stages)
    return specs


def test_pin_holds_on_quadrant():
    # region 2 of a 4x4 array starts at column and row 2, not 0
    spec = window(K4, split_plane(ArraySpec(4))[1], stages=2)
    fired, model, v = solve(spec)
    assert fired >= 2
    assert assert_pinned(spec, model, v) > 0


def test_pin_holds_across_a_window_boundary():
    spec = greedy_windows(generate_rand3reg(6, 2), full_region(ArraySpec(3)),
                          2)[1]
    fired, model, v = solve(spec)
    assert fired >= 1
    assert assert_pinned(spec, model, v) > 0


def _static_stage0(held):
    """A one-stage window whose three qubits all end (so start) static."""
    boundary = Boundary(xy={0: (0, 0), 1: (1, 1), 2: (2, 2)}, held=held)
    spec = window(Circuit(3, ()), full_region(ArraySpec(3)), 1, boundary,
                  final_slm=frozenset({0, 1, 2}))
    solved = solve(spec)
    assert solved is not None
    return (spec, *solved[1:])


def test_stage0_directives_exempt_their_qubits():
    # every qubit is static at stage 0, yet the held lines order the
    # stage-0 indices of qubits 0 and 1
    spec, model, v = _static_stage0({0: (5, 1), 1: (2, 3)})
    assert model[v.c[0, 0].name] > model[v.c[1, 0].name]
    assert model[v.r[0, 0].name] < model[v.r[1, 0].name]
    assert assert_pinned(spec, model, v, exempt={0, 1}) == 1


def test_a_lone_held_qubit_keeps_its_pin():
    # one held qubit is ordered against nothing, so static_lines still pins
    # its stage-0 indices (the solver input is that of no held lines)
    spec, model, v = _static_stage0({0: (5, 1)})
    assert assert_pinned(spec, model, v) == 3
    assert len(list(static_lines(v, spec))) == 2 * len(spec.qubits)


def test_a_lone_held_qubit_is_dropped():
    # the boundary states the rule once: a held map of one qubit is none
    spec, _, _ = _static_stage0({0: (5, 1)})
    assert spec.boundary.held == {}
    assert shape_key(spec) == shape_key(_static_stage0({})[0])
    # two held qubits stay held
    assert len(Boundary(xy={}, held={0: (5, 1), 1: (2, 3)}).held) == 2


def test_avoid_rows_admit_exactly_the_sites_not_avoided():
    avoid = frozenset({(0, 3), (1, 1), (2, 1), (3, 0)})
    spec = window(Circuit(1, ()), full_region(ArraySpec(4)),
                  avoid_sites=avoid)
    backend = MilpBackend()
    v = encode_window(backend, spec, (avoid_rows,))
    for site in itertools.product(range(4), repeat=2):
        fixed = dict(zip((v.x[0, 0], v.y[0, 0]), site))
        assert (backend.check(fixed=fixed) == "sat") == (site not in avoid)


def test_obstacle_rows_keep_big_m_within_the_array_side():
    # a pinned window on 16x16 with parked sites, as in pac's global phase:
    # every coefficient, big-M included, stays within the side
    n = 16
    spec = WindowSpec([0, 1, 2], {0: (0, 1), 1: (1, 2)}, 2,
                      full_region(ArraySpec(n)),
                      Boundary(xy={0: (0, 0), 1: (5, 9), 2: (15, 14)}),
                      frozenset({(0, 15), (7, 3), (15, 15)}))
    backend = MilpBackend()
    encode_window(backend, spec)
    assert abs(backend._constraint()[0].data).max() <= n


@pytest.mark.parametrize("case", ["k4-2x2", "rand3reg6-w1", "rand3reg6-w2"])
def test_pin_loses_no_schedule(case):
    if case == "k4-2x2":
        spec = window(K4, full_region(ArraySpec(2)))
    else:
        specs = greedy_windows(generate_rand3reg(6, 2),
                               full_region(ArraySpec(3)), 2)
        spec = specs[int(case[-1]) - 1]
    with_pin, without = solve(spec), solve(spec, NO_PIN)
    assert with_pin is not None and without is not None
    assert with_pin[0] == without[0] >= 1


def test_line_order_admits_exactly_what_c3_and_c4_admit():
    # two qubits in movable lines at stage 0 of a 2x2 window, each keeping
    # its line indices across the move as trap_transfer requires, and each
    # still up or dropped at stage 1: every placement, indexing and drop
    a = ArraySpec(2)
    spec = WindowSpec(qubits=[0, 1], gates={}, stages=2,
                      region=full_region(a), boundary=Boundary())
    v = make_vars(MilpBackend(), spec)
    rows = list(line_order(v, spec))
    keys = [(q, t) for q in (0, 1) for t in (0, 1)]
    admitted = cases = 0
    for xy, cr, up in itertools.product(
            itertools.product(range(2), repeat=2 * len(keys)),
            itertools.product(range(2), repeat=4),
            itertools.product((AOD, SLM), repeat=2)):
        env, stages = {}, [{}, {}]
        for i, (q, t) in enumerate(keys):
            x, y, c, r = xy[2 * i], xy[2 * i + 1], cr[2 * q], cr[2 * q + 1]
            trap = AOD if t == 0 else up[q]
            env.update({v.x[q, t].name: x, v.y[q, t].name: y,
                        v.c[q, t].name: c, v.r[q, t].name: r,
                        v.a[q, t].name: trap})
            stages[t][q] = (QubitState(x=x, y=y, a=AOD, c=c, r=r)
                            if trap == AOD else QubitState(x=x, y=y, a=SLM))
        holds = all(evaluate(f, env) for f in rows)
        report = verify(Schedule([Stage(st, ()) for st in stages]),
                        Circuit(2, ()), a)
        clean = not report.by_rule("C3") and not report.by_rule("C4")
        assert holds == clean, (xy, cr, up)
        admitted += holds
        cases += 1
    assert cases == 4 * 2 ** 12 and 0 < admitted < cases


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4))
                .filter(lambda ends: ends[0] != ends[1]), max_size=8),
       st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_matchings_are_the_disjoint_combinations_in_order(pairs, k):
    # five qubits make duplicated pairs common; ids are not in list order
    gates = {(7 * i) % 11: ends for i, ends in enumerate(pairs)}
    got = list(matchings(gates, k))
    # combinations yields each k-set once, in lexicographic order
    assert got == [m for m in itertools.combinations(sorted(gates), k)
                   if len({q for g in m for q in gates[g]}) == 2 * k]
    for m in got:
        assert len({frozenset(gates[g]) for g in m}) == k


def _record(run):
    """(spec, result, or None when grown) of every window `run` solves."""
    solved = []

    def recording(spec, **kwargs):
        result = solve_window(spec, **kwargs)
        solved.append((spec, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiler, "solve_window", recording)
        run()
    return solved


@pytest.fixture(scope="module")
def direct_windows():
    """The greedy windows of direct rand3reg(6, 1..3) on 3x3."""
    region = full_region(ArraySpec(3))
    return _record(lambda: [compile_circuit(generate_rand3reg(6, seed),
                                            region) for seed in (1, 2, 3)])


@pytest.fixture(scope="module")
def pac_global_windows():
    """The greedy windows of pac rand3reg(12, 6)'s global phase on 8x8."""
    a = ArraySpec(8)
    solved = _record(lambda: pac_compile(generate_rand3reg(12, 6), a))
    return [(spec, result) for spec, result in solved
            if spec.region == full_region(a)]


@pytest.fixture(scope="module")
def grown_windows():
    """The horizon-2 windows of direct rand3reg(6, 16), (6, 21) and (6, 34)
    on 3x3: each compile grows a window."""
    solved = _record(lambda: [
        compile_circuit(generate_rand3reg(q, seed), full_region(ArraySpec(n)))
        for q, seed, n in ((6, 16, 3), (6, 21, 3), (6, 34, 3))])
    return [(spec, result) for spec, result in solved
            if spec.stages - (spec.boundary.xy is not None) == 2]


WINDOWS = ["direct_windows", "pac_global_windows", "grown_windows"]


@pytest.mark.parametrize("windows", WINDOWS)
def test_probes_fire_as_many_gates_as_a_maximize(windows, request):
    solved = [(spec, result)
              for spec, result in request.getfixturevalue(windows)
              if spec.gates]
    assert solved
    for spec, result in solved:
        best = solve(spec)
        assert best is not None
        assert (0 if result is None else len(result.fired)) == best[0]


@pytest.mark.parametrize("windows", WINDOWS)
def test_a_tied_qubit_up_at_stage0_rides_its_tied_line(windows, request):
    tied = 0
    for spec, result in request.getfixturevalue(windows):
        if result is None:
            continue
        stage0 = result.stages[0].states
        for q, line in spec.boundary.prev_traps.items():
            if stage0[q].a == AOD:
                assert (stage0[q].c, stage0[q].r) == line, (spec, q)
                tied += 1
    assert tied


@pytest.fixture(scope="module")
def shaped_compile():
    """Direct rand3reg(6, 16) on 3x3, traced: the key of every shape
    `encode_window` encodes, and per check its window's number and shape
    and the constraint matrix it hands HiGHS, or that `accept` reads to
    take a witness."""
    encoded, checks, windows = [], [], []
    encode, solve_one = compiler.encode_window, compiler.solve_window
    accept = MilpBackend.accept

    def encoding(backend, w, *args):
        encoded.append(shape_key(w))
        return encode(backend, w, *args)

    def solving(spec, **kwargs):
        windows.append(shape_key(spec))
        return solve_one(spec, **kwargs)

    def milp(real=scipy.optimize.milp, **kwargs):
        checks.append((len(windows), windows[-1], kwargs["constraints"].A))
        return real(**kwargs)

    def accepting(backend, witness, fixed=None):
        ok = accept(backend, witness, fixed)
        checks.append((len(windows), windows[-1], backend._constraint()[0]))
        return ok

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiler, "encode_window", encoding)
        mp.setattr(compiler, "solve_window", solving)
        mp.setattr(scipy.optimize, "milp", milp)
        mp.setattr(MilpBackend, "accept", accepting)
        compile_circuit(generate_rand3reg(6, 16), full_region(ArraySpec(3)))
    return encoded, checks


def test_each_shape_is_encoded_once_per_compile(shaped_compile):
    # a free first window, pinned horizon-1 windows and one pinned window
    # grown to horizon 2
    encoded, _ = shaped_compile
    assert sorted(encoded) == [(1, False, ()), (2, True, ()), (3, True, ())]


def test_every_check_of_a_shape_shares_one_matrix(shaped_compile):
    _, checks = shaped_compile
    first = {}
    for _, key, matrix in checks:
        assert matrix is first.setdefault(key, matrix), key
    # the pinned horizon-1 shape serves several windows: HiGHS refutes a
    # check in one of them, and witnesses decide the sat checks
    assert len({n for n, key, _ in checks if key == (2, True, ())}) > 1
