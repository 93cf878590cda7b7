import itertools

import pytest

from atomc.arrays import ArraySpec, full_region, split_plane
from atomc.circuits import Circuit, generate_rand3reg
from atomc.compiler import (_internal_boundary, _Stats, _window_spec,
                            extract_schedule, solve_window)
from atomc.encoding import ALL_FAMILIES, Boundary, encode_window, static_lines
from atomc.smt import MilpBackend

K4 = Circuit(4, tuple(itertools.combinations(range(4), 2)), name="k4")
NO_PIN = tuple(f for f in ALL_FAMILIES if f is not static_lines)


def window(c, region, horizon=1, boundary=Boundary(), **kw):
    return _window_spec(boundary, horizon, list(range(c.num_qubits)),
                        dict(enumerate(c.gates)), region, frozenset(),
                        frozenset(), **kw)


def solve(spec, families=ALL_FAMILIES):
    """Maximize the fired count; (fired count, model, vars) or None."""
    backend = MilpBackend()
    v = encode_window(backend, spec, families)
    if backend.check(maximize=v.fired_total()) != "sat":
        return None
    model = backend.model()
    fired = sum(model[f.name] for f in v.f.values())
    return fired, model, v


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
                assert model[v.c[q, t].name] == reg.col_range.start, (q, t)
                assert model[v.r[q, t].name] == reg.row_range.start, (q, t)
    return checked


def greedy_windows(c, region, count):
    """The first `count` greedy window specs (horizon 1), each solved with
    every family so that the next boundary is the committed schedule's."""
    stats = _Stats(t0=0.0, deadline=float("inf"))
    backend = MilpBackend()
    pending = dict(enumerate(c.gates))
    boundary, done, specs = Boundary(), [], []
    for _ in range(count):
        spec = _window_spec(boundary, 1, list(range(c.num_qubits)),
                            dict(pending), region, frozenset(), frozenset())
        specs.append(spec)
        res = solve_window(pending, 1, spec, backend=backend, stats=stats)
        assert res is not None
        done.append(res)
        for g in res.fired:
            del pending[g]
        boundary = _internal_boundary(extract_schedule(done).stages, False)
    return specs


def test_pin_holds_on_quadrant():
    # region 2 of a 4x4 array starts at column and row 2, not 0
    spec = window(K4, split_plane(ArraySpec(4))[1], horizon=2)
    fired, model, v = solve(spec)
    assert fired >= 2
    assert assert_pinned(spec, model, v) > 0


def test_pin_holds_across_a_window_boundary():
    spec = greedy_windows(generate_rand3reg(6, 2), full_region(ArraySpec(3)),
                          2)[1]
    fired, model, v = solve(spec)
    assert fired >= 1
    assert assert_pinned(spec, model, v) > 0


def test_stage0_directives_exempt_their_qubits():
    # every qubit is static at stage 0 (a one-stage window with final static
    # traps), yet the directives order the stage-0 indices of qubits 0 and 1
    boundary = Boundary("pinned_xy", xy={0: (0, 0), 1: (1, 1), 2: (2, 2)},
                        col_order=((0, 1, ">"),), row_order=((0, 1, "<"),))
    spec = window(Circuit(3, ()), full_region(ArraySpec(3)), 0, boundary,
                  final_slm=frozenset({0, 1, 2}))
    assert spec.stages == 1
    solved = solve(spec)
    assert solved is not None
    _, model, v = solved
    assert model[v.c[0, 0].name] > model[v.c[1, 0].name]
    assert model[v.r[0, 0].name] < model[v.r[1, 0].name]
    assert assert_pinned(spec, model, v, exempt={0, 1}) == 1


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
