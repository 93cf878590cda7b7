"""Constraint-based schedule compiler for one region.

The greedy strategy peels the circuit window by window: each window spans a
small number of new stages, the solver maximizes how many pending gates fire
inside it (descending cardinality search, or one optimizing check when the
backend supports an objective), the result is committed and the fired gates
leave the pending set.  A window that cannot fire anything grows its horizon
until it can.  An optimal strategy (iterative deepening over the total stage
count with every gate forced) is available for small instances.

Between windows the committed final stage is replayed as the next window's
stage 0: positions are pinned, trap fields are re-decided (a qubit that was
in a movable line immediately before the boundary may only stay in or return
to that same line), which lets a pickup happen at the boundary instant
instead of costing a stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import networkx as nx

from .arrays import Region, site_in_region
from .circuits import Circuit
from .encoding import Boundary, Vars, WindowSpec, encode_window
from .errors import (CompileTimeout, ConsistencyError, InfeasibleError,
                     VerificationError)
from .schedule import AOD, SLM, CompileResult, QubitState, Schedule, Stage
from .smt import GE, IMP, make_backend, pos


@dataclass(frozen=True)
class SolverOptions:
    """Per-compile solver knobs.

    timeout: total wall budget in seconds for one compile call.
    window: new stages per greedy solve (grown when nothing can fire).
    backend: "milp", "pipe" or "pipe:<command>".
    strategy: "greedy" (windowed peeling) or "optimal" (iterative deepening
    over the total stage count).
    """

    timeout: float = 600.0
    window: int = 1
    backend: str = "milp"
    strategy: str = "greedy"
    max_horizon: int = 8

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.strategy not in ("greedy", "optimal"):
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass
class WindowResult:
    """Stages and fired gates extracted from one sat window."""

    stages: list[Stage]
    fired: dict[int, int]  # gate id -> stage index within the window
    horizon: int  # new stages, not counting a stage-0 boundary
    replaces_boundary: bool


@dataclass
class _Stats:
    t0: float
    deadline: float
    calls: int = 0
    budget_history: list[int] = field(default_factory=list)

    def wall(self) -> float:
        return time.perf_counter() - self.t0

    def remaining(self, phase: str | None = None) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise CompileTimeout("solver budget exhausted",
                                 wall_time=self.wall(), solver_calls=self.calls,
                                 phase=phase)
        return left


def _checked(backend, stats: _Stats, assumptions=(), maximize=None) -> str:
    left = stats.remaining()
    stats.calls += 1
    answer = backend.check(assumptions, maximize=maximize, timeout=left)
    if answer == "unknown":
        raise CompileTimeout("solver hit the time limit",
                             wall_time=stats.wall(), solver_calls=stats.calls)
    return answer


def _matching_bound(gates: Mapping[int, tuple[int, int]]) -> int:
    graph = nx.Graph()
    graph.add_edges_from(set(map(tuple, map(sorted, gates.values()))))
    return max(1, len(nx.max_weight_matching(graph)))


def _extract(model: dict[str, int], v: Vars, w: WindowSpec,
             horizon: int) -> WindowResult:
    stages = []
    fired: dict[int, int] = {}
    for t in range(w.stages):
        states = {}
        for q in w.qubits:
            a = model[v.a[q, t].name]
            states[q] = QubitState(
                x=model[v.x[q, t].name], y=model[v.y[q, t].name], a=a,
                c=model[v.c[q, t].name] if a == AOD else None,
                r=model[v.r[q, t].name] if a == AOD else None)
        here = tuple(sorted(
            g for (g, s), var in v.f.items() if s == t and model[var.name]))
        for g in here:
            fired[g] = t
        stages.append(Stage(states, here))
    return WindowResult(stages, fired, horizon,
                        w.boundary.kind != "free" and w.boundary.exempt)


def solve_window(pending: Mapping[int, tuple[int, int]], horizon: int,
                 context: WindowSpec, *, backend, stats: _Stats
                 ) -> WindowResult | None:
    """Solve one window, firing as many pending gates as possible.

    Returns None when not even one gate fits in the horizon (the caller
    grows the window).  With an optimizing backend a single check both
    proves feasibility of the >= 1 bound and returns a maximum-cardinality
    model; otherwise the cardinality bound is searched by descending linear
    scan with one assumption literal per bound, so any sat answer is the
    first (largest) feasible bound.
    """
    backend.reset()
    v = encode_window(backend, context)
    if not pending:
        if _checked(backend, stats) != "sat":
            return None
        return _extract(backend.model(), v, context, horizon)
    fired_total = v.fired_total()
    if context.require_all_fired:
        if _checked(backend, stats) != "sat":
            return None
        return _extract(backend.model(), v, context, horizon)
    if backend.supports_maximize:
        lit = backend.bool_var("card_ge_1")
        backend.add(IMP(pos(lit), GE(fired_total, 1)))
        if _checked(backend, stats, [pos(lit)], maximize=fired_total) != "sat":
            return None
        return _extract(backend.model(), v, context, horizon)
    upper = min(len(pending),
                _matching_bound(pending) * len(context.fire_stages))
    for bound in range(upper, 0, -1):
        lit = backend.bool_var(f"card_ge_{bound}")
        backend.add(IMP(pos(lit), GE(fired_total, bound)))
        if _checked(backend, stats, [pos(lit)]) == "sat":
            return _extract(backend.model(), v, context, horizon)
    return None


def extract_schedule(windows: Sequence[WindowResult]) -> Schedule:
    """Stitch window results into one schedule.

    A replayed boundary stage must sit exactly where the previous window
    ended; its re-decided trap fields replace the committed ones (the fired
    set is kept).
    """
    acc: list[Stage] = []
    for res in windows:
        if not res.replaces_boundary:
            acc.extend(res.stages)
            continue
        if not acc:
            raise ConsistencyError("boundary replay with no committed stage")
        replay, last = res.stages[0], acc[-1]
        for q, st in replay.states.items():
            prev = last.states[q]
            if (st.x, st.y) != (prev.x, prev.y):
                raise ConsistencyError(
                    f"qubit {q} moved across a window boundary: "
                    f"({prev.x},{prev.y}) -> ({st.x},{st.y})")
        if replay.fired:
            raise ConsistencyError("gates fired at a replayed boundary stage")
        acc[-1] = Stage(replay.states, last.fired)
        acc.extend(res.stages[1:])
    return Schedule(acc)


def _row_major_placement(qubits: Sequence[int], region: Region
                         ) -> dict[int, QubitState]:
    sites = [(x, y) for x in region.x_range for y in region.y_range]
    return {q: QubitState(x=sx, y=sy, a=SLM)
            for q, (sx, sy) in zip(qubits, sites)}


def _internal_boundary(acc: list[Stage], user_init: bool) -> Boundary:
    last = acc[-1]
    if len(acc) == 1 and user_init:
        return Boundary("pinned_full", states=last.states, exempt=True)
    # a qubit trapped in a line at the boundary (or dropped from one at the
    # boundary instant) stays tied to that exact line if it is up at the
    # replayed stage; only qubits static through both stages pick lines
    # freely.  Keeps line-order continuity checkable and the label space
    # small.
    prev_traps = {q: (st.c, st.r)
                  for q, st in last.states.items() if st.a == AOD}
    if len(acc) >= 2:
        for q, st in acc[-2].states.items():
            if st.a == AOD and q not in prev_traps:
                prev_traps[q] = (st.c, st.r)
    return Boundary(
        "pinned_xy",
        xy={q: (st.x, st.y) for q, st in last.states.items()},
        prev_traps=prev_traps, exempt=True)


def _first_boundary(qubits, init, init_xy, stage0_aod_order) -> Boundary:
    if init is not None:
        return Boundary("pinned_full", states=dict(init))
    if init_xy is not None:
        col_order, row_order = stage0_aod_order
        return Boundary("pinned_xy", xy=dict(init_xy),
                        col_order=tuple(col_order), row_order=tuple(row_order))
    return Boundary("free")


def _window_spec(boundary: Boundary, horizon: int, qubits, pending, region,
                 blocklist, avoid, final_slm=frozenset(),
                 require_all=False) -> WindowSpec:
    if boundary.kind == "free":
        stages, fire_from = horizon, 0
    elif boundary.kind == "pinned_full" and not boundary.exempt:
        stages, fire_from = horizon + 1, 0
    else:
        stages, fire_from = horizon + 1, 1
    return WindowSpec(
        qubits=qubits, gates=pending, stages=stages, fire_from=fire_from,
        region=region, boundary=boundary, slm_blocklist=blocklist,
        avoid_sites=avoid, final_slm=final_slm, require_all_fired=require_all)


def _validate_inputs(circuit, region, init, init_xy, blocklist, avoid):
    qubits = list(range(circuit.num_qubits))
    if len(qubits) > region.num_sites:
        raise InfeasibleError(
            f"{len(qubits)} qubits cannot fit {region.num_sites} sites")
    if init is not None and init_xy is not None:
        raise ValueError("give either init or init_xy, not both")
    if init is not None:
        if set(init) != set(qubits):
            raise ValueError("init must map every circuit qubit")
        for q, st in init.items():
            if not site_in_region(region, st.x, st.y):
                raise InfeasibleError(f"init places qubit {q} outside region")
            if st.a == AOD and (st.c not in region.col_range
                                or st.r not in region.row_range):
                raise InfeasibleError(
                    f"init gives qubit {q} a line the region does not own")
    if init_xy is not None:
        if set(init_xy) != set(qubits):
            raise ValueError("init_xy must map every circuit qubit")
        for q, (px, py) in init_xy.items():
            if not site_in_region(region, px, py):
                raise InfeasibleError(f"init_xy places qubit {q} outside region")


def compile_circuit(circuit: Circuit, region: Region,
                    init: Mapping[int, QubitState] | None = None,
                    fixed_slm_blocklist: frozenset[tuple[int, int]] = frozenset(),
                    final_stage_slm: frozenset[int] = frozenset(),
                    opts: SolverOptions | None = None, *,
                    init_xy: Mapping[int, tuple[int, int]] | None = None,
                    stage0_aod_order: tuple[Sequence, Sequence] = ((), ()),
                    avoid_sites: frozenset[tuple[int, int]] = frozenset(),
                    self_check: bool = True,
                    array_for_check=None) -> CompileResult:
    """Compile a circuit onto a region; returns a verifier-clean schedule.

    All gates execute exactly once.  With `init` given, stage 0 equals it
    exactly; with `init_xy`, stage-0 positions are pinned and trap fields
    are solver-chosen under `stage0_aod_order` (column and row index order
    directives).  Qubits in `final_stage_slm` sit in static traps at the
    final stage.  `fixed_slm_blocklist` sites never hold a statically
    trapped qubit; `avoid_sites` are never occupied at all.
    """
    opts = opts or SolverOptions()
    _validate_inputs(circuit, region, init, init_xy,
                     fixed_slm_blocklist, avoid_sites)
    qubits = list(range(circuit.num_qubits))
    t0 = time.perf_counter()
    stats = _Stats(t0=t0, deadline=t0 + opts.timeout)
    backend = make_backend(opts.backend)
    try:
        windows = _run(circuit, region, qubits, init, init_xy,
                       stage0_aod_order, fixed_slm_blocklist, avoid_sites,
                       final_stage_slm, opts, backend, stats)
    finally:
        if hasattr(backend, "close"):
            backend.close()
    schedule = extract_schedule(windows)
    result = CompileResult(schedule=schedule, wall_time=stats.wall(),
                           solver_calls=stats.calls,
                           stage_budget_history=stats.budget_history)
    if self_check:
        from .verifier import verify
        report = verify(schedule, circuit,
                        array_for_check, scope=region)
        if not report.ok:
            raise VerificationError(
                "compiled schedule failed independent verification: "
                + "; ".join(f"{v.rule}@{v.stage}: {v.detail}"
                            for v in report.violations[:5]),
                report=report)
    return result


def _run(circuit, region, qubits, init, init_xy, stage0_aod_order,
         blocklist, avoid, final_slm, opts, backend, stats
         ) -> list[WindowResult]:
    pending = dict(enumerate(circuit.gates))
    windows: list[WindowResult] = []
    user_init = init is not None

    if not qubits:
        return [WindowResult([Stage({}, ())], {}, 1, False)]

    if opts.strategy == "optimal" and pending:
        windows.append(_solve_optimal(
            circuit, region, qubits, init, init_xy, stage0_aod_order,
            blocklist, avoid, opts, backend, stats))
        pending = {}
    elif not pending:
        # placement only: no solving needed for the supported boundaries
        if init is not None:
            stage0 = Stage(dict(init), ())
        elif init_xy is not None:
            stage0 = Stage({q: QubitState(x=px, y=py, a=SLM)
                            for q, (px, py) in init_xy.items()}, ())
        else:
            stage0 = Stage(_row_major_placement(qubits, region), ())
        windows.append(WindowResult([stage0], {}, 1, False))

    first = True
    while pending:
        if first and not windows:
            boundary = _first_boundary(qubits, init, init_xy, stage0_aod_order)
        else:
            boundary = _internal_boundary(
                extract_schedule(windows).stages, user_init)
        first = False
        result = None
        for horizon in range(opts.window, opts.max_horizon + 1):
            spec = _window_spec(boundary, horizon, qubits, pending, region,
                                blocklist, avoid)
            result = solve_window(pending, horizon, spec,
                                  backend=backend, stats=stats)
            if result is not None:
                break
        if result is None:
            raise InfeasibleError(
                f"no gate fireable within {opts.max_horizon} stages")
        windows.append(result)
        stats.budget_history.append(result.horizon)
        for g in result.fired:
            del pending[g]

    if final_slm:
        park = _park(extract_schedule(windows).stages, qubits, region,
                     blocklist, avoid, final_slm, user_init, opts,
                     backend, stats)
        if park is not None:
            windows.append(park)
    return windows


def _solve_optimal(circuit, region, qubits, init, init_xy, stage0_aod_order,
                   blocklist, avoid, opts, backend, stats) -> WindowResult:
    """Iterative deepening over the total stage count, all gates forced."""
    pending = dict(enumerate(circuit.gates))
    degree = [0] * circuit.num_qubits
    for u, v in circuit.gates:
        degree[u] += 1
        degree[v] += 1
    per_stage = _matching_bound(pending)
    lower = max(1, max(degree), -(-len(pending) // per_stage))
    boundary = _first_boundary(qubits, init, init_xy, stage0_aod_order)
    horizon = lower
    while True:
        stats.remaining()
        spec = _window_spec(boundary, horizon, qubits, pending, region,
                            blocklist, avoid, require_all=True)
        result = solve_window(pending, horizon, spec,
                              backend=backend, stats=stats)
        if result is not None:
            stats.budget_history.append(result.horizon)
            return result
        horizon += 1


def _park(acc: list[Stage], qubits, region, blocklist, avoid, final_slm,
          user_init, opts, backend, stats) -> WindowResult | None:
    """Drop the listed qubits into static traps at the final stage.

    In place when nothing is co-sited and no reserved site sits beneath a
    listed qubit; otherwise one small solve separates and drops.
    """
    last = acc[-1]
    listed_aod = [q for q in sorted(final_slm) if last.states[q].a == AOD]
    if not listed_aod:
        return None
    positions = [(st.x, st.y) for st in last.states.values()]
    collision = len(set(positions)) != len(positions)
    blocked = any((last.states[q].x, last.states[q].y) in blocklist
                  for q in listed_aod)
    if not collision and not blocked:
        states = dict(last.states)
        for q in listed_aod:
            st = states[q]
            states[q] = QubitState(x=st.x, y=st.y, a=SLM)
        return WindowResult([Stage(last.states, ()), Stage(states, ())],
                            {}, 1, True)
    boundary = _internal_boundary(acc, user_init)
    for horizon in range(1, opts.max_horizon + 1):
        spec = _window_spec(boundary, horizon, qubits, {}, region,
                            blocklist, avoid, final_slm=frozenset(final_slm))
        result = solve_window({}, horizon, spec, backend=backend, stats=stats)
        if result is not None:
            stats.budget_history.append(result.horizon)
            return result
    raise InfeasibleError(
        f"cannot park {sorted(final_slm)} within {opts.max_horizon} stages")
