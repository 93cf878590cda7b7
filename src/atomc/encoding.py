"""Constraint families for one solver window.

A window covers `stages` consecutive stages over the managed qubits.  Stage 0
is either free (the solver places qubits), pinned to caller-given states, or
pinned to positions inherited from an earlier window; movement between stages
t and t+1 is governed by stage-t trap membership; gates fire at stages >=
`fire_from`.

Families C2..C8 mirror the hardware rules: static-trap stationarity, rigid
lines, non-crossing, trap occupancy, gate co-siting, blockade isolation (as
pair exactness), gate coverage.  C1 (region bounds) is the variable domains
declared by make_vars.  Each family is an independent generator so it can be
switched off and tested in isolation.

One family, static_lines, removes symmetry instead of encoding a rule.  The
line indices c/r of a statically trapped qubit mean nothing: C3, C4, C5 and
prev_traps read them only under a[q,t], trap_transfer only under a[q,t-1],
and extraction drops them.  So a qubit static at t-1 and t (or at stage 0)
can hold the region's first index without losing any schedule, and the
solver no longer searches relabelings that change nothing.  The one
exception is the stage-0 col_order/row_order directives, which bind their
qubits' indices unconditionally; those qubits keep free stage-0 indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .arrays import Region
from .schedule import AOD, QubitState
from .smt import (AND, EQ, GE, IMP, LE, LT, NE, OR, BoolVar, Formula, IntVar,
                  Lit, LinExpr, lin, neg, pos, total)


@dataclass(frozen=True)
class Boundary:
    """How stage 0 of a window is fixed.

    kind "free": solver chooses placements, gates may fire at stage 0.
    kind "pinned_full": stage 0 equals `states` exactly.
    kind "pinned_xy": stage-0 positions equal `xy`; trap fields are
    solver-chosen subject to `prev_traps` (a qubit tied to a movable line at
    the boundary may only stay in or return to that same line) and to
    `col_order`/`row_order` directives on the stage-0 line index variables.
    `exempt` marks a replay of an already-committed stage, whose pair
    co-siting was validated by the window that produced it.
    """

    kind: str = "free"
    states: Mapping[int, QubitState] | None = None
    xy: Mapping[int, tuple[int, int]] | None = None
    prev_traps: Mapping[int, tuple[int, int]] = field(default_factory=dict)
    col_order: Sequence[tuple[int, int, str]] = ()
    row_order: Sequence[tuple[int, int, str]] = ()
    exempt: bool = False


@dataclass
class WindowSpec:
    """One windowed constraint problem."""

    qubits: Sequence[int]
    gates: Mapping[int, tuple[int, int]]  # pending gate id -> endpoints
    stages: int
    fire_from: int
    region: Region
    boundary: Boundary
    slm_blocklist: frozenset[tuple[int, int]] = frozenset()
    avoid_sites: frozenset[tuple[int, int]] = frozenset()
    final_slm: frozenset[int] = frozenset()
    require_all_fired: bool = False

    @property
    def transitions(self) -> range:
        return range(self.stages - 1)

    @property
    def fire_stages(self) -> range:
        return range(self.fire_from, self.stages)

    def pairs(self) -> Iterator[tuple[int, int]]:
        qs = list(self.qubits)
        for i, u in enumerate(qs):
            for v in qs[i + 1:]:
                yield u, v

    def gates_between(self, u: int, v: int) -> list[int]:
        key = {u, v}
        return [g for g, ends in self.gates.items() if set(ends) == key]


@dataclass
class Vars:
    x: dict[tuple[int, int], IntVar]
    y: dict[tuple[int, int], IntVar]
    c: dict[tuple[int, int], IntVar]
    r: dict[tuple[int, int], IntVar]
    a: dict[tuple[int, int], BoolVar]
    f: dict[tuple[int, int], BoolVar]  # (gate id, stage)

    def fired_total(self) -> LinExpr:
        return total([self.f[key] for key in sorted(self.f)])


def make_vars(backend, w: WindowSpec) -> Vars:
    """Declare all window variables.

    Domain bounds realize C1: site coordinates range over the governing
    region and line indices over the region-owned index ranges only.
    """
    reg = w.region
    x, y, c, r, a, f = {}, {}, {}, {}, {}, {}
    for q in w.qubits:
        for t in range(w.stages):
            x[q, t] = backend.int_var(f"x_q{q}_t{t}", reg.x_range.start,
                                      reg.x_range.stop - 1)
            y[q, t] = backend.int_var(f"y_q{q}_t{t}", reg.y_range.start,
                                      reg.y_range.stop - 1)
            c[q, t] = backend.int_var(f"c_q{q}_t{t}", reg.col_range.start,
                                      reg.col_range.stop - 1)
            r[q, t] = backend.int_var(f"r_q{q}_t{t}", reg.row_range.start,
                                      reg.row_range.stop - 1)
            a[q, t] = backend.bool_var(f"a_q{q}_t{t}")
    for g in sorted(w.gates):
        for s in w.fire_stages:
            f[g, s] = backend.bool_var(f"f_g{g}_s{s}")
    return Vars(x, y, c, r, a, f)


def c2_slm_stationary(v: Vars, w: WindowSpec) -> Iterator[Formula]:
    """A statically trapped qubit keeps its site across the transition."""
    for q in w.qubits:
        for t in w.transitions:
            yield IMP(neg(v.a[q, t]), EQ(v.x[q, t + 1], v.x[q, t]))
            yield IMP(neg(v.a[q, t]), EQ(v.y[q, t + 1], v.y[q, t]))


def c3_rigid_lines(v: Vars, w: WindowSpec) -> Iterator[Formula]:
    """Qubits sharing a line index share its coordinate, now and after the
    move (movement is by whole lines, keyed on stage-t membership)."""
    for u, q in w.pairs():
        for t in range(w.stages):
            both = AND(pos(v.a[u, t]), pos(v.a[q, t]))
            yield IMP(AND(both, EQ(v.c[u, t], v.c[q, t])),
                      EQ(v.x[u, t], v.x[q, t]))
            yield IMP(AND(both, EQ(v.r[u, t], v.r[q, t])),
                      EQ(v.y[u, t], v.y[q, t]))
            if t + 1 < w.stages:
                yield IMP(AND(both, EQ(v.c[u, t], v.c[q, t])),
                          EQ(v.x[u, t + 1], v.x[q, t + 1]))
                yield IMP(AND(both, EQ(v.r[u, t], v.r[q, t])),
                          EQ(v.y[u, t + 1], v.y[q, t + 1]))


def c4_no_crossing(v: Vars, w: WindowSpec) -> Iterator[Formula]:
    """Lines never pass each other: index order bounds coordinate order at
    every stage and across every move."""
    for u, q in w.pairs():
        for t in range(w.stages):
            both = AND(pos(v.a[u, t]), pos(v.a[q, t]))
            yield IMP(AND(both, LT(v.c[u, t], v.c[q, t])),
                      LE(v.x[u, t], v.x[q, t]))
            yield IMP(AND(both, LT(v.c[q, t], v.c[u, t])),
                      LE(v.x[q, t], v.x[u, t]))
            yield IMP(AND(both, LT(v.r[u, t], v.r[q, t])),
                      LE(v.y[u, t], v.y[q, t]))
            yield IMP(AND(both, LT(v.r[q, t], v.r[u, t])),
                      LE(v.y[q, t], v.y[u, t]))
            if t + 1 < w.stages:
                yield IMP(AND(both, LT(v.c[u, t], v.c[q, t])),
                          LE(v.x[u, t + 1], v.x[q, t + 1]))
                yield IMP(AND(both, LT(v.c[q, t], v.c[u, t])),
                          LE(v.x[q, t + 1], v.x[u, t + 1]))
                yield IMP(AND(both, LT(v.r[u, t], v.r[q, t])),
                          LE(v.y[u, t + 1], v.y[q, t + 1]))
                yield IMP(AND(both, LT(v.r[q, t], v.r[u, t])),
                          LE(v.y[q, t + 1], v.y[u, t + 1]))


def trap_transfer(v: Vars, w: WindowSpec) -> Iterator[Formula]:
    """Line membership persists while trapped in a movable line; together
    with C2 this forces transfers to happen at fixed coordinates (pickups
    are stationary by C2, drops land where the line went).

    In a single-transition window a pickup after the move can achieve
    nothing the boundary pickup cannot (a line picked late has no move left
    to make), so the solver only picks up at stage 0 there; this prunes the
    line-label space without losing schedules.
    """
    for q in w.qubits:
        for t in w.transitions:
            yield IMP(pos(v.a[q, t]), EQ(v.c[q, t + 1], v.c[q, t]))
            yield IMP(pos(v.a[q, t]), EQ(v.r[q, t + 1], v.r[q, t]))
        if w.stages == 2:
            yield IMP(neg(v.a[q, 0]), neg(v.a[q, 1]))


def static_lines(v: Vars, w: WindowSpec) -> Iterator[Formula]:
    """A qubit static at stage t-1 and t (or static at stage 0) holds the
    region's first column and row index (symmetry breaking; see the module
    docstring).  Qubits named by a stage-0 order directive keep free stage-0
    indices."""
    reg = w.region
    directed: set[int] = set()
    for u, q, _ in (*w.boundary.col_order, *w.boundary.row_order):
        directed.update((u, q))
    for q in w.qubits:
        for t in range(w.stages):
            if t == 0:
                if q in directed:
                    continue
                static = neg(v.a[q, 0])
            else:
                static = AND(neg(v.a[q, t - 1]), neg(v.a[q, t]))
            yield IMP(static, EQ(v.c[q, t], reg.col_range.start))
            yield IMP(static, EQ(v.r[q, t], reg.row_range.start))


def c5_occupancy(v: Vars, w: WindowSpec) -> Iterator[Formula]:
    """One qubit per static trap site, one per movable trap slot, and a
    firing pair is never two static traps (the meeting always involves a
    movable trap)."""
    for u, q in w.pairs():
        for t in range(w.stages):
            yield OR(pos(v.a[u, t]), pos(v.a[q, t]),
                     NE(v.x[u, t], v.x[q, t]), NE(v.y[u, t], v.y[q, t]))
            yield OR(neg(v.a[u, t]), neg(v.a[q, t]),
                     NE(v.c[u, t], v.c[q, t]), NE(v.r[u, t], v.r[q, t]))
    for g, (u, q) in sorted(w.gates.items()):
        for s in w.fire_stages:
            yield IMP(pos(v.f[g, s]),
                      GE(lin(v.a[u, s]) + lin(v.a[q, s]), 1))


def c6_gate_cosite(v: Vars, w: WindowSpec) -> Iterator[Formula]:
    """A fired gate's endpoints share a site at that stage."""
    for g, (u, q) in sorted(w.gates.items()):
        for s in w.fire_stages:
            yield IMP(pos(v.f[g, s]), EQ(v.x[u, s], v.x[q, s]))
            yield IMP(pos(v.f[g, s]), EQ(v.y[u, s], v.y[q, s]))


def c7_isolation(v: Vars, w: WindowSpec) -> Iterator[Formula]:
    """Pair exactness: two co-sited qubits must be firing a pending gate
    together at that stage.  This yields blockade isolation: any third
    qubit on a firing site would form a co-sited non-firing pair."""
    for u, q in w.pairs():
        fireable = w.gates_between(u, q)
        for t in range(w.stages):
            if t == 0 and w.boundary.exempt:
                continue  # replayed stage, validated by its own window
            fs = [pos(v.f[g, t]) for g in fireable] if t in w.fire_stages else []
            yield OR(NE(v.x[u, t], v.x[q, t]), NE(v.y[u, t], v.y[q, t]), *fs)


def c8_coverage(v: Vars, w: WindowSpec) -> Iterator[Formula]:
    """Each gate fires at most once per window (exactly once when the whole
    horizon must finish), and gates sharing a qubit never fire together."""
    for g in sorted(w.gates):
        fired = total([v.f[g, s] for s in w.fire_stages])
        if w.require_all_fired:
            yield EQ(fired, 1)
        else:
            yield LE(fired, 1)
    for q in w.qubits:
        incident = [g for g, ends in sorted(w.gates.items()) if q in ends]
        if len(incident) > 1:
            for s in w.fire_stages:
                yield LE(total([v.f[g, s] for g in incident]), 1)


def _site_id(v: Vars, w: WindowSpec, q: int, t: int) -> LinExpr:
    width = w.region.y_range.stop
    return LinExpr(((width, v.x[q, t]), (1, v.y[q, t])))


def blocklist_rows(v: Vars, w: WindowSpec) -> Iterator[Formula]:
    """No statically trapped qubit may sit on a reserved static site."""
    width = w.region.y_range.stop
    for q in w.qubits:
        for t in range(w.stages):
            for fx, fy in sorted(w.slm_blocklist):
                yield OR(pos(v.a[q, t]),
                         NE(_site_id(v, w, q, t), width * fx + fy))


def avoid_rows(v: Vars, w: WindowSpec) -> Iterator[Formula]:
    """Fully forbidden sites (occupied by parked qubits outside the window)."""
    width = w.region.y_range.stop
    for q in w.qubits:
        for t in range(w.stages):
            for fx, fy in sorted(w.avoid_sites):
                yield NE(_site_id(v, w, q, t), width * fx + fy)


def final_slm_rows(v: Vars, w: WindowSpec) -> Iterator[Formula]:
    """Listed qubits end the window in static traps."""
    last = w.stages - 1
    for q in sorted(w.final_slm):
        yield neg(v.a[q, last])


_ORDER_OPS = {"<": LT, "=": EQ, ">": lambda a, b: LT(b, a)}


def boundary_rows(v: Vars, w: WindowSpec) -> Iterator[Formula]:
    """Pin stage 0 according to the boundary condition."""
    b = w.boundary
    if b.kind == "free":
        return
    if b.kind == "pinned_full":
        assert b.states is not None
        for q in w.qubits:
            st = b.states[q]
            yield EQ(v.x[q, 0], st.x)
            yield EQ(v.y[q, 0], st.y)
            if st.a == AOD:
                yield pos(v.a[q, 0])
                yield EQ(v.c[q, 0], st.c)
                yield EQ(v.r[q, 0], st.r)
            else:
                yield neg(v.a[q, 0])
        return
    assert b.kind == "pinned_xy" and b.xy is not None
    for q in w.qubits:
        px, py = b.xy[q]
        yield EQ(v.x[q, 0], px)
        yield EQ(v.y[q, 0], py)
    for q, (pc, pr) in sorted(b.prev_traps.items()):
        # staying in or returning to a movable trap means the same line
        yield IMP(pos(v.a[q, 0]), EQ(v.c[q, 0], pc))
        yield IMP(pos(v.a[q, 0]), EQ(v.r[q, 0], pr))
    for u, q, rel in b.col_order:
        yield _ORDER_OPS[rel](v.c[u, 0], v.c[q, 0])
    for u, q, rel in b.row_order:
        yield _ORDER_OPS[rel](v.r[u, 0], v.r[q, 0])


# Family order does not fold pinned stages: single-variable pins tighten the
# backend's bounds, but big-M sizing and clause pruning use the declared
# domains (LinExpr.bounds).  HiGHS presolve does that folding.
ALL_FAMILIES = (
    boundary_rows,
    final_slm_rows,
    c2_slm_stationary,
    c3_rigid_lines,
    c4_no_crossing,
    trap_transfer,
    static_lines,
    c5_occupancy,
    c6_gate_cosite,
    c7_isolation,
    c8_coverage,
    blocklist_rows,
    avoid_rows,
)


def encode_window(backend, w: WindowSpec,
                  families: Iterable = ALL_FAMILIES) -> Vars:
    """Declare variables and assert every constraint family."""
    v = make_vars(backend, w)
    for family in families:
        for formula in family(v, w):
            backend.add(formula)
    return v
