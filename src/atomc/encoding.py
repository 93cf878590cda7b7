"""Constraint families for one solver window.

A window covers `stages` consecutive stages over the managed qubits.  Stage 0
is either free (the solver places qubits) or pinned to positions, given by
the caller or inherited from an earlier window; movement between stages t
and t+1 is governed by stage-t trap membership; gates fire at the last
stage only (`fire_stage`; `compiler.solve_window` says why that loses no
schedule).

One encoded model serves every window of a shape (`shape_key`): its stage
count, whether stage 0 is pinned, and the order of its held lines.  The
families read nothing else of a window but the compile's qubits, region
and avoided sites, and the gates they are given.  A compile encodes each
shape once over all of its gates; `window_bounds` then fixes by bounds
what tells one window of the shape from another (its stage-0 pins, the
lines its tied qubits hold, its parked qubits and its gates no longer
pending), so a window is a set of bounds on a shared matrix.  A fire
variable fixed at 0 leaves its gate's C6 and C7 items inert, as if the
gate were absent.

Families C2..C7 mirror the hardware rules: static-trap stationarity, rigid
and non-crossing lines (C3 and C4 as one family, line_order: index order
bounds coordinate order), trap occupancy, gate co-siting, blockade isolation
(as pair exactness).  C1 (region bounds) is the variable domains declared by
make_vars.  avoid_rows keeps every qubit off the avoided sites (in pac, the
sites of parked qubits outside the window).  Each family is an independent
generator of clauses, so it can be switched off and tested in isolation.  A
clause is a tuple of literals and comparisons of which at least one holds;
an implication p => q is written as the clause (not p, q).

No family states C8 (gates that share a qubit never fire together) or that
a firing pair holds a movable trap: every check of `compiler.solve_window`
fixes the fire variables to one qubit-disjoint matching, and with the fired
set fixed, `c5_occupancy` at the fire stage (two static qubits never share
a site) and `c6_gate_cosite` leave each firing pair a movable trap.

static_lines adds no rule of its own: it removes symmetry.  The line
indices c/r of a statically trapped qubit mean nothing: line_order, C5
and boundary_rows read them only under a[q,t], trap_transfer only under
a[q,t-1], and extraction drops them.  So a qubit static at t-1 and t (or
at stage 0) can hold the region's first index without losing any schedule,
and the solver no longer searches relabelings that change nothing.  The
one exception is the boundary's held lines: their stage-0 indices are
ordered unconditionally, so held qubits keep free stage-0 indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .arrays import Region
from .smt import EQ, GT, LE, LT, NE, BoolVar, Cmp, IntVar, Lit, neg, pos

Clause = tuple[Lit | Cmp, ...]  # at least one item holds


@dataclass(frozen=True)
class Boundary:
    """How stage 0 of a window is fixed.

    Free (`xy` is None): the solver chooses placements, and gates may fire
    at stage 0.  Pinned: stage-0 positions equal `xy` and no gate fires
    there; trap fields are solver-chosen subject to `prev_traps` (a qubit
    tied to a movable line at the boundary may only stay in or return to
    that same line) and to `held`.  `held` maps a qubit to the (column,
    row) it last held in an earlier phase: the stage-0 column indices of
    every two held qubits compare as those columns do, and likewise rows.
    Only the order of the held lines matters, not their values, so a lone
    held qubit, ordered against nothing, is dropped: `held` is empty or
    has two or more qubits.
    """

    xy: Mapping[int, tuple[int, int]] | None = None
    prev_traps: Mapping[int, tuple[int, int]] = field(default_factory=dict)
    held: Mapping[int, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.held) < 2:
            object.__setattr__(self, "held", {})


@dataclass
class WindowSpec:
    """One windowed constraint problem."""

    qubits: Sequence[int]
    # gate id -> endpoints: a window's pending gates, or all of a compile's
    # gates in the spec its shape is encoded for
    gates: Mapping[int, tuple[int, int]]
    stages: int
    region: Region
    boundary: Boundary
    avoid_sites: frozenset[tuple[int, int]] = frozenset()
    final_slm: frozenset[int] = frozenset()

    @property
    def transitions(self) -> range:
        return range(self.stages - 1)

    @property
    def fire_stage(self) -> int:
        return self.stages - 1

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
    f: dict[int, BoolVar]  # gate id -> fires at the fire stage
    # qubit -> the line a pinned stage 0 ties it to while up (boundary_rows)
    pc: dict[int, IntVar]
    pr: dict[int, IntVar]


def make_vars(backend, w: WindowSpec) -> Vars:
    """Declare all window variables.

    Domain bounds realize C1: site coordinates range over the governing
    region, and column and row indices over the lines it owns, which are
    its site ranges.  A pinned stage 0 adds each qubit's tied column and
    row, over the same ranges.
    """
    reg = w.region
    x, y, c, r, a, f, pc, pr = {}, {}, {}, {}, {}, {}, {}, {}
    for q in w.qubits:
        for t in range(w.stages):
            x[q, t] = backend.int_var(f"x_q{q}_t{t}", reg.x_range.start,
                                      reg.x_range.stop - 1)
            y[q, t] = backend.int_var(f"y_q{q}_t{t}", reg.y_range.start,
                                      reg.y_range.stop - 1)
            c[q, t] = backend.int_var(f"c_q{q}_t{t}", reg.x_range.start,
                                      reg.x_range.stop - 1)
            r[q, t] = backend.int_var(f"r_q{q}_t{t}", reg.y_range.start,
                                      reg.y_range.stop - 1)
            a[q, t] = backend.bool_var(f"a_q{q}_t{t}")
    for g in sorted(w.gates):
        f[g] = backend.bool_var(f"f_g{g}_s{w.fire_stage}")
    if w.boundary.xy is not None:
        for q in w.qubits:
            pc[q] = backend.int_var(f"pc_q{q}", reg.x_range.start,
                                    reg.x_range.stop - 1)
            pr[q] = backend.int_var(f"pr_q{q}", reg.y_range.start,
                                    reg.y_range.stop - 1)
    return Vars(x, y, c, r, a, f, pc, pr)


def c2_slm_stationary(v: Vars, w: WindowSpec) -> Iterator[Clause]:
    """A statically trapped qubit keeps its site across the transition."""
    for q in w.qubits:
        for t in w.transitions:
            yield pos(v.a[q, t]), EQ(v.x[q, t + 1], v.x[q, t])
            yield pos(v.a[q, t]), EQ(v.y[q, t + 1], v.y[q, t])


def line_order(v: Vars, w: WindowSpec) -> Iterator[Clause]:
    """C3 and C4 as one rule: while two qubits ride movable lines, index
    order bounds coordinate order, now and after the move (movement is by
    whole lines, keyed on stage-t membership).  Equal indices bound the
    coordinates both ways, so lines are rigid; a smaller index never stands
    right of (or below) a larger one, so lines never cross."""
    for u, q in w.pairs():
        for t in range(w.stages):
            either_static = neg(v.a[u, t]), neg(v.a[q, t])
            for s in range(t, min(t + 2, w.stages)):
                for lo, hi in ((u, q), (q, u)):
                    yield (*either_static, GT(v.c[lo, t], v.c[hi, t]),
                           LE(v.x[lo, s], v.x[hi, s]))
                    yield (*either_static, GT(v.r[lo, t], v.r[hi, t]),
                           LE(v.y[lo, s], v.y[hi, s]))


def trap_transfer(v: Vars, w: WindowSpec) -> Iterator[Clause]:
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
            yield neg(v.a[q, t]), EQ(v.c[q, t + 1], v.c[q, t])
            yield neg(v.a[q, t]), EQ(v.r[q, t + 1], v.r[q, t])
        if w.stages == 2:
            yield pos(v.a[q, 0]), neg(v.a[q, 1])


def static_lines(v: Vars, w: WindowSpec) -> Iterator[Clause]:
    """A qubit static at stage t-1 and t (or static at stage 0) holds the
    region's first column and row index (symmetry breaking; see the module
    docstring).  Held qubits keep free stage-0 indices."""
    reg = w.region
    for q in w.qubits:
        for t in range(w.stages):
            if t == 0:
                if q in w.boundary.held:
                    continue
                not_static = (pos(v.a[q, 0]),)
            else:
                not_static = pos(v.a[q, t - 1]), pos(v.a[q, t])
            yield (*not_static, EQ(v.c[q, t], reg.x_range.start))
            yield (*not_static, EQ(v.r[q, t], reg.y_range.start))


def c5_occupancy(v: Vars, w: WindowSpec) -> Iterator[Clause]:
    """One qubit per static trap site, one per movable trap slot."""
    for u, q in w.pairs():
        for t in range(w.stages):
            yield (pos(v.a[u, t]), pos(v.a[q, t]),
                   *NE(v.x[u, t], v.x[q, t]), *NE(v.y[u, t], v.y[q, t]))
            yield (neg(v.a[u, t]), neg(v.a[q, t]),
                   *NE(v.c[u, t], v.c[q, t]), *NE(v.r[u, t], v.r[q, t]))


def c6_gate_cosite(v: Vars, w: WindowSpec) -> Iterator[Clause]:
    """A fired gate's endpoints share a site at that stage."""
    s = w.fire_stage
    for g, (u, q) in sorted(w.gates.items()):
        yield neg(v.f[g]), EQ(v.x[u, s], v.x[q, s])
        yield neg(v.f[g]), EQ(v.y[u, s], v.y[q, s])


def c7_isolation(v: Vars, w: WindowSpec) -> Iterator[Clause]:
    """Pair exactness: two co-sited qubits must be firing a pending gate
    together at that stage.  This yields blockade isolation: any third
    qubit on a firing site would form a co-sited non-firing pair."""
    for u, q in w.pairs():
        fireable = w.gates_between(u, q)
        for t in range(w.stages):
            if t == 0 and w.boundary.xy is not None:
                # a pinned stage 0 is a replayed stage, checked by the
                # window that produced it, or the caller's init_xy, which
                # the compiler keeps on distinct sites
                continue
            fs = [pos(v.f[g]) for g in fireable] if t == w.fire_stage else []
            yield (*NE(v.x[u, t], v.x[q, t]), *NE(v.y[u, t], v.y[q, t]), *fs)


def avoid_rows(v: Vars, w: WindowSpec) -> Iterator[Clause]:
    """No qubit, in either trap kind, stands on an avoided site."""
    for q in w.qubits:
        for t in range(w.stages):
            for fx, fy in sorted(w.avoid_sites):
                yield (*NE(v.x[q, t], fx), *NE(v.y[q, t], fy))


def boundary_rows(v: Vars, w: WindowSpec) -> Iterator[Clause]:
    """A pinned stage 0: a qubit up there holds its tied line (pc, pr),
    and the held lines keep their order.  `window_bounds` fixes the tied
    line of each `prev_traps` qubit (staying in or returning to a movable
    trap means the same line) and leaves the others free."""
    b = w.boundary
    if b.xy is None:
        return
    for q in w.qubits:
        yield neg(v.a[q, 0]), EQ(v.c[q, 0], v.pc[q])
        yield neg(v.a[q, 0]), EQ(v.r[q, 0], v.pr[q])
    held = sorted(b.held)
    for axis, var in enumerate((v.c, v.r)):
        for i, u in enumerate(held):
            for q in held[i + 1:]:
                lu, lq = b.held[u][axis], b.held[q][axis]
                rel = LT if lu < lq else EQ if lu == lq else GT
                yield (rel(var[u, 0], var[q, 0]),)


# Pins are the bounds of one check (window_bounds), so big-M sizing and
# clause pruning use the declared domains (the variables' own lo and hi, read
# by MilpBackend._side); HiGHS presolve folds pinned stages.  Family order is
# row order, and HiGHS's search is sensitive to it.
ALL_FAMILIES = (
    boundary_rows,
    c2_slm_stationary,
    line_order,
    trap_transfer,
    static_lines,
    c5_occupancy,
    c6_gate_cosite,
    c7_isolation,
    avoid_rows,
)


def shape_key(w: WindowSpec) -> tuple:
    """What `encode_window` reads of a window besides the compile's qubits,
    region and avoided sites and the gates it is given: the stage count,
    whether stage 0 is pinned, and the held lines (`boundary_rows` and
    `static_lines` read their order; one compile holds one set of them)."""
    return (w.stages, w.boundary.xy is not None,
            tuple(sorted(w.boundary.held.items())))


def window_bounds(v: Vars, w: WindowSpec) -> dict:
    """The bounds that make `v`, encoded for w's shape over a superset of
    w's gates, the model of window w: its stage-0 pins and the lines of
    its tied qubits, its `final_slm` qubits static at the last stage, and
    every fire variable of a gate w does not list at 0."""
    fixed = {f: 0 for g, f in v.f.items() if g not in w.gates}
    fixed.update({v.a[q, w.stages - 1]: 0 for q in w.final_slm})
    b = w.boundary
    if b.xy is not None:
        for q in w.qubits:
            fixed[v.x[q, 0]], fixed[v.y[q, 0]] = b.xy[q]
        for q, (c, r) in b.prev_traps.items():
            fixed[v.pc[q]], fixed[v.pr[q]] = c, r
    return fixed


def encode_window(backend, w: WindowSpec, families: Iterable = ALL_FAMILIES
                  ) -> Vars:
    """Declare variables and assert every constraint family for w's shape
    over w's gates; `window_bounds` fixes the rest of a window."""
    v = make_vars(backend, w)
    for family in families:
        for clause in family(v, w):
            backend.add(*clause)
    return v
