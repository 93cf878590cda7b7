"""Constraint-based schedule compiler for one region.

The compiler peels the circuit greedily, window by window: each window
spans a small number of new stages, fires gates at its last stage only, and
is decided by MILP checks for descending gate counts k, one per k-matching
of its pending gates, that matching's gates fixed to fire and the rest not.
The first sat check fires as many pending gates as the window can, the
result is committed and the fired gates leave the pending set.  A window
whose every check is refuted cannot fire anything and grows its horizon
until it can, up to `MAX_HORIZON` new stages.

A pinned window with one new stage decides each matching without the
solver first (`_Moves`): a matching it refutes is skipped, a check it
decides with a model built by hand (a witness) makes no HiGHS call, and
anything else goes to HiGHS.  `_Moves` states why every window still fires
the matching it fires with HiGHS alone; a witness changes only where the
qubits go and which lines they ride.

A compile encodes each window shape (`encoding.shape_key`) once, over all
of its gates, into a backend of its own; a window of that shape is then
only bounds (`encoding.window_bounds`), which each of its checks merges
with its matching.  So every check of one shape shares one constraint
matrix, across windows.

Between windows the committed final stage is replayed as the next window's
stage 0: positions are pinned, trap fields are re-decided (a qubit that was
in a movable line immediately before the boundary may only stay in or return
to that same line), which lets a pickup happen at the boundary instant
instead of costing a stage.  The next boundary reads the last window's
final two stages, which stitching leaves as they are; `extract_schedule`
stitches the window results into the returned schedule in one pass.

Qubits listed to end in static traps that finish in a movable trap are
separated and dropped by one more window, grown the same way: the last
window fires at its last stage, so a firing pair shares a site there and
cannot simply drop where it stands.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping, Sequence

from .arrays import Region, site_in_region
from .circuits import Circuit
from .encoding import (Boundary, Vars, WindowSpec, encode_window, shape_key,
                       window_bounds)
from .errors import (CompileTimeout, ConsistencyError, InfeasibleError,
                     VerificationError)
from .schedule import AOD, SLM, CompileResult, QubitState, Schedule, Stage
from .smt import MilpBackend
from .verifier import verify

# the most new stages a window grows to, from 1, before the compile gives up
# as infeasible
MAX_HORIZON = 8

# the most units `_Moves.decide` spends on one matching before it leaves
# the matching to HiGHS: one at each leaf of its options and one at each
# meeting or drop site it tries, inside the bounds of that site's node
WITNESS_BUDGET = 256


@dataclass(frozen=True)
class SolverOptions:
    """Per-compile solver options.

    timeout: total wall budget in seconds for one compile call; positive
    (NaN is rejected, since it would disarm every budget check).
    """

    timeout: float = 600.0

    def __post_init__(self):
        if not self.timeout > 0:
            raise ValueError("timeout must be positive")


@dataclass
class WindowResult:
    """Stages and fired gates extracted from one sat window."""

    stages: list[Stage]
    fired: tuple[int, ...]  # gate ids, all fired at the last stage
    horizon: int  # new stages, not counting a stage-0 boundary


@dataclass
class _Stats:
    t0: float
    deadline: float
    calls: int = 0
    discarded: int = 0
    witnessed: int = 0
    budget_history: list[int] = field(default_factory=list)

    def wall(self) -> float:
        return time.perf_counter() - self.t0

    def remaining(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise CompileTimeout("solver budget exhausted",
                                 wall_time=self.wall(), solver_calls=self.calls)
        return left


def _checked(backend, stats: _Stats, fixed: dict) -> str:
    left = stats.remaining()
    stats.calls += 1
    answer = backend.check(timeout=left, fixed=fixed)
    if answer == "unknown":
        raise CompileTimeout("solver hit the time limit",
                             wall_time=stats.wall(), solver_calls=stats.calls)
    return answer


def _extract(model: dict[str, int], v: Vars, w: WindowSpec) -> WindowResult:
    stages = []
    fired = tuple(g for g, var in v.f.items() if model[var.name])
    for t in range(w.stages):
        states = {}
        for q in w.qubits:
            a = model[v.a[q, t].name]
            states[q] = QubitState(
                x=model[v.x[q, t].name], y=model[v.y[q, t].name], a=a,
                c=model[v.c[q, t].name] if a == AOD else None,
                r=model[v.r[q, t].name] if a == AOD else None)
        stages.append(Stage(states, fired if t == w.fire_stage else ()))
    return WindowResult(stages, fired,
                        w.stages - (w.boundary.xy is not None))


def solve_window(context: WindowSpec, *, gates: Mapping[int, tuple[int, int]],
                 shapes: dict, stats: _Stats) -> WindowResult | None:
    """Solve one window, firing as many of its gates as possible.

    `gates` are all of the compile's gates (`context.gates` holds the
    pending ones), and `shapes` is the compile's dict of encoded shapes,
    `shape_key` -> (backend, vars), filled here on a shape's first window.
    The window is decided by a sequence of checks on its shape's model,
    each a separate solver call; the first sat check is extracted.  The
    checks run over k from `matching_number` down to 1, and for each k over
    the k-matchings of the pending gates in lexicographic order of their
    sorted ids (`matchings`).  Each check fixes the window's bounds
    (`window_bounds`) and the fire variables of that matching, by bounds
    alone, so every check of a shape shares one constraint matrix.
    These checks own C8: the encoding states no coverage rule, since no
    check lets two gates that share a qubit fire together.  So the first
    sat check fires the window's optimum: every larger matching was refuted
    first.  Returns None when every check is refuted, since not even one
    gate fits in the horizon (the caller grows the window).  A window with
    nothing pending is one plain feasibility check.

    A pinned window with one new stage decides each matching with one
    search (`_Moves.decide`) before it checks it.  A matching it refutes is
    counted in `stats.discarded` and never checked.  A witness it builds
    that `MilpBackend.accept` takes is counted in `stats.witnessed`, and
    the check makes no HiGHS call.  Neither changes which matching the
    window fires (see `_Moves`).

    Gates fire at the window's last stage only, and that loses nothing.  A
    window grows to horizon h only after every shorter horizon with the
    same boundary and gates was refuted.  Suppose a horizon-h model could
    fire gates at other stages too, and let s, before the last, be its
    first stage that fires.  Its stages 0 to s then form a model of the
    shorter window that ends at s, firing only at its last stage, which
    was refuted.  Every family holds on the truncation stage by stage but
    one: `trap_transfer` forbids a pickup at the last stage of a two-stage
    window.  So drop each pickup at stage 1 (the qubit was static at stage
    0, so it stands where it stood), and keep in its line each qubit that
    dropped at stage 1 onto the site of a qubit now static.  Every qubit
    movable at stage 1 was then movable at stage 0 and keeps its line, so
    `line_order` at stage 1 follows from stage 0.  By `c5_occupancy` at
    stage 0 two static qubits never share a site, so no two static qubits
    share one at stage 1 either.  A window with gates lists no `final_slm`
    qubit, so its bounds do not bind the truncation's last stage.
    """
    key = shape_key(context)
    if key not in shapes:
        backend = MilpBackend()
        shapes[key] = backend, encode_window(backend,
                                             replace(context, gates=gates))
    backend, v = shapes[key]
    bounds = window_bounds(v, context)
    moves = _Moves.of(context)
    for m in _checks(context):
        fixed = {**bounds, **{v.f[g]: int(g in m) for g in context.gates}}
        if moves is not None:
            stats.remaining()
            found = moves.decide(m, v)
            if found is False:
                stats.discarded += 1
                continue
            if found is not None and backend.accept(found, fixed):
                stats.witnessed += 1
                return _extract(backend.model(), v, context)
        if _checked(backend, stats, fixed) == "sat":
            return _extract(backend.model(), v, context)
    return None


def _checks(context: WindowSpec) -> Iterator[tuple[int, ...]]:
    """The matchings `solve_window` checks, in order: for k from
    `matching_number` down to 1, the k-matchings in lexicographic order;
    for a window with nothing pending, the empty one."""
    if not context.gates:
        yield ()
    for k in range(matching_number(context.gates), 0, -1):
        yield from matchings(context.gates, k)


class _Spent(Exception):
    """`_Moves.decide` spent `WITNESS_BUDGET`."""


class _Moves:
    """The moves a pinned window with one transition allows, read from its
    own rules with no solver: one search per matching (`decide`) that
    refutes it, builds a model of its check (a witness), or leaves it to
    HiGHS.

    There only qubits up (in a movable trap) at stage 0 move:
    `c2_slm_stationary` keeps static ones still and `trap_transfer` forbids
    a pickup at stage 1.  A firing gate (u, q) therefore takes one of three
    options: u up and q static, u moving onto q's site; q up and u static;
    or both up, meeting at a common site.  Neither up would leave two
    static qubits on one site at stage 0 (`c5_occupancy`).

    The rules are one system of difference constraints per axis
    (`_system`), solved by longest paths.  Its nodes are the stage-0 line
    indices of the up qubits and of the held qubits (one per held
    line), and the stage-1 coordinates of the up qubits, one node for the
    two of a pair that meets.  Its edges and bounds:

    - Move order (`order`, from `line_order`).  A strict stage-0 order of
      two up qubits is a strict index order, and a known index order a
      weak stage-1 order (equal lines, equal coordinates).  Where `order`
      knows none, differing placed stage-1 coordinates order the indices.
    - Known lines.  A tied qubit's index is fixed (`window_bounds` fixes
      its `pc` and `pr`); the held lines keep their order (`boundary_rows`).
    - Sites.  A placed qubit's coordinate is fixed, and every value lies in
      the region.  Two nodes take two sites, none avoided (`avoid_rows`,
      and `c7_isolation` with every other fire variable fixed at 0), so no
      node is pinned to an avoided site and no two are forced onto one.

    `decide` searches the relaxed space the system spans: an option per
    gate, each kept while the system stays feasible, then each pair that
    meets placed on a site of its own, apart from every other such pair's
    and from every one-up mover's landing site, the system solved after
    each placement.  The site may be one a qubit stands on at stage 0,
    since an up qubit can leave it.  Bystanders are ignored there, which
    only weakens the rules.  A discard means the search exhausted that
    space within `WITNESS_BUDGET` without reaching a leaf, every pair
    placed.  Each leaf it reaches it tries to complete: the other qubits
    stay static but for one of two static qubits on one site, which
    departs and drops on a free site, the system solved after each drop,
    and the last solve's value pass gives every line index.

    A discarded matching's check is refuted.  Any model of the check gives
    each of its gates an option, the endpoints up at stage 0 and the site
    where the pair meets, and the model's values for those up qubits
    satisfy the system: each edge and bound above follows from the family
    it names under the check's bounds (held lines bind whether up or not),
    the sites a pair shares and a one-up mover lands on from
    `c6_gate_cosite`, and the region from the variable domains.  A system
    with fewer nodes or fewer placed sites only loses edges and bounds, so the
    model's values satisfy it at every prefix of the options and every
    partial placement of the sites, in any order, and each site lies
    inside the bounds the system solved before it gives its node.  So the
    model's options and sites are a leaf the search reaches unless its
    budget runs out first.  Hence the check has no model and would be
    refuted, and `solve_window`'s first sat check is the one it was
    without the search.

    A witness that `MilpBackend.accept` takes is a model of the check:
    `accept` takes it only when every row and bound of the check holds,
    its reified binaries set to the truth of their comparisons, so the
    check is sat, and HiGHS would find it sat.  A matching the search
    neither refutes nor witnesses, and a rejected witness, leave the check
    to HiGHS.  So each check before the accepted one was refuted, or
    discarded and so refuted, as without the search, and the accepted
    check is the first sat one: the lexicographically first feasible
    matching at the window's optimum count.  Only the model differs, which
    `verify` still judges with the rest of the schedule, and a mistake in
    the completion costs a solver call, never a wrong model."""

    def __init__(self, w: WindowSpec):
        self.w = w
        self.xy = xy = w.boundary.xy
        self.sites = frozenset((x, y) for x in w.region.x_range
                               for y in w.region.y_range) - w.avoid_sites
        self.stage0 = Counter(xy.values())
        self.span = [(r.start, r.stop - 1)
                     for r in (w.region.x_range, w.region.y_range)]
        # per axis, each held qubit's line node
        self.held = [{q: ("held", w.boundary.held[q][axis])
                      for q in w.boundary.held} for axis in (0, 1)]
        # per-window memos of the methods they wrap; matchings share the
        # prefixes of their options, so `prefix` solves each one once
        self.order = functools.cache(self._order)
        self.near = functools.cache(self._near)
        self.prefix = functools.cache(
            lambda at1, pairs: self._system(dict(at1), pairs))
        # gate -> its options: the qubits up at stage 0, and the site a lone
        # mover lands on or None for a pair that meets
        self.options = {g: (((u,), xy[q]), ((q,), xy[u]), ((u, q), None))
                        for g, (u, q) in w.gates.items()}

    @classmethod
    def of(cls, w: WindowSpec) -> "_Moves | None":
        """The window's moves, or None for a free or grown window."""
        if w.boundary.xy is None or w.stages != 2:
            return None
        return cls(w)

    def _order(self, i: int, j: int) -> tuple | None:
        """Per axis, whether i <= j and whether i >= j at stage 1 when i
        and j are both up at stage 0; None when they cannot both be."""
        b, xy = self.w.boundary, self.xy
        out = []
        for axis in (0, 1):
            step = (xy[i][axis] > xy[j][axis]) - (xy[i][axis] < xy[j][axis])
            le, ge = step < 0, step > 0
            for lines in (b.prev_traps, b.held):
                if i in lines and j in lines:
                    li, lj = lines[i][axis], lines[j][axis]
                    rank = (li > lj) - (li < lj)
                    if step not in (0, rank):
                        return None
                    le, ge = le or rank <= 0, ge or rank >= 0
            out.append((le, ge))
        return tuple(out)

    def _system(self, at1: Mapping[int, tuple[int, int] | None],
                pairs: Sequence[tuple[int, int]]) -> list | None:
        """The system for the qubits up at stage 0, `at1` giving each one's
        stage-1 site or None where it is not placed, and `pairs` the up
        qubits of each pair that meets: per axis (0: columns, 1: rows),
        the least and greatest value of each node, the edges, and each
        qubit's line node; None when no values fit."""
        tied = self.w.boundary.prev_traps
        node = {q: ("site", up[0]) for up in pairs for q in up}
        node.update({q: ("site", q) for q in at1 if q not in node})
        out = []  # per axis: lo, hi, edges (a, c, w): c >= a + w, line
        for axis in (0, 1):
            first, last = self.span[axis]
            line = dict(self.held[axis])
            held = sorted(set(line.values()))  # the held lines, in order
            edges = {(k, c, 1) for k, c in zip(held, held[1:])}
            line.update((q, ("line", q)) for q in at1 if q not in line)
            lo = dict.fromkeys([*line.values(), *node.values()], first)
            hi = dict.fromkeys(lo, last)
            for q, s in at1.items():
                if q in tied:
                    k, fixed = line[q], tied[q][axis]
                    lo[k], hi[k] = max(lo[k], fixed), min(hi[k], fixed)
                if s is not None:
                    lo[node[q]] = hi[node[q]] = s[axis]
            out.append((lo, hi, edges, line))
        ups = sorted(at1)
        for n, i in enumerate(ups):
            for j in ups[n + 1:]:
                o = self.order(i, j)
                if o is None:
                    return None
                for axis, (le, ge) in enumerate(o):
                    _, _, edges, line = out[axis]
                    if le:
                        edges.add((node[i], node[j], 0))
                    if ge:
                        edges.add((node[j], node[i], 0))
                    if not (le or ge) and None not in (at1[i], at1[j]):
                        le, ge = at1[i][axis] < at1[j][axis], \
                            at1[i][axis] > at1[j][axis]
                    if le != ge:
                        edges.add((line[i], line[j], 1) if le
                                  else (line[j], line[i], 1))
        for lo, hi, edges, _ in out:
            top = {k: -v for k, v in hi.items()}
            if not _longest(lo, hi, edges):
                return None
            _longest(top, {k: -v for k, v in lo.items()},
                     {(c, a, w) for a, c, w in edges})
            hi.update((k, -v) for k, v in top.items())
        (xlo, xhi, _, _), (ylo, yhi, _, _) = out
        keys = set(node.values())
        at = {k: (xlo[k], ylo[k]) for k in keys
              if xlo[k] == xhi[k] and ylo[k] == yhi[k]}
        if len(set(at.values())) < len(at) or not self.sites.issuperset(
                at.values()):
            return None  # two nodes pinned to one site, or one avoided
        free = self.sites.difference(at.values())
        for k in keys - at.keys():
            if not any(xlo[k] <= x <= xhi[k] and ylo[k] <= y <= yhi[k]
                       for x, y in free):
                return None  # no site left to it
            if any(c != k and all(lo[k] == hi[k] == lo[c] == hi[c]
                                  or (k, c, 0) in e and (c, k, 0) in e
                                  for lo, hi, e, _ in out) for c in keys):
                return None  # forced onto one site with another node
        return out

    def decide(self, m: Sequence[int], v: Vars) -> dict | bool | None:
        """The window's check that fires exactly m (gate ids of the
        window's gates), decided with no solver: False when the search
        exhausts the relaxed space without a leaf, so that no model fires
        m and the check is refuted; a witness, a value for every variable
        of `v`, when a leaf completes; None, undecided, when it reaches
        leaves but completes none, or spends `WITNESS_BUDGET`.

        Meeting sites are tried for the pair with the fewest left first,
        those no qubit stands on at stage 0 ahead of the rest, nearest
        first (`near`).  A departing qubit tries the sites no static qubit
        stands on, nearest first.  Either tries only the sites inside the
        bounds the system solved before it gives its node; placing the
        node only tightens the system, so no site outside them is feasible.
        Each leaf of the options and each site tried costs one unit of the
        budget."""
        w, xy, gates = self.w, self.xy, self.w.gates
        endpoints = {q for g in m for q in gates[g]}
        # up at stage 0 -> stage-1 site, None for a pair not yet placed
        at1: dict[int, tuple[int, int] | None] = {}
        pairs: list = []  # the up qubits of each pair that meets
        left = WITNESS_BUDGET
        relaxed = False

        def charge() -> None:
            """Spend one unit of the budget; raise `_Spent` when none is
            left."""
            nonlocal left
            if left <= 0:
                raise _Spent
            left -= 1

        def tried(up: tuple[int, ...], sites) -> Iterator[list]:
            """The feasible systems with the qubits `up` on each of `sites`;
            `up` maps to None after."""
            for s in sites:
                for q in up:
                    at1[q] = s
                charge()
                solved = self._system(at1, pairs)
                if solved is not None:
                    yield solved
            for q in up:
                at1[q] = None

        def free(up: tuple[int, ...], taken, solved) -> list:
            """The sites not in `taken` for the qubits `up`, nearest first,
            inside the bounds `solved` gives their node."""
            k = ("site", up[0])
            (xlo, xhi, _, _), (ylo, yhi, _, _) = solved
            return [s for s in self.near(up) if s not in taken
                    and xlo[k] <= s[0] <= xhi[k] and ylo[k] <= s[1] <= yhi[k]]

        def extend(i: int, solved) -> Iterator[dict]:
            if i == len(m):
                charge()
                yield from meet(list(pairs), solved)
                return
            for up, site in self.options[m[i]]:
                at1.update(dict.fromkeys(up, site))
                if site is None:
                    pairs.append(up)
                again = self.prefix(tuple(at1.items()), tuple(pairs))
                if again is not None:
                    yield from extend(i + 1, again)
                if site is None:
                    pairs.pop()
                for q in up:
                    del at1[q]

        def meet(rest: list, solved) -> Iterator[dict]:
            """Place each pair of up qubits in `rest` on a site of its own,
            taken by no one, then complete."""
            nonlocal relaxed
            if not rest:
                relaxed = True
                yield from depart(solved)
                return
            taken = set(at1.values())
            sites, up = min(((free(up, taken, solved), up) for up in rest),
                            key=lambda found: len(found[0]))
            rest = [p for p in rest if p != up]
            for solved in tried(up, sites):
                yield from meet(rest, solved)

        def depart(solved) -> Iterator[dict]:
            # stage-1 site -> the qubits of the gate that fires there
            taken = {at1[u] if u in at1 else at1[q]: (u, q)
                     for u, q in map(gates.get, m)}
            # the static qubits by stage-0 site: each site keeps one
            groups: dict[tuple[int, int], list[int]] = {}
            for q in w.qubits:
                if q not in at1:
                    groups.setdefault(xy[q], []).append(q)
            plans = []  # per shared site, each (stayer, departers) to try
            for site, group in sorted(groups.items()):
                # the site's static endpoint stays, or else a tied qubit
                # rather than an untied one, whose line is free
                stayers = [q for q in group if q in endpoints] or sorted(
                    group, key=lambda z: (z not in w.boundary.prev_traps, z))
                if site in taken:  # a mover lands on its static partner
                    stayers = [z for z in stayers if z in taken[site]]
                if not stayers:
                    return
                if len(group) > 1:
                    plans.append([tuple(p for p in group if p != z)
                                  for z in stayers])
            static = set(groups)

            def drop(k: int, queue: tuple[int, ...], solved) -> Iterator[dict]:
                if queue:
                    p = queue[0]
                    at1[p] = None
                    here = self._system(at1, pairs)
                    sites = [] if here is None else free(
                        (p,), static.union(taken), here)
                    for again in tried((p,), sites):
                        taken[at1[p]] = (p,)
                        yield from drop(k, queue[1:], again)
                        del taken[at1[p]]
                    del at1[p]
                elif k == len(plans):
                    found = self._values(m, v, at1, solved)
                    if found is not None:
                        yield found
                else:
                    for departers in plans[k]:
                        yield from drop(k + 1, departers, solved)

            yield from drop(0, (), solved)

        solved = self.prefix((), ())
        if solved is None:
            return False
        try:
            found = next(extend(0, solved), None)
        except _Spent:
            return None
        return False if found is None and not relaxed else found

    def _near(self, up: tuple[int, ...]) -> list[tuple[int, int]]:
        """Every site, nearest to the qubits `up` first: least summed
        distance, then least difference between their distances.  For a
        pair that meets, the sites no qubit stands on at stage 0 come
        first."""
        def far(s):
            d = [abs(s[0] - self.xy[q][0]) + abs(s[1] - self.xy[q][1])
                 for q in up]
            return (len(up) > 1 and self.stage0[s] > 0, sum(d),
                    max(d) - min(d), s)

        return sorted(self.sites, key=far)

    def _values(self, m, v: Vars, at1, solved: list) -> dict | None:
        """The witness: a value for every variable of `v`, the line indices
        from the value pass over `solved`, its leaf's system; None when it
        puts two up qubits in one trap (`c5_occupancy`).  A qubit up at
        stage 0 stays up when it fires and drops otherwise.

        The value pass takes each axis's line nodes in order of their least
        values, an order of the strict edges.  Each index sits as close to
        its qubit's stage-1 coordinate (the least qubit's for a held line,
        and a held qubit's stage-0 one when it is not up) as the indices
        before it and the room left after it allow."""
        w, xy = self.w, self.xy
        index = []
        for axis, (lo, hi, edges, line) in enumerate(solved):
            target, pred, val = {}, {}, {}
            for q in sorted(line, reverse=True):
                target[line[q]] = (at1.get(q) or xy[q])[axis]
            for a, c, step in edges:
                if step:
                    pred.setdefault(c, []).append(a)
            for k in sorted(target, key=lo.get):
                val[k] = min(hi[k], max([target[k], lo[k]] + [
                    val[a] + 1 for a in pred.get(k, ())]))
            index.append({q: val[k] for q, k in line.items()})
        cols, rows = index
        if len({(cols[q], rows[q]) for q in at1}) < len(at1):
            return None
        first = w.region.x_range.start, w.region.y_range.start
        ends = {q for g in m for q in w.gates[g]}
        out = {}
        for q in w.qubits:
            up = q in at1
            line = cols.get(q, first[0]), rows.get(q, first[1])
            for t, (x, y) in enumerate((xy[q], at1.get(q, xy[q]))):
                out[v.x[q, t]], out[v.y[q, t]] = x, y
            out[v.a[q, 0]], out[v.a[q, 1]] = int(up), int(up and q in ends)
            out[v.c[q, 0]], out[v.r[q, 0]] = line
            out[v.c[q, 1]], out[v.r[q, 1]] = line if up else first
            out[v.pc[q]], out[v.pr[q]] = (
                line if up else w.boundary.prev_traps.get(q, first))
        fired = set(m)
        out.update({f: int(g in fired) for g, f in v.f.items()})
        return out


def _longest(lo: dict, hi: dict, edges) -> bool:
    """Raise each lo[c] to lo[a] + w along every edge (a, c, w),
    transitively: the longest paths into each node from its bound.  False
    when some lo passes its hi, so that no values fit."""
    out: dict = {}
    for a, c, w in edges:
        out.setdefault(a, []).append((c, w))
    todo = list(lo)
    while todo:
        a = todo.pop()
        if lo[a] > hi[a]:
            return False
        for c, w in out.get(a, ()):
            if lo[a] + w > lo[c]:
                lo[c] = lo[a] + w
                todo.append(c)
    return True


def matching_number(gates: Mapping[int, tuple[int, int]]) -> int:
    """The size of a maximum matching of the gate graph: the most of these
    gates one window can fire.  Edmonds' blossom algorithm (Edmonds, "Paths,
    trees, and flowers", 1965): from each free qubit, one breadth-first
    search for an augmenting path, which contracts each odd cycle it closes
    to the cycle's base."""
    adj: dict[int, set[int]] = {}
    for u, v in gates.values():
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    mate: dict[int, int] = {}
    for root in adj:
        if root not in mate:
            _augment(adj, mate, root)
    return len(mate) // 2


def _augment(adj: dict[int, set[int]], mate: dict[int, int], root: int
             ) -> None:
    """Grow `mate` by one edge along an augmenting path from free `root`,
    if the graph `adj` has one."""
    base = {q: q for q in adj}
    parent: dict[int, int] = {}
    seen, queue = {root}, [root]

    def path(q):  # the bases from q's up to the root's
        out = [base[q]]
        while out[-1] != root:
            out.append(base[parent[mate[out[-1]]]])
        return out

    def mark(q, b, child, blossom):  # q's side of a cycle, from q to base b
        while base[q] != b:
            blossom |= {base[q], base[mate[q]]}
            parent[q], child = child, mate[q]
            q = parent[child]

    for q in queue:
        for r in adj[q]:
            if base[q] == base[r] or mate.get(q) == r:
                continue
            if r == root or r in mate and mate[r] in parent:  # r is even
                # q-r closes an odd cycle: contract it to b, the first base
                # the two paths to the root share
                on_q = set(path(q))
                b = next(c for c in path(r) if c in on_q)
                blossom: set[int] = set()
                mark(q, b, r, blossom)
                mark(r, b, q, blossom)
                for c in adj:
                    if base[c] in blossom:
                        base[c] = b
                        if c not in seen:
                            seen.add(c)
                            queue.append(c)
            elif r not in parent:
                parent[r] = q
                if r not in mate:  # flip the path's edges in and out
                    while r is not None:
                        q = parent[r]
                        mate[r], mate[q], r = q, r, mate.get(q)
                    return
                seen.add(mate[r])
                queue.append(mate[r])


def matchings(gates: Mapping[int, tuple[int, int]], k: int
              ) -> Iterator[tuple[int, ...]]:
    """Every set of k gates that share no qubit, as sorted gate ids, in
    lexicographic order: the qubit-disjoint members of
    `itertools.combinations(sorted(gates), k)`, in that order.  Two copies of
    one pair share both qubits, so no matching holds both."""
    ids = sorted(gates)
    chosen: list[int] = []
    used: set[int] = set()

    def extend(start: int) -> Iterator[tuple[int, ...]]:
        if len(chosen) == k:
            yield tuple(chosen)
            return
        for i in range(start, len(ids) - (k - len(chosen)) + 1):
            u, v = gates[ids[i]]
            if u in used or v in used:
                continue
            chosen.append(ids[i])
            used.update((u, v))
            yield from extend(i + 1)
            chosen.pop()
            used.difference_update((u, v))

    yield from extend(0)


def extract_schedule(windows: Sequence[WindowResult]) -> Schedule:
    """Stitch window results into one schedule.

    Every window after the first replays the last stitched stage as its
    stage 0.  The replay must sit exactly where the previous window ended;
    its re-decided trap fields replace the stitched ones (the fired set is
    kept).
    """
    acc: list[Stage] = list(windows[0].stages)
    for res in windows[1:]:
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


def _row_major_placement(qubits: Sequence[int], region: Region,
                         avoid: frozenset[tuple[int, int]]
                         ) -> dict[int, QubitState]:
    sites = [(x, y) for x in region.x_range for y in region.y_range
             if (x, y) not in avoid]
    if len(sites) < len(qubits):
        raise InfeasibleError(f"{len(qubits)} qubits cannot fit the "
                              f"{len(sites)} sites that are not avoided")
    return {q: QubitState(x=sx, y=sy, a=SLM)
            for q, (sx, sy) in zip(qubits, sites)}


def _internal_boundary(stages: Sequence[Stage]) -> Boundary:
    """The boundary that replays the last of `stages` (a window's stages,
    or a stitched schedule's: their last two stage states agree)."""
    last = stages[-1]
    # a qubit trapped in a line at the boundary (or dropped from one at the
    # boundary instant) stays tied to that exact line if it is up at the
    # replayed stage; only qubits static through both stages pick lines
    # freely.  Keeps line-order continuity checkable and the label space
    # small.
    prev_traps = {q: (st.c, st.r)
                  for q, st in last.states.items() if st.a == AOD}
    if len(stages) >= 2:
        for q, st in stages[-2].states.items():
            if st.a == AOD and q not in prev_traps:
                prev_traps[q] = (st.c, st.r)
    return Boundary(xy={q: (st.x, st.y) for q, st in last.states.items()},
                    prev_traps=prev_traps)


def _validate_inputs(circuit, region, init_xy, held_lines, avoid,
                     final_slm):
    qubits = list(range(circuit.num_qubits))
    if len(qubits) > region.num_sites:
        raise InfeasibleError(
            f"{len(qubits)} qubits cannot fit {region.num_sites} sites")
    for name, named in (("held_lines", held_lines),
                        ("final_stage_slm", final_slm)):
        stray = sorted(set(named) - set(qubits))
        if stray:
            raise ValueError(f"{name} names qubit {stray[0]}, which is not "
                             "in the circuit")
    if init_xy is None:
        if held_lines:
            raise ValueError("held_lines needs init_xy: it orders the lines "
                             "of a pinned stage 0")
        return
    if set(init_xy) != set(qubits):
        raise ValueError("init_xy must map every circuit qubit")
    # stage 0 of the first window is not a replay: pair exactness (C7)
    # holds there, and no qubit ever stands on an avoided site
    holder: dict[tuple[int, int], int] = {}
    for q, (px, py) in sorted(init_xy.items()):
        site = (px, py)
        if not site_in_region(region, px, py):
            raise InfeasibleError(f"init_xy places qubit {q} outside region")
        if site in avoid:
            raise InfeasibleError(
                f"init_xy places qubit {q} on avoided site {site}")
        if site in holder:
            raise InfeasibleError(
                f"init_xy places qubits {holder[site]} and {q} on one site "
                f"{site}")
        holder[site] = q


def compile_circuit(circuit: Circuit, region: Region, *,
                    final_stage_slm: frozenset[int] = frozenset(),
                    opts: SolverOptions | None = None,
                    init_xy: Mapping[int, tuple[int, int]] | None = None,
                    held_lines: Mapping[int, tuple[int, int]] | None = None,
                    avoid_sites: frozenset[tuple[int, int]] = frozenset()
                    ) -> CompileResult:
    """Compile a circuit onto a region; returns a verifier-clean schedule.

    All gates execute exactly once.  Without `init_xy` the solver places
    every qubit; with it, stage-0 positions are pinned and trap fields are
    solver-chosen, the stage-0 line indices of the `held_lines` qubits
    keeping the order of the (column, row) each last held (see
    `Boundary.held`).  Qubits in `final_stage_slm` sit in static traps at
    the final stage.  `avoid_sites` are never occupied, by a qubit in
    either trap kind, at any stage.
    """
    opts = opts or SolverOptions()
    held_lines = held_lines or {}
    _validate_inputs(circuit, region, init_xy, held_lines, avoid_sites,
                     final_stage_slm)
    t0 = time.perf_counter()
    stats = _Stats(t0=t0, deadline=t0 + opts.timeout)
    boundary = (Boundary() if init_xy is None
                else Boundary(xy=dict(init_xy), held=dict(held_lines)))
    windows = _run(circuit, region, boundary, avoid_sites, final_stage_slm,
                   stats)
    schedule = extract_schedule(windows)
    result = CompileResult(schedule=schedule, wall_time=stats.wall(),
                           solver_calls=stats.calls,
                           stage_budget_history=stats.budget_history,
                           discarded=stats.discarded,
                           witnessed=stats.witnessed)
    report = verify(schedule, circuit, scope=region)
    if not report.ok:
        raise VerificationError(
            "compiled schedule failed independent verification", report)
    return result


def _run(circuit, region, boundary, avoid, final_slm,
         stats) -> list[WindowResult]:
    qubits = list(range(circuit.num_qubits))
    if not qubits:
        return [WindowResult([Stage({}, ())], (), 1)]
    shapes: dict = {}  # this compile's only: pac runs two compiles at once
    all_gates = dict(enumerate(circuit.gates))
    pending = dict(all_gates)
    windows: list[WindowResult] = []

    def grow(boundary, gates, **spec) -> WindowResult | None:
        """Solve the window at horizons 1 to MAX_HORIZON in turn; return the
        first sat one, recorded in the budget history, or None."""
        for horizon in range(1, MAX_HORIZON + 1):
            w = WindowSpec(qubits, gates,
                           horizon + (boundary.xy is not None), region,
                           boundary, avoid, **spec)
            result = solve_window(w, gates=all_gates, shapes=shapes,
                                  stats=stats)
            if result is not None:
                stats.budget_history.append(result.horizon)
                return result
        return None

    if not pending:
        # placement only: no solving needed
        if boundary.xy is not None:
            states = {q: QubitState(x=px, y=py, a=SLM)
                      for q, (px, py) in boundary.xy.items()}
        else:
            states = _row_major_placement(qubits, region, avoid)
        windows.append(WindowResult([Stage(states, ())], (), 1))
    while pending:
        # a snapshot: fired gates leave `pending`, not the window's spec
        result = grow(boundary, dict(pending))
        if result is None:
            raise InfeasibleError(
                f"no gate fireable within {MAX_HORIZON} stages")
        windows.append(result)
        for g in result.fired:
            del pending[g]
        boundary = _internal_boundary(result.stages)

    # park the listed qubits that end up in a movable trap in one small solve
    last = windows[-1].stages
    if any(last[-1].states[q].a == AOD for q in final_slm):
        park = grow(_internal_boundary(last), {},
                    final_slm=frozenset(final_slm))
        if park is None:
            raise InfeasibleError(f"cannot park {sorted(final_slm)} within "
                                  f"{MAX_HORIZON} stages")
        windows.append(park)
    return windows

