"""`compiler._Moves.decide` as the solver-free matching filter: every
matching it refutes is refuted by the window's MILP, and each rule it
reads refutes a matching of its own window."""

import itertools
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomc import compiler
from atomc.arrays import ArraySpec, full_region, split_plane
from atomc.circuits import generate_rand3reg
from atomc.compiler import (_checks, _Moves, compile_circuit, matching_number,
                            matchings)
from atomc.encoding import Boundary, WindowSpec, encode_window, window_bounds
from atomc.orchestrator import pac_compile
from atomc.smt import MilpBackend

ROOT = Path(__file__).resolve().parents[1]


def _recorded(run) -> list:
    """The window specs `run()` solves, in order."""
    specs = []
    solve = compiler.solve_window

    def recording(spec, **kwargs):
        specs.append(spec)
        return solve(spec, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiler, "solve_window", recording)
        run()
    return specs


def _direct_windows(q, seed, n):
    c = generate_rand3reg(q, seed)
    return _recorded(lambda: compile_circuit(c, full_region(ArraySpec(n))))


def _pac_windows(q, seed, n):
    return _recorded(lambda: pac_compile(generate_rand3reg(q, seed),
                                         ArraySpec(n)))


def _global_windows(q, seed, n):
    """The windows of pac's global phase, the one compiled on the whole
    array."""
    whole = full_region(ArraySpec(n))
    return [s for s in _pac_windows(q, seed, n) if s.region == whole]


def _in_order(spec):
    """Every matching of the window's gates, in the order of its checks."""
    return [m for k in range(matching_number(spec.gates), 0, -1)
            for m in matchings(spec.gates, k)]


def _answer(spec, m, encoded=None) -> str:
    """The answer of the window's check that fires matching m."""
    backend, v = encoded or _encoded(spec)
    fire = {v.f[g]: int(g in m) for g in spec.gates}
    return backend.check(fixed={**window_bounds(v, spec), **fire})


def _encoded(spec):
    backend = MilpBackend()
    return backend, encode_window(backend, spec)


def _decide(spec, m, encoded=None):
    """`_Moves.decide`'s answer for matching m of a pinned one-stage
    window: False (discarded), a witness or None (undecided)."""
    _, v = encoded or _encoded(spec)
    return _Moves(spec).decide(m, v)


def _refuted_when_discarded(specs) -> int:
    """Check every matching each window discards against the window's MILP,
    for every k up to its matching number; return how many there were.  A
    free or grown window has no `_Moves` and discards nothing."""
    count = 0
    for spec in specs:
        moves = _Moves.of(spec)
        if moves is None:
            continue
        encoded = _encoded(spec)
        for m in _in_order(spec):
            if moves.decide(m, encoded[1]) is False:
                assert _answer(spec, m, encoded) == "unsat", m
                count += 1
    return count


def _model_passes_the_system(moves, spec, m, model, v) -> None:
    """Feed `model`, a model of the check of spec that fires matching m,
    to `moves._system`: the model's options (which endpoints are up at
    stage 0) and their stage-1 sites must keep the system feasible, and
    the model's stage-0 line index of each qubit with a line node must lie
    within that node's bounds."""
    at1 = {q: (model[v.x[q, 1].name], model[v.y[q, 1].name])
           for g in m for q in spec.gates[g] if model[v.a[q, 0].name]}
    pairs = [spec.gates[g] for g in m if set(spec.gates[g]) <= set(at1)]
    solved = moves._system(at1, pairs)
    assert solved is not None, m
    for axis, (lo, hi, _, line) in enumerate(solved):
        index = (v.c, v.r)[axis]
        for q, k in line.items():
            assert lo[k] <= model[index[q, 0].name] <= hi[k], (m, q)


def test_discarded_matchings_are_refuted():
    # direct rand3reg(6, 13) is in perfbench's direct ladder
    specs = [s for seed in (1, 2, 3, 13) for s in _direct_windows(6, seed, 3)]
    specs += [s for seed in (1, 5, 6) for s in _global_windows(12, seed, 8)]
    assert _refuted_when_discarded(specs) >= 10


@pytest.mark.slow
def test_discarded_matchings_are_refuted_over_the_depth_sweep(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from depth_sweep import SWEEP
    count = 0
    for mode, q, seed, n in (case for group in SWEEP.values()
                             for case in group):
        windows = _direct_windows if mode == "direct" else _pac_windows
        count += _refuted_when_discarded(windows(q, seed, n))
    assert count > 0


@st.composite
def _pinned_windows(draw):
    """A random horizon-1 window on 3x3 or 4x4, or, half the time, on the
    lower-right quadrant of a 2n x 2n array, whose sites and lines start at
    n: stage-0 sites with at most two qubits on one, random gates, tied and
    held lines, and avoided sites among the empty ones."""
    n = draw(st.sampled_from([3, 4]))
    region = full_region(ArraySpec(n))
    if draw(st.booleans()):
        region = split_plane(ArraySpec(2 * n))[1]
    sites = list(itertools.product(region.x_range, region.y_range))
    qubits = range(draw(st.integers(2, 6)))
    xy = draw(st.lists(st.sampled_from(sites), min_size=len(qubits),
                       max_size=len(qubits))
              .filter(lambda placed: max(Counter(placed).values()) <= 2))
    pairs = list(itertools.combinations(qubits, 2))
    gates = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6))
    line = st.tuples(st.sampled_from(region.x_range),
                     st.sampled_from(region.y_range))
    tied = draw(st.dictionaries(st.sampled_from(qubits), line))
    held = draw(st.dictionaries(st.sampled_from(qubits), line))
    empty = sorted(set(sites) - set(xy))
    avoid = draw(st.frozensets(st.sampled_from(empty))) if empty else \
        frozenset()
    return WindowSpec(
        list(qubits), dict(enumerate(gates)), 2, region,
        Boundary(xy=dict(enumerate(xy)), prev_traps=tied, held=held), avoid)


@given(_pinned_windows())
@settings(max_examples=100, deadline=None)
def test_random_windows_refute_what_they_discard(spec):
    _refuted_when_discarded([spec])


@given(_pinned_windows())
@settings(max_examples=50, deadline=None)
def test_random_windows_pass_the_system_with_every_model(spec):
    # every sat check, not only the first one `solve_window` meets
    moves = _Moves(spec)
    backend, v = encoded = _encoded(spec)
    for m in _checks(spec):
        if _answer(spec, m, encoded) == "sat":
            _model_passes_the_system(moves, spec, m, backend.model(), v)


@st.composite
def _crowded_windows(draw):
    """A random horizon-1 window on 4x4, crowded as a firing stage leaves
    one: up to eight qubits on five or six stage-0 sites, one or two on
    each, and random gates, half of them between two qubits of one site;
    tied and held lines, and avoided sites among the empty ones.  More
    often than in `_pinned_windows`, a pair can meet only on a site
    another qubit stands on at stage 0."""
    sites = list(itertools.product(range(4), repeat=2))
    spots = draw(st.lists(st.sampled_from(sites), min_size=5, max_size=6,
                          unique=True))
    paired = draw(st.lists(st.booleans(), min_size=len(spots),
                           max_size=len(spots)))
    xy = [s for s, two in zip(spots, paired) for _ in range(1 + two)][:8]
    qubits = range(len(xy))
    pairs = list(itertools.combinations(qubits, 2))
    gate = st.sampled_from(pairs)
    cosited = [(u, q) for u, q in pairs if xy[u] == xy[q]]
    if cosited:
        gate = st.one_of(st.sampled_from(cosited), gate)
    gates = draw(st.lists(gate, min_size=3, max_size=6))
    line = st.tuples(st.integers(0, 3), st.integers(0, 3))
    tied = draw(st.dictionaries(st.sampled_from(qubits), line))
    held = draw(st.dictionaries(st.sampled_from(qubits), line))
    empty = sorted(set(sites) - set(xy))
    avoid = draw(st.frozensets(st.sampled_from(empty)))
    return WindowSpec(
        list(qubits), dict(enumerate(gates)), 2, full_region(ArraySpec(4)),
        Boundary(xy=dict(enumerate(xy)), prev_traps=tied, held=held), avoid)


@given(_crowded_windows())
@settings(max_examples=200, deadline=None)
def test_crowded_windows_refute_what_they_discard(spec):
    _refuted_when_discarded([spec])


def _window(n, xy, tied=None, held=None, avoid=()):
    """A horizon-1 window that pins `xy` and lists gates (0, 1) and
    (2, 3) as gates 0 and 1."""
    return WindowSpec(
        list(xy), {0: (0, 1), 1: (2, 3)}, 2, full_region(ArraySpec(n)),
        Boundary(xy=xy, prev_traps=tied or {}, held=held or {}),
        frozenset(avoid))


def _discards(spec, m=(0, 1)) -> bool:
    """Whether the filter discards m; a discarded m is refuted too."""
    if _decide(spec, m) is not False:
        return False
    assert _answer(spec, m) == "unsat"
    return True


def _fires(spec, m=(0, 1)) -> bool:
    """Whether the filter passes m and the window's check finds it sat."""
    return _decide(spec, m) is not False and _answer(spec, m) == "sat"


# four qubits on the diagonal of 4x4, so no two stand in one column
DIAGONAL = {q: (q, q) for q in range(4)}


def test_reversed_held_lines_keep_qubits_down():
    # held columns run right to left while the qubits stand left to right,
    # so no two of them can be up at stage 0; two gates need two movers
    reversed_lines = {q: (3 - q, q) for q in DIAGONAL}
    assert _discards(_window(4, DIAGONAL, held=reversed_lines))
    # in the qubits' order the held lines let two of them be up together
    assert _fires(_window(4, DIAGONAL, held={q: (q, q) for q in DIAGONAL}))


def test_tied_lines_keep_qubits_down():
    # the same with tied rows: they run top to bottom, the qubits bottom
    # to top
    reversed_lines = {q: (q, 3 - q) for q in DIAGONAL}
    assert _discards(_window(4, DIAGONAL, tied=reversed_lines))
    assert _fires(_window(4, DIAGONAL, tied={q: (q, q) for q in DIAGONAL}))


def test_an_avoided_site_leaves_a_pair_nowhere_to_meet():
    # y=2  .  2  x      x: avoided
    # y=1  .  .  1
    # y=0  0  3  .
    # one way fires both gates without crossing two moves or sharing a
    # site: 0 moves onto 1 at (2, 1) while 2 and 3, which stand right of 0
    # and not below it, meet at (2, 2); avoiding (2, 2) leaves none
    xy = {0: (0, 0), 1: (2, 1), 2: (1, 2), 3: (1, 0)}
    assert _discards(_window(3, xy, avoid={(2, 2)}))
    assert _fires(_window(3, xy))


# the two pairs stand on the two diagonals of 3x3
CROSSED = {0: (0, 0), 1: (2, 2), 2: (2, 0), 3: (0, 2)}


def test_two_pairs_never_meet_on_one_site():
    # move order lets both pairs fire only where they would share one site
    spec = _window(3, CROSSED)
    assert _discards(spec)
    assert _fires(spec, (0,)) and _fires(spec, (1,))


def test_held_lines_the_region_cannot_hold_refute_every_matching():
    # three distinct held columns and two columns of 2x2: the held chain
    # alone has no values, so the empty system refutes every matching
    spec = WindowSpec(
        [0, 1, 2], {0: (0, 1), 1: (1, 2)}, 2, full_region(ArraySpec(2)),
        Boundary(xy={0: (0, 0), 1: (1, 1), 2: (0, 1)},
                 held={0: (0, 0), 1: (1, 0), 2: (2, 0)}))
    assert len(spec.boundary.held) == 3
    assert _Moves(spec).prefix((), ()) is None
    assert _in_order(spec) == [(0,), (1,)]
    for m in _in_order(spec):
        assert _discards(spec, m)


def test_strict_stage0_order_bounds_the_moves_weakly():
    # y=2  .  2  0
    # y=1  .  .  .
    # y=0  1  3  .
    # 2 and 3 are tied to rows in the reverse of their order, so one of
    # them moves onto the other and stays in column 1; 1's tied column
    # does not fit its site beside either, so 1 stays down.  0, right of
    # the mover, would have to end left of it, at 1's site
    xy = {0: (2, 2), 1: (0, 0), 2: (1, 2), 3: (1, 0)}
    tied = {1: (1, 1), 2: (1, 0), 3: (0, 1)}
    assert _discards(_window(3, xy, tied=tied))
    # ending in the mover's column is allowed: 1 at (1, 1)
    assert _fires(_window(3, {**xy, 1: (1, 1)}, tied=tied))


def test_a_mover_between_adjacent_tied_columns_stays_down():
    # y=2  .  3  .
    # y=1  .  .  .
    # y=0  0  2  1
    # 3 is tied to 0's column and 1's row from another site, so it stays
    # down beside either, and 2 moves onto 3's site.  Every pair of
    # options then allows 0 and 1 to fire only by both going up and
    # meeting in column 1, but 2's column would lie strictly between
    # their tied columns 0 and 1
    xy = {0: (0, 0), 1: (2, 0), 2: (1, 0), 3: (1, 2)}
    tied = {0: (0, 0), 1: (1, 0), 3: (0, 0)}
    assert _discards(_window(3, xy, tied=tied))
    # with 1 tied to column 2, column 1 is free for 2
    assert _fires(_window(3, xy, tied={**tied, 1: (2, 0)}))


def test_a_known_landing_site_orders_two_lines_of_one_column():
    # y=2  .  .  .
    # y=1  3  2  .
    # y=0  .  0  1
    # 0 and 1 share tied lines, so one of them stays down, and with tied
    # column 0 neither goes up beside a qubit left of it.  So 0 moves
    # right onto 1 and 2 moves left onto 3.  0 and 2 stand in one column,
    # so a count over stage-0 columns lets 2 share 0's column 0; their
    # landing sites put 2's column strictly left of it
    xy = {0: (1, 0), 1: (2, 0), 2: (1, 1), 3: (0, 1)}
    tied = {0: (0, 0), 1: (0, 0)}
    spec = _window(3, xy, tied=tied)
    assert _discards(spec)
    moves = _Moves(spec)
    assert moves._system({0: None, 2: None}, []) is not None
    assert moves._system({0: xy[1], 2: xy[3]}, []) is None
    # with 0 tied to column 1, column 0 is free for 2
    assert _fires(_window(3, xy, tied={**tied, 0: (1, 0)}))


def test_pairs_that_meet_take_distinct_sites_jointly():
    # y=1  2,5  .    .
    # y=0  3,4  0,1  .
    # a window direct rand3reg(6, 2) on 3x3 solves, with three co-sited
    # pairs as a firing stage leaves them.  Each matching below fires all
    # six qubits, and some choice of options keeps the system feasible
    # with its meeting sites unknown.  But no choice places its pairs that
    # meet on distinct sites, apart from the movers' landing sites, so
    # that the system stays feasible
    xy = {0: (1, 0), 1: (1, 0), 2: (0, 1), 3: (0, 0), 4: (0, 0), 5: (0, 1)}
    gates = {1: (0, 3), 2: (0, 5), 3: (1, 4), 4: (1, 5), 5: (2, 3),
             6: (2, 4)}
    spec = WindowSpec(
        list(xy), gates, 2, full_region(ArraySpec(3)),
        Boundary(xy=xy, prev_traps={1: (2, 0), 3: (0, 0), 5: (0, 2)}))
    assert _discards(spec, (1, 4, 6)) and _discards(spec, (2, 3, 5))
    # the window fires (1, 3), its first matching of two
    assert _fires(spec, (1, 3))


def test_a_pair_meets_where_an_up_qubit_stood():
    # y=2  x  3  x      x: avoided
    # y=1  x  4  x
    # y=0  0  2  1
    # neither 0 nor 1 can move onto the other across gate 1's column, so
    # they meet in it.  A qubit stands on every site of that column at
    # stage 0, so the pair meets where an up qubit stood: on (1, 0), which
    # 2 vacates to move onto 3
    xy = {0: (0, 0), 1: (2, 0), 2: (1, 0), 3: (1, 2), 4: (1, 1)}
    assert _fires(_window(3, xy, avoid={(0, 1), (0, 2), (2, 1), (2, 2)}))


# y=2  0  3  2
# y=1  5  .  .
# y=0  4  .  1
# gates (0, 4), (1, 3) and (2, 5) turn about the centre
PINWHEEL = WindowSpec(
    list(range(6)), {0: (0, 4), 1: (1, 3), 2: (2, 5)}, 2,
    full_region(ArraySpec(3)),
    Boundary(xy={0: (0, 2), 1: (2, 0), 2: (2, 2), 3: (1, 2), 4: (0, 0),
                 5: (0, 1)}))


def test_two_pairs_never_share_the_one_site_left_to_them():
    # every way to fire all three gates moves one qubit onto its partner
    # and leaves the pairs that meet one site besides its landing site: a
    # lone pair finds none, and two pairs would share it.  Any two gates
    # fit together pairwise, each pair on a site of its own
    assert _discards(PINWHEEL, (0, 1, 2))
    assert _fires(PINWHEEL, (0, 1))


def test_the_meeting_search_stops_at_its_budget(monkeypatch):
    # with no budget the search passes what only the placement of the
    # pairs that meet discards
    monkeypatch.setattr(compiler, "WITNESS_BUDGET", 0)
    assert _decide(PINWHEEL, (0, 1, 2)) is None


def test_a_budget_that_runs_out_anywhere_leaves_the_matching_undecided(
        monkeypatch):
    # a small budget runs out at a leaf of the options, or while the search
    # places the pairs that meet or the departing qubits.  Each matching is
    # then undecided or decided as with the full budget, and the window's
    # `_Moves`, shared by its matchings, decides every one of them as a
    # fresh one does after its budget ran out
    where = Counter()

    class Spent(compiler._Spent):
        def __init__(self):
            super().__init__()
            frame = sys._getframe(1)
            while frame.f_code.co_name not in ("extend", "meet", "drop"):
                frame = frame.f_back
            where[frame.f_code.co_name] += 1

    monkeypatch.setattr(compiler, "_Spent", Spent)
    specs = [s for seed in (1, 2, 3) for s in _direct_windows(6, seed, 3)
             if _Moves.of(s) is not None]
    default = compiler.WITNESS_BUDGET
    for spec in specs:
        _, v = _encoded(spec)
        full = {m: _Moves(spec).decide(m, v) for m in _in_order(spec)}
        for budget in (1, 2, 3, 5, 8, 13, 21):
            moves = _Moves(spec)
            monkeypatch.setattr(compiler, "WITNESS_BUDGET", budget)
            for m, answer in full.items():
                assert moves.decide(m, v) in (None, answer), (budget, m)
            monkeypatch.setattr(compiler, "WITNESS_BUDGET", default)
            for m, answer in full.items():
                assert moves.decide(m, v) == answer, (budget, m)
    assert where["meet"] > 0 and where["drop"] > 0


def test_the_search_stops_at_its_budget(monkeypatch):
    # with no budget the search neither discards what only the placement
    # of the pairs that meet refutes nor witnesses a matching, though it
    # witnesses (0, 1) and (0,) within its budget: every check of the
    # window goes to HiGHS, which refutes (0, 1, 2) and finds (0, 1) sat
    monkeypatch.setattr(compiler, "WITNESS_BUDGET", 0)
    for m in ((0, 1, 2), (0, 1), (0,)):
        assert _decide(PINWHEEL, m) is None
    stats = compiler._Stats(t0=0.0, deadline=float("inf"))
    result = compiler.solve_window(PINWHEEL, gates=PINWHEEL.gates, shapes={},
                                   stats=stats)
    assert (stats.calls, stats.discarded, stats.witnessed) == (2, 0, 0)
    assert sorted(result.fired) == [0, 1]


# y=3  4  .  .  1
# y=2  .  .  .  .
# y=1  3  0  .  .
# y=0  .  5  .  2
# gates (0, 1), (2, 3) and (4, 5)
CHAINED = WindowSpec(
    list(range(6)), {0: (0, 1), 1: (2, 3), 2: (4, 5)}, 2,
    full_region(ArraySpec(4)),
    Boundary(xy={0: (1, 1), 1: (3, 3), 2: (3, 0), 3: (0, 1), 4: (0, 3),
                 5: (1, 0)}))


def test_a_chain_through_a_meeting_pair_refutes_before_placement(
        monkeypatch):
    # say 2 moves onto 3 at (0, 1) while (0, 1) and (4, 5) meet.  0, 4
    # and 5 stand left of 2, so both pairs meet in column 0.  0 stands
    # below 4 and above 5, and 4 and 5 share one stage-1 row where they
    # meet, so the pair (0, 1) meets in that row too: both pairs on one
    # site.  Each two of the three options fit together, so placing the
    # pairs site by site would spend 10 units of the budget before it
    # refuted every choice of options.  The system refutes each choice
    # before any site is tried, so a budget of 4 still discards the
    # matching
    monkeypatch.setattr(compiler, "WITNESS_BUDGET", 4)
    assert _discards(CHAINED, (0, 1, 2))
    assert _fires(CHAINED, (0, 1))


def test_free_and_grown_windows_pass_every_matching():
    spec = _window(3, CROSSED)
    assert _decide(spec, (0, 1)) is False
    for other in (replace(spec, stages=3),
                  replace(spec, stages=1, boundary=Boundary())):
        assert _Moves.of(other) is None


def test_pac_global_window_checks_its_optimum_alone():
    # the first global window of pac rand3reg(12, 22) on 8x8 checks six
    # matchings ahead of (0, 2), its first sat one, and the MILP refutes
    # each; the filter discards all six, so (0, 2) is the only check, and
    # a witness decides it with no solver call
    spec = _global_windows(12, 22, 8)[0]
    ahead = list(itertools.takewhile(lambda m: m != (0, 2), _in_order(spec)))
    encoded = _encoded(spec)
    assert len(ahead) == 6
    assert all(_decide(spec, m, encoded) is False for m in ahead)
    stats = compiler._Stats(t0=0.0, deadline=float("inf"))
    result = compiler.solve_window(spec, gates=spec.gates, shapes={},
                                   stats=stats)
    assert (stats.calls, stats.discarded, stats.witnessed) == (0, 6, 1)
    assert sorted(result.fired) == [0, 2]
