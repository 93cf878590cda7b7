"""Depth, solver calls, wall time and HiGHS inputs of a fixed sweep of
compiles.

    python tools/depth_sweep.py SRC_DIR [--case MODE:Q:SEED:N ...]
                                        [--refines PARENT_OUT]

Imports `atomc` from SRC_DIR, wraps `scipy.optimize.milp`, and compiles
`generate_rand3reg(Q, SEED)` on an N x N array in MODE (direct or pac) for
each case; without --case, it runs the fixed sweep below.  Per case it
prints one line: the schedule depth, the solver calls, the matchings
discarded without a call (`CompileResult.discarded`, the matchings
`compiler._Moves.decide` refutes; 0 for a tree that has no such count),
the checks decided by a witness without a call
(`CompileResult.witnessed`; 0 likewise), the grown windows (those that
fired at a horizon above 1), the wall time of the compile (digests
included), in pac over all three phases, and the sha256 of the
`schedule_to_json` bytes.  Under it, indented, come the sorted digests
of the case's `milp` calls, one a line.  A call's digest covers `c`,
`integrality`, the variable bounds, the constraint matrix (data, indices,
indptr, shape), the row bounds and the options without `time_limit`, which
is the remaining budget and so differs from run to run.  The pac local
phases solve in two threads, so calls are compared as a sorted multiset,
not in call order.  Per group of cases and over all of them it prints the
sums, and names the slowest case with its wall, so that one outlier shows
in the sums.  A case with no grown window never takes the growth path.

Every window fires as many gates as it can, but which of several equally
good windows the solver returns decides later windows, so a change to the
solve can move depth either way.  Two source trees whose outputs are equal
once the wall figures and the slowest cases are masked hand HiGHS the same
problems and write the same schedules:

    mask() { python tools/depth_sweep.py "$1" |
             sed -E 's/[0-9]+\\.[0-9]+ s/- s/; s/, slowest .*//'; }
    diff <(mask A/src) <(mask B/src)

A change that only refutes checks without HiGHS (a stronger matching
filter) keeps every schedule but drops calls.  `--refines PARENT_OUT`
checks such a tree against PARENT_OUT, the saved output of the parent
tree on the same cases, and exits 1 on the first case that breaks the
gate: its line must equal the parent's once wall, calls and discarded are
masked, its digests must be a sub-multiset of the parent's, and it must
make no more calls.

    python tools/depth_sweep.py A/src > parent.txt
    python tools/depth_sweep.py B/src --refines parent.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import sys
import time
from collections import Counter

import numpy as np

SWEEP = {
    # the direct and pac instances of the ROADMAP's measurements
    "roadmap": (
        *(("direct", 6, seed, 3) for seed in range(1, 14)),
        *(("direct", 8, seed, 4) for seed in (1, 2)),
        *(("pac", 12, seed, 8) for seed in range(1, 10)),
        *(("pac", 16, seed, 8) for seed in (1, 2)),
    ),
    "pac20": tuple(("pac", 20, seed, 8) for seed in (1, 2)),
    "held-out": (
        *(("direct", 6, seed, 3) for seed in range(14, 40)),
        *(("direct", 8, seed, 4) for seed in range(3, 7)),
        *(("pac", 12, seed, 8) for seed in range(10, 36)),
        *(("pac", 16, seed, 8) for seed in range(3, 7)),
    ),
}


def _case(text: str) -> tuple[str, int, int, int]:
    mode, q, seed, n = text.split(":")
    if mode not in ("direct", "pac"):
        raise argparse.ArgumentTypeError(f"unknown mode {mode!r}")
    return mode, int(q), int(seed), int(n)


def call_digest(c, integrality=None, bounds=None, constraints=None,
                options=None) -> str:
    """The sha256 of one `milp` call's problem (not its time limit)."""
    h = hashlib.sha256()

    def put(tag: str, values, dtype=float) -> None:
        arr = np.ascontiguousarray(np.asarray(values, dtype=dtype))
        h.update(f"{tag}{arr.shape}".encode())
        h.update(arr.tobytes())

    put("c", c)
    put("integrality", [] if integrality is None else integrality)
    if bounds is not None:
        put("lb", bounds.lb)
        put("ub", bounds.ub)
    if constraints is not None:
        mat = constraints.A
        put("data", mat.data)
        put("indices", mat.indices, np.int64)
        put("indptr", mat.indptr, np.int64)
        put("shape", mat.shape, np.int64)
        put("row_lb", constraints.lb)
        put("row_ub", constraints.ub)
    rest = {k: v for k, v in (options or {}).items() if k != "time_limit"}
    h.update(repr(sorted(rest.items())).encode())
    return h.hexdigest()


def schedule_digest(sched, c, n: int, mode: str) -> str:
    """The sha256 of a compile's `schedule_to_json` bytes."""
    from atomc import schedule
    text = schedule.schedule_to_json(
        sched, circuit_name=c.name, circuit_digest=c.digest(),
        num_qubits=c.num_qubits, num_gates=c.num_gates, array=n, mode=mode)
    return hashlib.sha256(text.encode()).hexdigest()


# what a refutation-only change may move in a case line
_MOVABLE = re.compile(r"\d+ (calls|discarded)|\d+\.\d+ s")


def _masked(line: str) -> str:
    return _MOVABLE.sub(lambda found: f"- {found[1] or 's'}", line)


def _calls(line: str) -> int:
    return int(re.search(r"(\d+) calls", line)[1])


def read_output(text: str) -> dict[str, tuple[str, Counter]]:
    """The cases of one run's output: per case label (the line up to its
    colon), its line and the multiset of its digests."""
    cases: dict[str, tuple[str, Counter]] = {}
    digests: Counter = Counter()
    for line in text.splitlines():
        if line.startswith("  "):
            digests[line.strip()] += 1
        elif re.match(r"(direct|pac) rand3reg\(", line):
            digests = Counter()
            cases[line.split(":")[0]] = line, digests
    return cases


def refines(line: str, digests, parent: dict) -> str | None:
    """Why one case of this run breaks the gate of a refutation-only change
    against `parent` (`read_output` of the parent's run), or None when it
    keeps it."""
    label = line.split(":")[0]
    if label not in parent:
        return f"{label}: not in the parent's output"
    before, solved = parent[label]
    if _masked(line) != _masked(before):
        return f"{label}: the case line differs from the parent's\n" \
               f"  parent: {before}\n  this:   {line}"
    new = Counter(digests) - solved
    if new:
        return f"{label}: {sum(new.values())} HiGHS inputs the parent " \
               "never solved"
    if _calls(line) > _calls(before):
        return f"{label}: {_calls(line)} calls, the parent made " \
               f"{_calls(before)}"
    return None


def _print_sum(label: str, runs) -> None:
    """One sum line over `runs`, each (case label, depth, calls,
    discarded, witnessed, grown, wall)."""
    depth, calls, discarded, witnessed, grown, wall = (
        sum(column) for column in list(zip(*runs))[1:])
    slowest = max(runs, key=lambda run: run[-1])
    print(f"{label} ({len(runs)} cases): depth {depth}, {calls} calls, "
          f"{discarded} discarded, {witnessed} witnessed, {grown} grown, "
          f"{wall:.2f} s, slowest {slowest[0]} {slowest[-1]:.2f} s",
          flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", metavar="SRC_DIR",
                        help="directory that holds the atomc package")
    parser.add_argument("--case", type=_case, nargs="+", action="extend",
                        metavar="MODE:Q:SEED:N",
                        help="compile rand3reg(Q, SEED) on N x N in MODE "
                             "(one or more after a flag, and the flag "
                             "repeatable; default: the fixed sweep)")
    parser.add_argument("--refines", metavar="PARENT_OUT",
                        help="the parent tree's output on the same cases; "
                             "exit 1 on the first case that is not a "
                             "refutation-only change of it")
    args = parser.parse_args(argv)
    parent = None
    if args.refines:
        with open(args.refines) as f:
            parent = read_output(f.read())

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import scipy.optimize

    from atomc import arrays, circuits, compiler, orchestrator
    if not os.path.abspath(compiler.__file__).startswith(src + os.sep):
        parser.error(f"atomc was imported from {compiler.__file__}")

    digests: list[str] = []
    milp = scipy.optimize.milp

    def traced(*a, **kw):
        digests.append(call_digest(*a, **kw))
        return milp(*a, **kw)

    scipy.optimize.milp = traced
    groups = {"cases": tuple(args.case)} if args.case else SWEEP
    runs = []  # per case, what `_print_sum` reads
    for group, cases in groups.items():
        done = []
        for mode, q, seed, n in cases:
            digests.clear()
            c = circuits.generate_rand3reg(q, seed)
            a = arrays.ArraySpec(n)
            t0 = time.perf_counter()
            if mode == "pac":
                sched, phases = orchestrator.pac_compile(c, a)
                results = phases.r1, phases.r2, phases.r3
            else:
                res = compiler.compile_circuit(c, arrays.full_region(a))
                sched, results = res.schedule, (res,)
            wall = time.perf_counter() - t0
            calls = sum(r.solver_calls for r in results)
            discarded = sum(getattr(r, "discarded", 0) for r in results)
            witnessed = sum(getattr(r, "witnessed", 0) for r in results)
            grown = sum(h > 1 for r in results
                        for h in r.stage_budget_history)
            case = f"{mode} rand3reg({q}, {seed}) {n}x{n}"
            line = (f"{case}: depth "
                    f"{sched.depth}, {calls} calls, {discarded} discarded, "
                    f"{witnessed} witnessed, {grown} grown, {wall:.2f} s, "
                    f"schedule {schedule_digest(sched, c, n, mode)}")
            print(line)
            for digest in sorted(digests):
                print(f"  {digest}")
            sys.stdout.flush()
            broken = parent is not None and refines(line, digests, parent)
            if broken:
                print(f"not a refinement: {broken}", file=sys.stderr)
                return 1
            done.append((case, sched.depth, calls, discarded, witnessed,
                         grown, wall))
        _print_sum(group, done)
        runs += done
    if len(groups) > 1:
        _print_sum("all", runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
