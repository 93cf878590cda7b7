"""Depth, solver calls and wall time of a fixed sweep of compiles.

    python tools/depth_sweep.py SRC_DIR [--case MODE:Q:SEED:N ...]

Imports `atomc` from SRC_DIR and compiles `generate_rand3reg(Q, SEED)` on
an N x N array in MODE (direct or pac) for each case; without --case, it
runs the fixed sweep below.  Per case it prints the schedule depth, the
solver calls, the matchings discarded without a call (`compiler.can_fire`;
0 for a tree that has no such count), the grown windows (those that fired
at a horizon above 1), the wall time of the compile, in pac over all three
phases, and the sha256 of the schedule's JSON (as `milp_digest.py` prints
it); per group of cases and over all of them it prints the sums.  A case
with no grown window never takes the growth path.

Every window fires as many gates as it can, but which of several equally
good windows the solver returns decides later windows, so a change to the
solve can move depth either way.  Run it on the parent's `src` and on the
change's to see by how much, and diff the schedule digests to see which
cases changed at all.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from milp_digest import _case, schedule_digest

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


def _print_sum(label: str, runs) -> None:
    depth, calls, discarded, grown, wall = (sum(column)
                                            for column in zip(*runs))
    print(f"{label} ({len(runs)} cases): depth {depth}, {calls} calls, "
          f"{discarded} discarded, {grown} grown, {wall:.2f} s", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", metavar="SRC_DIR",
                        help="directory that holds the atomc package")
    parser.add_argument("--case", type=_case, action="append",
                        metavar="MODE:Q:SEED:N",
                        help="compile rand3reg(Q, SEED) on N x N in MODE "
                             "(repeatable; default: the fixed sweep)")
    args = parser.parse_args(argv)

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    from atomc import arrays, circuits, compiler, orchestrator
    if not os.path.abspath(compiler.__file__).startswith(src + os.sep):
        parser.error(f"atomc was imported from {compiler.__file__}")

    groups = {"cases": tuple(args.case)} if args.case else SWEEP
    runs = []  # (depth, calls, discarded, grown, wall) of every case
    for group, cases in groups.items():
        done = []
        for mode, q, seed, n in cases:
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
            grown = sum(h > 1 for r in results
                        for h in r.stage_budget_history)
            print(f"{mode} rand3reg({q}, {seed}) {n}x{n}: depth "
                  f"{sched.depth}, {calls} calls, {discarded} discarded, "
                  f"{grown} grown, {wall:.2f} s, schedule "
                  f"{schedule_digest(sched, c, n, mode)}", flush=True)
            done.append((sched.depth, calls, discarded, grown, wall))
        _print_sum(group, done)
        runs += done
    if len(groups) > 1:
        _print_sum("all", runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
