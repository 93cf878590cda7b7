"""Digest every HiGHS input and every output schedule of a set of compiles.

    python tools/milp_digest.py SRC_DIR [--case MODE:Q:SEED:N ...]

Imports `atomc` from SRC_DIR, wraps `scipy.optimize.milp`, and compiles
`generate_rand3reg(Q, SEED)` on an N x N array in MODE (direct or pac) for
each case.  Without --case, it runs the 17 fixed cases below, one of which
(direct `rand3reg(6, 15)`) grows a window to a 3-stage horizon.  Per case it
prints a header line with the solver call count and the sha256 of the
`schedule_to_json` bytes, then the sorted digests of the calls, one a line.
A call's digest covers `c`, `integrality`, the variable bounds, the
constraint matrix (data, indices, indptr, shape), the row bounds and the
options without `time_limit`, which is the remaining budget and so differs
from run to run.  The pac local phases solve in two threads, so calls are
compared as a sorted multiset, not in call order.

Two source trees whose outputs are equal hand HiGHS the same problems and
write the same schedules: run it on both and diff the outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

CASES = (
    *(("pac", 12, seed, 8) for seed in range(1, 10)),
    *(("pac", q, seed, 8) for q in (16, 20) for seed in (1, 2)),
    *(("direct", 6, seed, 3) for seed in (2, 3, 13)),
    ("direct", 6, 15, 3),  # grows one window: horizons [1, 1, 1, 2]
)


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", metavar="SRC_DIR",
                        help="directory that holds the atomc package")
    parser.add_argument("--case", type=_case, action="append",
                        metavar="MODE:Q:SEED:N",
                        help="compile rand3reg(Q, SEED) on N x N in MODE "
                             "(repeatable; default: the fixed set)")
    args = parser.parse_args(argv)

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import scipy.optimize

    from atomc import arrays, circuits, compiler, orchestrator
    if not os.path.abspath(compiler.__file__).startswith(src + os.sep):
        parser.error(f"atomc was imported from {compiler.__file__}")

    calls: list[str] = []
    milp = scipy.optimize.milp

    def traced(*a, **kw):
        calls.append(call_digest(*a, **kw))
        return milp(*a, **kw)

    scipy.optimize.milp = traced
    for mode, q, seed, n in args.case or CASES:
        calls.clear()
        c = circuits.generate_rand3reg(q, seed)
        a = arrays.ArraySpec(n)
        if mode == "pac":
            sched, _ = orchestrator.pac_compile(c, a)
        else:
            sched = compiler.compile_circuit(c, arrays.full_region(a)).schedule
        print(f"{mode} rand3reg({q}, {seed}) {n}x{n}: {len(calls)} calls, "
              f"schedule {schedule_digest(sched, c, n, mode)}")
        for digest in sorted(calls):
            print(f"  {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
