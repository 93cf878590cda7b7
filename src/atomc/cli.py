"""Command-line entry point: compile a circuit file to a schedule document.

    atomc CIRCUIT --array N [--mode direct|pac] [-o OUT]

CIRCUIT is an edge-list circuit file (see `parse_circuit`).  The schedule
is written as the versioned JSON document of `schedule_to_json`, to OUT or,
without -o, to standard output.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .arrays import ArraySpec, full_region
from .circuits import load_circuit
from .compiler import compile_circuit
from .errors import AtomcError
from .orchestrator import pac_compile
from .schedule import schedule_to_json


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="atomc",
        description="Compile a two-qubit-gate circuit onto an N x N "
                    "reconfigurable atom array.")
    parser.add_argument("circuit", help="edge-list circuit file")
    parser.add_argument("--array", type=int, required=True, metavar="N",
                        help="side of the square trap array")
    parser.add_argument("--mode", choices=("direct", "pac"), default="direct",
                        help="compile the whole array at once (direct) or "
                             "by split regions (pac)")
    parser.add_argument("-o", "--output", metavar="OUT",
                        help="schedule JSON file (default: standard output)")
    args = parser.parse_args(argv)

    try:
        circuit = load_circuit(args.circuit)
        array = ArraySpec(args.array)
        if args.mode == "pac":
            schedule, _ = pac_compile(circuit, array)
        else:
            schedule = compile_circuit(circuit, full_region(array)).schedule
    except (AtomcError, OSError, ValueError) as exc:
        parser.exit(1, f"atomc: error: {exc}\n")
    text = schedule_to_json(
        schedule, circuit_name=circuit.name, circuit_digest=circuit.digest(),
        num_qubits=circuit.num_qubits, num_gates=circuit.num_gates,
        array=args.array, mode=args.mode)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            parser.exit(1, f"atomc: error: {exc}\n")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
