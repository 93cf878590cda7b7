"""Commutable two-qubit-gate circuits: representation, text format, benchmarks.

A circuit here is a set of qubits plus a multiset of two-qubit gates.  Gate
order carries no meaning (all gates commute), so a circuit is effectively an
edge list / multigraph on qubit ids.
"""

from __future__ import annotations

import hashlib
import random
import re
import warnings
from dataclasses import dataclass
from typing import IO

from .errors import ParseError, QubitRangeError

# a qubit count or id: ASCII digits, optionally negative (so that a
# negative one is reported as such); no sign "+", no "_", no other digits
_INTEGER = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise ValueError(text)
    return int(text)


@dataclass(frozen=True)
class Circuit:
    """A commutable circuit: ``num_qubits`` qubits, ``gates`` as (u, v) pairs.

    Qubit ids are the contiguous range [0, num_qubits).  Duplicate gates are
    legal (a pair may interact more than once); each duplicate is a separate
    gate to schedule.  Instances are immutable and safe to share.
    """

    num_qubits: int
    gates: tuple[tuple[int, int], ...]
    name: str = "circuit"

    def __post_init__(self):
        if self.num_qubits < 0:
            raise ValueError("negative qubit count")
        for u, v in self.gates:
            if u == v:
                raise ValueError(f"self-loop gate ({u}, {v})")
            if not (0 <= u < self.num_qubits and 0 <= v < self.num_qubits):
                raise QubitRangeError(
                    f"gate ({u}, {v}) outside qubit range [0, {self.num_qubits})")

    @property
    def num_gates(self) -> int:
        return len(self.gates)

    def digest(self) -> str:
        """sha256 of the canonical serialization; identifies the circuit."""
        return hashlib.sha256(serialize_circuit(self).encode()).hexdigest()


def parse_circuit(source: str | IO[str], name: str | None = None) -> Circuit:
    """Parse the edge-list circuit format.

    Format: first non-comment line is the qubit count, each following line is
    two whitespace-separated qubit ids, ``#`` begins a comment.  Single-qubit
    lines are accepted but dropped with a warning (they constrain nothing in
    this model).  A ``# name:`` comment, as written by the serializer, sets
    the circuit name.
    """
    text = source.read() if hasattr(source, "read") else source
    num_qubits: int | None = None
    gates: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        comment = raw.split("#", 1)[1].strip() if "#" in raw else ""
        if comment.startswith("name:") and name is None:
            name = comment[len("name:"):].strip()
        if not line:
            continue
        fields = line.split()
        if num_qubits is None:
            if len(fields) != 1:
                raise ParseError("expected a single qubit count", lineno)
            try:
                num_qubits = _integer(fields[0])
            except ValueError:
                raise ParseError(f"bad qubit count {fields[0]!r}", lineno) from None
            if num_qubits < 0:
                raise ParseError("negative qubit count", lineno)
            continue
        if len(fields) == 1:
            warnings.warn(
                f"line {lineno}: single-qubit gate on {fields[0]} dropped "
                "(imposes no mapping constraint)", stacklevel=2)
            continue
        if len(fields) != 2:
            raise ParseError(f"expected two qubit ids, got {len(fields)}", lineno)
        try:
            u, v = _integer(fields[0]), _integer(fields[1])
        except ValueError:
            raise ParseError(f"bad qubit id in {line!r}", lineno) from None
        if u == v:
            raise ParseError(f"self-loop gate ({u}, {v})", lineno)
        if not (0 <= u < num_qubits and 0 <= v < num_qubits):
            raise QubitRangeError(
                f"qubit id out of range [0, {num_qubits})", lineno)
        gates.append((u, v))
    if num_qubits is None:
        raise ParseError("no qubit count line")
    return Circuit(num_qubits, tuple(gates), name or "circuit")


def serialize_circuit(c: Circuit) -> str:
    """Emit the exact edge-list format (round-trips through parse_circuit)."""
    lines = [f"# name: {c.name}", str(c.num_qubits)]
    lines += [f"{u} {v}" for u, v in c.gates]
    return "\n".join(lines) + "\n"


def load_circuit(path: str) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        return parse_circuit(fh.read(), name=None)


def generate_rand3reg(n: int, seed: int, name: str | None = None) -> Circuit:
    """Generate a uniform random simple 3-regular graph on n vertices.

    Configuration model: pair up 3 stubs per vertex uniformly at random and
    reject the whole pairing on any self-loop or duplicate edge, retrying
    until simple.  Deterministic for a fixed seed.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError(f"3-regular graphs need even n >= 4, got n={n}")
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        it = iter(stubs)
        ok = True
        for u, v in zip(it, it):
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            gates = tuple(sorted(edges))
            return Circuit(n, gates, name or f"rand3reg_{n}_{seed}")

