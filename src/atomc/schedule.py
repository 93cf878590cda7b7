"""Schedule data model and its versioned JSON file format.

A schedule is a stage sequence.  Each stage records every managed qubit's
state (site coordinates, trap flag, movable-line indices while trapped in
one) and the set of gate indices fired at that stage.  Movement happens
between consecutive stages; depth counts only stages that fire gates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import ParseError

SCHEDULE_FORMAT_VERSION = 1

SLM = 0
AOD = 1


@dataclass(frozen=True)
class QubitState:
    """One qubit at one stage: site (x, y), trap flag a, line indices c, r.

    a = 0 means a static trap (c and r are absent); a = 1 means a movable
    trap at column c and row r.
    """

    x: int
    y: int
    a: int
    c: int | None = None
    r: int | None = None

    def __post_init__(self):
        if self.a not in (SLM, AOD):
            raise ValueError(f"trap flag must be 0 or 1, got {self.a}")
        if self.a == AOD and (self.c is None or self.r is None):
            raise ValueError("movable-trap state needs both c and r")
        if self.a == SLM and (self.c is not None or self.r is not None):
            raise ValueError("static-trap state must not carry c or r")


@dataclass(frozen=True)
class Stage:
    """States for every managed qubit plus the gates fired at this stage."""

    states: Mapping[int, QubitState]
    fired: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "fired", tuple(sorted(self.fired)))


@dataclass
class Schedule:
    stages: list[Stage] = field(default_factory=list)

    @property
    def depth(self) -> int:
        """Number of stages that fire at least one gate."""
        return sum(1 for s in self.stages if s.fired)

    def fired_multiset(self) -> list[int]:
        out: list[int] = []
        for s in self.stages:
            out.extend(s.fired)
        return sorted(out)


@dataclass
class CompileResult:
    """A schedule plus solve statistics.

    solver_calls counts the compile's HiGHS calls only, refuted matchings
    included (see `compiler.solve_window`).  A matching that
    `compiler._Moves.decide` refutes is never checked, and a check decided
    by a witness makes no call, so neither is counted there.
    discarded counts those matchings: the ones the compile reached and
    skipped without a solver call, each one's check refuted.
    witnessed counts the checks decided by an accepted witness, a model of
    the check built without a solver, so a sat check with no HiGHS call.
    `compiler._Moves` states why neither changes a schedule's matchings.
    stage_budget_history records, per committed solver window, how many new
    stages that window used: the horizon it was solved at, not counting a
    replayed or given stage 0.
    """

    schedule: Schedule
    wall_time: float
    solver_calls: int
    stage_budget_history: list[int] = field(default_factory=list)
    discarded: int = 0
    witnessed: int = 0


def schedule_to_json(schedule: Schedule, *, circuit_name: str,
                     circuit_digest: str, num_qubits: int, num_gates: int,
                     array: int, mode: str = "direct") -> str:
    """Serialize to the versioned schedule document (deterministic bytes)."""
    stages: list[dict[str, Any]] = []
    for s in schedule.stages:
        qubits = []
        for q in sorted(s.states):
            st = s.states[q]
            rec: dict[str, Any] = {"id": q, "x": st.x, "y": st.y, "a": st.a}
            if st.a == AOD:
                rec["c"] = st.c
                rec["r"] = st.r
            qubits.append(rec)
        stages.append({"qubits": qubits, "gates": list(s.fired)})
    doc = {
        "format": SCHEDULE_FORMAT_VERSION,
        "circuit": {
            "name": circuit_name,
            "sha256": circuit_digest,
            "qubits": num_qubits,
            "gates": num_gates,
        },
        "array": array,
        "mode": mode,
        "stages": stages,
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _integer(value: Any, what: str) -> int:
    """`value`, a JSON integer: a float, a string or a bool is an error
    rather than something to coerce."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def schedule_from_json(text: str) -> tuple[Schedule, dict[str, Any]]:
    """Parse a schedule document; returns (schedule, header metadata).
    Every field is checked; a missing `mode` reads `direct`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    version = doc.get("format") if isinstance(doc, dict) else None
    if type(version) is not int or version != SCHEDULE_FORMAT_VERSION:
        raise ParseError("missing or unsupported schedule format version")
    try:
        circuit, mode = doc["circuit"], doc.get("mode", "direct")
        if not (isinstance(circuit, dict) and all(
                isinstance(circuit[k], str) for k in ("name", "sha256"))):
            raise ParseError("circuit must be an object with a string name "
                             f"and sha256, got {circuit!r}")
        for k in ("qubits", "gates"):
            if _integer(circuit[k], f"circuit {k}") < 0:
                raise ParseError(f"circuit {k} must be >= 0, got {circuit[k]}")
        if mode not in ("direct", "pac"):
            raise ParseError(f"mode must be direct or pac, got {mode!r}")
        array = _integer(doc["array"], "array")
        if array < 2:  # what ArraySpec admits
            raise ParseError(f"array side must be >= 2, got {array}")
        meta = {"circuit": circuit, "array": array, "mode": mode}
        stages = []
        for entry in doc["stages"]:
            states = {}
            for rec in entry["qubits"]:
                q, x, y, a = (_integer(rec[k], k)
                              for k in ("id", "x", "y", "a"))
                if q in states:
                    raise ParseError(f"stage {len(stages)} lists qubit {q} "
                                     "twice")
                states[q] = QubitState(
                    x=x, y=y, a=a,
                    c=_integer(rec["c"], "c") if a == AOD else None,
                    r=_integer(rec["r"], "r") if a == AOD else None)
            stages.append(Stage(states, tuple(_integer(g, "gate")
                                              for g in entry["gates"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed schedule document: {exc}") from None
    return Schedule(stages), meta
