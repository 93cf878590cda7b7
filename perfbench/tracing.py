"""Span recording around the public entry points of each atomc layer.

The tracer wraps functions from outside the package: it replaces every
module (or class) attribute bound to a traced function with a wrapper that
records a span, and puts the originals back on exit.  Nothing inside atomc
is edited, so the untraced program is exactly the program under test.

A span has a name, start, end, parent span and instance id.  The parent
stack is thread-local, because pac_compile runs its two local phases in
worker threads; a span opened on a worker thread with an empty stack takes
the innermost open span of the thread that installed the tracer (the
blocked pac_compile call) as its parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Rule ids the verifier can report; each gets a violations.<rule> counter.
VERIFIER_RULES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8",
                  "coherence", "E2", "E3", "E4", "E5")


@dataclass(eq=False, slots=True)
class Span:
    id: int
    name: str
    parent: "Span | None"
    instance: str
    thread: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name,
                "parent": self.parent.id if self.parent else None,
                "instance": self.instance, "thread": self.thread,
                "start": self.start, "end": self.end, "attrs": self.attrs}


def _milp_size(args, kwargs, result) -> dict:
    """Model size read from the arguments of one scipy.optimize.milp call."""
    lo = np.asarray(kwargs["bounds"].lb, dtype=float)
    hi = np.asarray(kwargs["bounds"].ub, dtype=float)
    cons = kwargs.get("constraints")
    rows = nnz = 0
    max_coef = 0.0
    if cons is not None:
        a = cons.A
        rows, nnz = a.shape[0], a.nnz
        if nnz:
            max_coef = float(np.abs(a.data).max())
    return {"vars": int(lo.size),
            "binaries": int(np.count_nonzero((lo >= 0) & (hi <= 1))),
            "rows": int(rows), "nnz": int(nnz), "max_coef": max_coef}


def _refine_trace_note(args, kwargs, result) -> dict:
    partition, steps = result
    return {"swaps": len(steps), "cross_gates": len(partition.e3),
            "active_qubits": len(partition.qa1) + len(partition.qa2)}


def _report_note(args, kwargs, result) -> dict:
    return {"violations": dict(Counter(v.rule for v in result.violations))}


# (span name, module path, attribute, note) for every traced entry point.
# A note turns (args, kwargs, result) into span attributes.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("division.refine", "atomc.division", "refine", None),
    ("division.refine_trace", "atomc.division", "refine_trace",
     _refine_trace_note),
    ("division.split_circuit", "atomc.division", "split_circuit", None),
    ("encoding.encode_window", "atomc.encoding", "encode_window", None),
    ("smt.add", "atomc.smt", "MilpBackend.add", None),
    ("smt.check", "atomc.smt", "MilpBackend.check",
     lambda a, k, r: {"answer": r}),
    ("smt.milp", "scipy.optimize", "milp", _milp_size),
    ("compiler.compile_circuit", "atomc.compiler", "compile_circuit", None),
    ("compiler.solve_window", "atomc.compiler", "solve_window",
     lambda a, k, r: {"grown": r is None}),
    ("compiler.extract_schedule", "atomc.compiler", "extract_schedule", None),
    ("orchestrator.pac_compile", "atomc.orchestrator", "pac_compile", None),
    ("orchestrator.build_global_constraints", "atomc.orchestrator",
     "build_global_constraints", None),
    ("orchestrator.merge", "atomc.orchestrator", "merge", None),
    ("verifier.verify", "atomc.verifier", "verify", _report_note),
    ("verifier.verify_phases", "atomc.verifier", "verify_phases",
     _report_note),
    ("schedule.schedule_to_json", "atomc.schedule", "schedule_to_json", None),
    ("schedule.schedule_from_json", "atomc.schedule", "schedule_from_json",
     None),
)


def _bindings(original, modules) -> list[tuple[object, str]]:
    """Every (owner, attribute) among `modules` bound to `original`.

    A function imported with `from .x import f` is a separate binding in the
    importing module, and internal calls go through it; each is wrapped.
    """
    found = []
    for mod in modules:
        for attr, value in vars(mod).items():
            if value is original:
                found.append((mod, attr))
    return found


def _resolve(modname: str, attr: str):
    owner = importlib.import_module(modname)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


class Tracer:
    """Context manager: wraps every target on entry, restores on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.instance = ""
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home: list[Span] = []
        # (owner, attribute, original) of every binding wrapped on entry
        self.wrapped: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._home[-1] if self._home else None
        with self._lock:
            span = Span(next(self._ids), name, parent, self.instance,
                        threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span from the harness itself (used for instance roots)."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span.attrs.update(note(args, kwargs, result))
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        self._home = self._stack()
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "atomc" or n.startswith("atomc.")]
        try:
            for name, modname, attr, note in TARGETS:
                owner, last = _resolve(modname, attr)
                original = vars(owner)[last]
                wrapper = self._wrap(name, original, note)
                places = [(owner, last)]
                if isinstance(owner, type(sys)):
                    places = _bindings(original, modules + [owner])
                for place, key in dict.fromkeys(places):
                    self.wrapped.append((place, key, original))
                    setattr(place, key, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self._restore()
        return False

    def _restore(self) -> None:
        for place, key, original in reversed(self.wrapped):
            setattr(place, key, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def _union(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        covered += hi - max(lo, reach)
        reach = hi
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent.id, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(lo, s.start), min(hi, s.end))
                for lo, hi in children.get(s.id, ())]
        out[s.id] = s.duration - _union([k for k in kids if k[1] > k[0]])
    return out


def layer_metrics(spans: list[Span], instance_root: str) -> dict[str, float]:
    """Aggregate one traced pass into the per-layer metrics.

    `instance_root` names the harness span that wraps each instance; it is
    left out of the layer self times.  Layers a workload does not exercise
    read 0.
    """
    selfs = self_times(spans)
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def dur(name):
        return sum(s.duration for s in by.get(name, ()))

    def own(*names):
        return sum(selfs[s.id] for n in names for s in by.get(n, ()))

    # a call that raised carries no attributes
    checks = by.get("smt.check", [])
    answers = Counter(s.attrs.get("answer") for s in checks)
    milps = [s.attrs for s in by.get("smt.milp", []) if s.attrs]

    def biggest(key):
        return max((m[key] for m in milps), default=0)

    m: dict[str, float] = {
        "smt.highs_s": dur("smt.milp"),
        "smt.assemble_s": dur("smt.check") - dur("smt.milp"),
        "smt.checks": len(checks),
        "smt.sat": answers["sat"],
        "smt.unsat": answers["unsat"],
        "smt.unknown": answers["unknown"],
        "smt.vars_max": biggest("vars"),
        "smt.binaries_max": biggest("binaries"),
        "smt.rows_max": biggest("rows"),
        "smt.nnz_max": biggest("nnz"),
        "smt.rows_sum": sum(x["rows"] for x in milps),
        "smt.nnz_sum": sum(x["nnz"] for x in milps),
        "smt.max_coef": biggest("max_coef"),
        "smt.add_s": dur("smt.add"),
        "encoding.encode_s": own("encoding.encode_window"),
        "encoding.windows": len(by.get("encoding.encode_window", ())),
        "encoding.formulas": sum(
            1 for s in by.get("smt.add", ())
            if s.parent is not None
            and s.parent.name == "encoding.encode_window"),
    }

    solves = by.get("compiler.solve_window", [])
    m.update({
        "compiler.compile_s": dur("compiler.compile_circuit"),
        "compiler.self_s": own("compiler.compile_circuit",
                               "compiler.solve_window",
                               "compiler.extract_schedule"),
        "compiler.grow_retries": sum(1 for s in solves
                                     if s.attrs.get("grown")),
        "compiler.sat_share": (answers["sat"] / len(checks)) if checks else 0.0,
        "compiler.stitch_s": dur("compiler.extract_schedule"),
        "compiler.stitch_calls": len(by.get("compiler.extract_schedule", ())),
        "compiler.selfcheck_s": sum(
            s.duration for s in by.get("verifier.verify", ())
            if s.parent is not None
            and s.parent.name == "compiler.compile_circuit"),
    })

    traces = [s.attrs for s in by.get("division.refine_trace", [])
              if s.attrs]
    m.update({
        "division.refine_s": dur("division.refine"),
        "division.swaps": sum(t["swaps"] for t in traces),
        "division.cross_gates": sum(t["cross_gates"] for t in traces),
        "division.active_qubits": sum(t["active_qubits"] for t in traces),
    })

    local_walls = local_spans = global_s = 0.0
    for pac in by.get("orchestrator.pac_compile", []):
        compiles = [s for s in by.get("compiler.compile_circuit", ())
                    if s.parent is pac]
        local = [s for s in compiles if s.thread != pac.thread]
        global_s += sum(s.duration for s in compiles if s.thread == pac.thread)
        if local:
            local_walls += sum(s.duration for s in local)
            local_spans += (max(s.end for s in local)
                            - min(s.start for s in local))
    m.update({
        "orchestrator.local_s": local_spans,
        "orchestrator.local_overlap": (local_walls / local_spans
                                       if local_spans else 0.0),
        "orchestrator.global_s": global_s,
        "orchestrator.merge_s": dur("orchestrator.merge"),
        "orchestrator.self_s": own("orchestrator.pac_compile",
                                   "orchestrator.build_global_constraints",
                                   "orchestrator.merge"),
    })

    violations: Counter = Counter()
    for name in ("verifier.verify", "verifier.verify_phases"):
        for s in by.get(name, ()):
            # verify_phases re-reports what its inner verify calls found
            if s.parent is None or s.parent.name != "verifier.verify_phases":
                violations.update(s.attrs.get("violations", {}))
    m["verifier.verify_s"] = dur("verifier.verify")
    m["verifier.verify_phases_s"] = dur("verifier.verify_phases")
    for rule in VERIFIER_RULES:
        m[f"verifier.violations.{rule}"] = violations[rule]

    m["schedule.json_s"] = (dur("schedule.schedule_to_json")
                            + dur("schedule.schedule_from_json"))

    roots = by.get(instance_root, [])
    wall = sum(s.duration for s in roots)
    layer_self = sum(selfs[s.id] for s in spans if s.name != instance_root)
    m["trace.coverage"] = layer_self / wall if wall else 0.0
    return m
