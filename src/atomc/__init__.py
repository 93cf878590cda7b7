"""Constraint-based compiler for reconfigurable atom arrays.

Compiles commutable two-qubit-gate circuits onto a site-discretized trap
array, either monolithically (baseline) or by splitting the array into two
independent quadrants whose sub-circuits compile in parallel before a global
phase finishes the cross-partition gates (pac mode).
"""

from .arrays import ArraySpec, Region, full_region, site_in_region, split_plane
from .circuits import (Circuit, generate_rand3reg, load_circuit,
                       parse_circuit, serialize_circuit)
from .division import (DivisionOptions, Partition, classify, initial_partition,
                       loss, refine, refine_trace, split_circuit,
                       swap_candidates)
from .errors import (AtomcError, BackendError, CompileTimeout, InfeasibleError,
                     MergeError, ParseError, QubitRangeError,
                     RegionTooSmallError, VerificationError)
from .schedule import (AOD, SLM, CompileResult, QubitState, Schedule, Stage,
                       schedule_from_json, schedule_to_json)

__all__ = [
    "AOD", "SLM",
    "ArraySpec", "Region", "full_region", "site_in_region", "split_plane",
    "Circuit", "generate_rand3reg", "load_circuit",
    "parse_circuit", "serialize_circuit",
    "DivisionOptions", "Partition", "classify", "initial_partition", "loss",
    "refine", "refine_trace", "split_circuit", "swap_candidates",
    "AtomcError", "BackendError", "CompileTimeout", "InfeasibleError",
    "MergeError", "ParseError", "QubitRangeError", "RegionTooSmallError",
    "VerificationError",
    "CompileResult", "QubitState", "Schedule", "Stage",
    "schedule_from_json", "schedule_to_json",
]

__version__ = "0.1.0"
