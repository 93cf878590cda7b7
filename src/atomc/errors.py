"""Exception types shared across the package."""


class AtomcError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AtomcError):
    """Malformed circuit or schedule text.

    Carries the 1-based line number when the offending line is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class QubitRangeError(ParseError):
    """A qubit id in the input is outside the declared qubit count."""


class RegionTooSmallError(AtomcError):
    """The array is too small to be split into two usable regions."""


class InfeasibleError(AtomcError):
    """The constraint system admits no solution (e.g. more qubits than sites).

    `phase` names the pac phase that failed; the orchestrator sets it.
    """

    phase: str | None = None


class CompileTimeout(AtomcError):
    """Solver budget exhausted. Carries partial statistics.

    `phase` names the pac phase that timed out; the orchestrator sets it.
    """

    phase: str | None = None

    def __init__(self, message: str, *, wall_time: float = 0.0,
                 solver_calls: int = 0):
        self.wall_time = wall_time
        self.solver_calls = solver_calls
        super().__init__(message)


class BackendError(AtomcError):
    """The MILP solver failed, or the variables were malformed.

    Raised for duplicate variables, empty domains, a HiGHS failure status
    and a model read after a check that was not sat.
    """


class MergeError(AtomcError):
    """Phase results disagree where they must line up (positions, regions)."""


class ConsistencyError(AtomcError):
    """Solver windows disagree at a shared stage (internal error)."""


class VerificationError(AtomcError):
    """A compiled schedule failed the independent verifier (build-failing event).

    The message names what failed (`what`) and the report's first five
    violations; the full report stays on the exception.
    """

    def __init__(self, what: str, report):
        self.report = report
        super().__init__(f"{what}: " + "; ".join(
            f"{v.rule}@{v.stage}: {v.detail}" for v in report.violations[:5]))
