"""The constraint solver: clauses compiled to one MILP.

Constraints are clauses over bounded integer and boolean variables: each
asserts that at least one of its items holds, an item being a literal or a
difference comparison (x - y op k, either variable possibly absent; the
encoder writes nothing else).  MilpBackend compiles them in process to
exact big-M integer-linear rows and decides each check with scipy's HiGHS
MILP engine.
A check has no objective.  It may fix some variables by their bounds for
that check alone; this lets the compiler check one encoded window against
several candidate fired sets, all sharing one constraint matrix.  The
compiler encodes each window shape once into a backend of its own and tells
windows apart by such fixes alone.

A check can also be decided without HiGHS: `accept` takes a candidate
model built elsewhere (a witness), sets each reified binary to the truth
of its comparison, and accepts it only when every row and every bound of
that check, its fixes included, holds.  An accepted witness is a model of
the check, so the check is sat, and it becomes the model a sat check
leaves.

A clause compiles in index space: each comparison is read once into its
two columns, its right-hand side and the bounds of its difference over the
declared domains, and rows are kept as flat column and value lists that
become the CSC matrix in one numpy step.

A comparison inside a multi-item clause is reified: a binary equivalent to
it, tied by two big-M rows.  Reified comparisons are shared (hash-consed on
their columns and right-hand side): a repeat gets the same binary, and a
comparison whose complement is already reified (x <= y against x > y, say)
gets that binary negated, so a pair and its complement cost one binary and
two rows.

All integer variables are finite-domain, so every comparison is exact
(integer arithmetic: a strict bound is the non-strict one shifted by 1), and
identical call sequences give identical models.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import BackendError

# ---------------------------------------------------------------------------
# variables


@dataclass(frozen=True)
class IntVar:
    name: str
    lo: int
    hi: int


@dataclass(frozen=True)
class BoolVar:
    name: str
    # the 0/1 domain, read like IntVar's bounds (class attributes, not fields)
    lo = 0
    hi = 1


Var = Union[IntVar, BoolVar]

# ---------------------------------------------------------------------------
# clause items


@dataclass(frozen=True)
class Cmp:
    """plus - minus op k with op in {"<=", "=="}; an absent (None) side
    reads 0.  Boolean variables contribute as 0/1."""

    op: str
    plus: Var | None
    minus: Var | None
    k: int


@dataclass(frozen=True)
class Lit:
    var: BoolVar
    neg: bool = False


def _diff(op: str, a, b, shift: int) -> Cmp:
    """a + shift - b op 0 as a difference: a variable operand is a side,
    an integer one moves to the right-hand side."""
    if a == b:  # a - a: no variable is left
        a = b = 0
    k = -shift
    if isinstance(a, (IntVar, BoolVar)):
        plus = a
    else:
        plus, k = None, k - int(a)
    if isinstance(b, (IntVar, BoolVar)):
        minus = b
    else:
        minus, k = None, k + int(b)
    return Cmp(op, plus, minus, k)


def LE(a, b) -> Cmp:
    """a <= b, a and b each a variable or an integer."""
    return _diff("<=", a, b, 0)


def LT(a, b) -> Cmp:
    """a < b, i.e. a + 1 <= b."""
    return _diff("<=", a, b, 1)


def GE(a, b) -> Cmp:
    """a >= b, i.e. LE(b, a)."""
    return _diff("<=", b, a, 0)


def GT(a, b) -> Cmp:
    """a > b, i.e. LT(b, a)."""
    return _diff("<=", b, a, 1)


def EQ(a, b) -> Cmp:
    """a == b."""
    return _diff("==", a, b, 0)


def NE(a, b) -> tuple[Cmp, Cmp]:
    """a != b as two clause items, to splat into a clause."""
    return LT(a, b), GT(a, b)


def pos(v: BoolVar) -> Lit:
    return Lit(v, False)


def neg(v: BoolVar) -> Lit:
    return Lit(v, True)


# ---------------------------------------------------------------------------
# in-process MILP backend (scipy / HiGHS)

# One `<=` side of a comparison in index space: (plus, minus, rhs, lo, hi)
# for plus - minus <= rhs, plus and minus columns or None, the difference
# ranging over [lo, hi] on the declared domains.
_Side = tuple[int | None, int | None, int, int, int]


class MilpBackend:
    """Exact big-M integer-linear compilation solved by scipy's HiGHS.

    Columns are the declared variables in declaration order, then the
    reified binaries.  A row is stored flat: its columns in `_cols`, its
    coefficients in `_vals`, its length in `_lengths`, its bounds in
    `_row_lo` and `_row_hi`.
    """

    def __init__(self):
        self._names: dict[str, int] = {}
        self._vars: list[Var] = []
        self._lo: list[int] = []
        self._hi: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []
        self._lengths: list[int] = []
        self._row_lo: list[float] = []
        self._row_hi: list[float] = []
        # hash-cons key of a reified comparison -> its binary's column
        self._reify: dict[tuple, int] = {}
        # per reified binary: its column, the row of its p = 1 side (its
        # comparison's difference plus the binary) and the comparison's rhs
        self._tied: list[tuple[int, int, int]] = []
        self._model: dict[str, int] | None = None
        # the rows as `_constraint` compiled them; None when stale
        self._built: tuple | None = None

    # -- variables

    def _register(self, v: Var, lo: int, hi: int) -> int:
        if v.name in self._names:
            raise BackendError(f"duplicate variable {v.name}")
        idx = len(self._vars)
        self._names[v.name] = idx
        self._vars.append(v)
        self._lo.append(lo)
        self._hi.append(hi)
        self._built = None
        return idx

    def int_var(self, name: str, lo: int, hi: int) -> IntVar:
        if lo > hi:
            raise BackendError(f"empty domain for {name}: [{lo}, {hi}]")
        v = IntVar(name, lo, hi)
        self._register(v, lo, hi)
        return v

    def bool_var(self, name: str) -> BoolVar:
        v = BoolVar(name)
        self._register(v, 0, 1)
        return v

    # -- constraints

    def _add_row(self, coeffs: dict[int, float], lo: float, hi: float) -> None:
        self._cols.extend(coeffs)
        self._vals.extend(coeffs.values())
        self._lengths.append(len(coeffs))
        self._row_lo.append(lo)
        self._row_hi.append(hi)
        self._built = None

    def _side(self, cmp: Cmp) -> _Side:
        plus = minus = None
        lo = hi = 0
        if cmp.plus is not None:
            plus = self._names[cmp.plus.name]
            lo, hi = cmp.plus.lo, cmp.plus.hi
        if cmp.minus is not None:
            minus = self._names[cmp.minus.name]
            lo, hi = lo - cmp.minus.hi, hi - cmp.minus.lo
        return plus, minus, cmp.k, lo, hi

    @staticmethod
    def _flip(side: _Side) -> _Side:
        """The other `<=` side of an equality: minus - plus <= -rhs."""
        plus, minus, rhs, lo, hi = side
        return minus, plus, -rhs, -hi, -lo

    @staticmethod
    def _row(side: _Side) -> dict[int, float]:
        """The side's columns with their coefficients, as a fresh row."""
        plus, minus = side[0], side[1]
        row = {}
        if plus is not None:
            row[plus] = 1.0
        if minus is not None:
            row[minus] = -1.0
        return row

    def _reified(self, side: _Side) -> tuple[int, bool]:
        """A literal (column, negated) equivalent to (plus - minus <= rhs),
        hash-consed on (plus, minus, rhs).  Called on live comparisons only
        (lo <= rhs < hi), so both big-M rows bind.

        A miss whose complement (plus - minus >= rhs + 1, keyed as (minus,
        plus, -rhs - 1)) is already reified returns that binary negated:
        its two big-M rows tie it to its comparison both ways, so not p is
        exactly this one.  Otherwise a fresh p gets p <-> (plus - minus <=
        rhs) as two big-M rows.
        """
        plus, minus, rhs, lo, hi = side
        key = plus, minus, rhs
        hit = self._reify.get(key)
        if hit is not None:
            return hit, False
        hit = self._reify.get((minus, plus, -rhs - 1))
        if hit is not None:
            return hit, True
        p = self._register(BoolVar(f"__r{len(self._reify)}"), 0, 1)
        self._reify[key] = p
        self._tied.append((p, len(self._lengths), rhs))
        # with e = plus - minus:
        # p = 1  =>  e <= rhs:            e + (hi - rhs) p <= hi
        row = self._row(side)
        row[p] = float(hi - rhs)
        self._add_row(row, -np.inf, float(hi))
        # p = 0  =>  e >= rhs + 1:        e + (rhs + 1 - lo) p >= rhs + 1
        row = self._row(side)
        row[p] = float(rhs + 1 - lo)
        self._add_row(row, float(rhs + 1), np.inf)
        return p, False

    def add(self, *items: Lit | Cmp) -> None:
        """Assert one clause: at least one item holds.

        An EQ item is the conjunction of its two <= sides, so the clause
        splits into one clause per side (per combination of sides when it
        holds several EQ items).
        """
        lits: list[tuple[int, bool]] = []
        sides: list[_Side] = []
        eq: list[int] = []  # positions in `sides` of EQ items
        for item in items:
            if isinstance(item, Lit):
                lits.append((self._names[item.var.name], item.neg))
            else:
                if item.op == "==":
                    eq.append(len(sides))
                sides.append(self._side(item))
        if not eq:
            self._compile_clause(lits, sides)
            return
        choices = [(s, self._flip(s)) if i in eq else (s,)
                   for i, s in enumerate(sides)]
        for clause in product(*choices):
            self._compile_clause(lits, clause)

    def _compile_clause(self, lits: list[tuple[int, bool]],
                        sides: Iterable[_Side]) -> None:
        # comparisons decided by the variable domains leave the clause
        live: list[_Side] = []
        for side in sides:
            _, _, rhs, lo, hi = side
            if hi <= rhs:
                return  # always true: clause satisfied
            if lo > rhs:
                continue  # always false: drop from the clause
            live.append(side)
        if not lits and not live:
            self._add_row({}, 1.0, np.inf)  # empty clause: unsatisfiable
            return
        if len(live) > 1:
            lits = lits + [self._reified(side) for side in live]
            live = []
        if live:
            # exactly one comparison, guarded by any literals: when every
            # literal is false the comparison must hold
            _, _, rhs, _, hi = live[0]
            coeffs = self._row(live[0])
            m = float(hi - rhs)
            ub = float(rhs)
            for idx, negated in lits:
                if negated:
                    coeffs[idx] = coeffs.get(idx, 0.0) + m
                    ub += m
                else:
                    coeffs[idx] = coeffs.get(idx, 0.0) - m
            self._add_row(coeffs, -np.inf, ub)
            return
        coeffs = {}
        rhs = 1.0
        for idx, negated in lits:
            if negated:
                coeffs[idx] = coeffs.get(idx, 0.0) - 1.0
                rhs -= 1.0
            else:
                coeffs[idx] = coeffs.get(idx, 0.0) + 1.0
        self._add_row(coeffs, rhs, np.inf)

    # -- solving

    def _constraint(self):
        """The rows as a CSC matrix with row bounds, or None when there are
        none.  Built once and reused until the next variable or row."""
        if self._built is None and self._lengths:
            from scipy.sparse import csc_matrix
            lengths = np.array(self._lengths, dtype=np.intp)
            rows = np.repeat(np.arange(len(lengths)), lengths)
            cols = np.array(self._cols, dtype=np.intp)
            a_mat = csc_matrix((np.array(self._vals, dtype=float),
                                (rows, cols)),
                               shape=(len(lengths), len(self._vars)))
            self._built = (a_mat, np.array(self._row_lo, dtype=float),
                           np.array(self._row_hi, dtype=float))
        return self._built

    def check(self, timeout: float | None = None,
              fixed: Mapping[Var, int] | None = None) -> str:
        """Decide the rows added so far: "sat" (a model is available),
        "unsat" or "unknown" (the time limit hit first).

        `fixed` maps variables to values that this check alone holds them
        at, by their bounds; a value outside a variable's domain makes the
        check unsat.  The rows are untouched, so checks that differ only in
        `fixed` share one constraint matrix.  The objective is zero: HiGHS
        answers a decision question and stops at its first feasible point.
        """
        from scipy.optimize import Bounds, LinearConstraint, milp

        n = len(self._vars)
        if n == 0:
            # every row is empty and reads 0
            ok = all(lo <= 0 <= hi
                     for lo, hi in zip(self._row_lo, self._row_hi))
            self._model = {} if ok else None
            return "sat" if ok else "unsat"
        lo, hi = self._bounds(fixed)
        if np.any(lo > hi):  # `fixed` emptied a domain
            self._model = None
            return "unsat"
        options: dict = {"presolve": True}
        if timeout is not None:
            options["time_limit"] = max(timeout, 0.01)
        kwargs = {}
        built = self._constraint()
        if built is not None:
            kwargs["constraints"] = LinearConstraint(*built)
        res = milp(c=np.zeros(n), integrality=np.ones(n),
                   bounds=Bounds(lo, hi), options=options, **kwargs)
        if res.status == 0:
            xs = np.rint(res.x).astype(int)
            self._model = {v.name: int(xs[i]) for i, v in enumerate(self._vars)}
            return "sat"
        self._model = None
        if res.status == 2:
            return "unsat"
        if res.status == 1:
            return "unknown"
        raise BackendError(f"solver failure: status={res.status} {res.message}")

    def _bounds(self, fixed: Mapping[Var, int] | None):
        """Every column's (lo, hi) as arrays, `fixed` applied."""
        lo = np.array(self._lo, dtype=float)
        hi = np.array(self._hi, dtype=float)
        for var, value in (fixed or {}).items():
            idx = self._names[var.name]
            lo[idx] = max(lo[idx], value)
            hi[idx] = min(hi[idx], value)
        return lo, hi

    def accept(self, witness: Mapping[Var, int],
               fixed: Mapping[Var, int] | None = None) -> bool:
        """Whether `witness`, a value for every declared variable, is a
        model of the rows under the bounds and `fixed` of one `check`; if
        it is, it becomes the model, as a sat check's would.

        Each reified binary is set to the truth of the comparison it stands
        for, which is the only value its two big-M rows admit.  Then every
        row and every bound must hold.  So an accepted witness proves the
        check sat, and the same check handed to HiGHS would answer sat.
        Values are small integers, so the row sums are exact."""
        self._model = None
        n = len(self._vars)
        x = np.full(n, np.nan)
        for var, value in witness.items():
            x[self._names[var.name]] = value
        binaries = np.array([p for p, _, _ in self._tied], dtype=np.intp)
        x[binaries] = 0.0
        if np.isnan(x).any():  # a declared variable has no value
            return False
        lo, hi = self._bounds(fixed)
        built = self._constraint()
        if built is not None:
            a_mat, row_lo, row_hi = built
            if binaries.size:
                # with its binary at 0, the p = 1 row of a reified
                # comparison reads the comparison's difference
                rows = np.array([r for _, r, _ in self._tied], dtype=np.intp)
                rhs = np.array([k for _, _, k in self._tied], dtype=float)
                x[binaries] = (a_mat @ x)[rows] <= rhs
            sums = a_mat @ x
            if np.any(sums < row_lo) or np.any(sums > row_hi):
                return False
        if np.any(x < lo) or np.any(x > hi):
            return False
        xs = x.astype(int)
        self._model = {v.name: int(xs[i]) for i, v in enumerate(self._vars)}
        return True

    def model(self) -> dict[str, int]:
        if self._model is None:
            raise BackendError("no model available (last check was not sat)")
        return dict(self._model)
