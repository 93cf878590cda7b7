"""The constraint solver: clauses compiled to one MILP.

Constraints are clauses over bounded integer and boolean variables: each
asserts that at least one of its items holds, an item being a literal or a
linear comparison.  MilpBackend compiles them in process to exact big-M
integer-linear rows and decides each check with scipy's HiGHS MILP engine.
A check has no objective.  It may fix some variables by their bounds for
that check alone; this lets the compiler check one encoded window against
several candidate fired sets, all sharing one constraint matrix.  The
compiler calls reset() before encoding each window.

A comparison inside a multi-item clause is reified: a binary equivalent to
it, tied by two big-M rows.  Reified comparisons are shared: a repeat gets
the same binary, and a comparison whose complement is already reified (x <=
y against x > y, say) gets that binary negated, so a pair and its complement
cost one binary and two rows.

All integer variables are finite-domain, so every comparison is exact
(integer arithmetic: a strict bound is the non-strict one shifted by 1), and
identical call sequences give identical models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import BackendError

# ---------------------------------------------------------------------------
# variables and linear expressions


@dataclass(frozen=True)
class IntVar:
    name: str
    lo: int
    hi: int


@dataclass(frozen=True)
class BoolVar:
    name: str


Var = Union[IntVar, BoolVar]


@dataclass(frozen=True)
class LinExpr:
    """Integer linear expression; boolean variables contribute as 0/1."""

    terms: tuple[tuple[int, Var], ...]
    const: int = 0

    def __add__(self, other: "LinExpr | Var | int") -> "LinExpr":
        other = lin(other)
        return LinExpr(self.terms + other.terms, self.const + other.const)

    def __sub__(self, other: "LinExpr | Var | int") -> "LinExpr":
        other = lin(other)
        neg = tuple((-k, v) for k, v in other.terms)
        return LinExpr(self.terms + neg, self.const - other.const)

    def bounds(self) -> tuple[int, int]:
        lo = hi = self.const
        for k, v in self.terms:
            vlo, vhi = (0, 1) if isinstance(v, BoolVar) else (v.lo, v.hi)
            lo += k * (vlo if k > 0 else vhi)
            hi += k * (vhi if k > 0 else vlo)
        return lo, hi


def lin(x: LinExpr | Var | int) -> LinExpr:
    if isinstance(x, LinExpr):
        return x
    if isinstance(x, (IntVar, BoolVar)):
        return LinExpr(((1, x),))
    return LinExpr((), int(x))


def total(xs: Iterable[Var]) -> LinExpr:
    return LinExpr(tuple((1, x) for x in xs))


# ---------------------------------------------------------------------------
# clause items


@dataclass(frozen=True)
class Cmp:
    """expr op k with op in {"<=", "=="}."""

    op: str
    expr: LinExpr
    k: int


@dataclass(frozen=True)
class Lit:
    var: BoolVar
    neg: bool = False


def LE(a, b) -> Cmp:
    e = lin(a) - lin(b)
    return Cmp("<=", LinExpr(e.terms), -e.const)


def LT(a, b) -> Cmp:
    return LE(lin(a) + 1, b)


def GE(a, b) -> Cmp:
    return LE(b, a)


def GT(a, b) -> Cmp:
    return LT(b, a)


def EQ(a, b) -> Cmp:
    e = lin(a) - lin(b)
    return Cmp("==", LinExpr(e.terms), -e.const)


def NE(a, b) -> tuple[Cmp, Cmp]:
    """a != b as two clause items, to splat into a clause."""
    return LT(a, b), GT(a, b)


def pos(v: BoolVar) -> Lit:
    return Lit(v, False)


def neg(v: BoolVar) -> Lit:
    return Lit(v, True)


# ---------------------------------------------------------------------------
# in-process MILP backend (scipy / HiGHS)


class MilpBackend:
    """Exact big-M integer-linear compilation solved by scipy's HiGHS."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._names: dict[str, int] = {}
        self._vars: list[Var] = []
        self._lo: list[int] = []
        self._hi: list[int] = []
        self._rows: list[tuple[dict[int, float], float, float]] = []
        self._reify: dict[tuple, BoolVar] = {}
        self._model: dict[str, int] | None = None
        # the rows as `_constraint` compiled them; None when stale
        self._built: tuple | None = None

    # -- variables

    def _register(self, v: Var, lo: int, hi: int) -> None:
        if v.name in self._names:
            raise BackendError(f"duplicate variable {v.name}")
        self._names[v.name] = len(self._vars)
        self._vars.append(v)
        self._lo.append(lo)
        self._hi.append(hi)
        self._built = None

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
        self._rows.append((coeffs, lo, hi))
        self._built = None

    def _expr_coeffs(self, e: LinExpr) -> dict[int, float]:
        coeffs: dict[int, float] = {}
        for k, v in e.terms:
            idx = self._names[v.name]
            coeffs[idx] = coeffs.get(idx, 0.0) + float(k)
        return {i: c for i, c in coeffs.items() if c != 0.0}

    def _try_absorb_bound(self, cmp: Cmp) -> bool:
        # single-variable rows tighten the domain instead of adding a row
        if len(cmp.expr.terms) != 1:
            return False
        k, v = cmp.expr.terms[0]
        if k not in (1, -1):
            return False
        rhs = cmp.k - cmp.expr.const
        idx = self._names[v.name]
        if k == 1:
            self._hi[idx] = min(self._hi[idx], rhs)
        else:
            self._lo[idx] = max(self._lo[idx], -rhs)
        return True

    def _reified(self, cmp: Cmp) -> Lit:
        """A literal equivalent to (terms <= rhs), hash-consed.

        A miss whose complement (terms >= rhs + 1, keyed as -terms <=
        -rhs - 1) is already reified returns that binary negated: its two
        big-M rows tie it to its comparison both ways, so not p is exactly
        this one.  Otherwise a fresh p gets p <-> (terms <= rhs) as two
        big-M rows.
        """
        rhs = cmp.k - cmp.expr.const
        terms = sorted((k, v.name) for k, v in cmp.expr.terms)
        key = (tuple(terms), rhs)
        hit = self._reify.get(key)
        if hit is not None:
            return Lit(hit)
        hit = self._reify.get(
            (tuple(sorted((-k, name) for k, name in terms)), -rhs - 1))
        if hit is not None:
            return Lit(hit, neg=True)
        p = self.bool_var(f"__r{len(self._reify)}")
        self._reify[key] = p
        e = LinExpr(cmp.expr.terms)
        lo, hi = e.bounds()
        pidx = self._names[p.name]
        coeffs = self._expr_coeffs(e)
        # p = 1  =>  e <= rhs:            e + (hi - rhs) p <= hi
        if hi > rhs:
            row = dict(coeffs)
            row[pidx] = row.get(pidx, 0.0) + float(hi - rhs)
            self._add_row(row, -np.inf, float(hi))
        # p = 0  =>  e >= rhs + 1:        e + (rhs + 1 - lo) p >= rhs + 1
        if lo <= rhs:
            row = dict(coeffs)
            row[pidx] = row.get(pidx, 0.0) + float(rhs + 1 - lo)
            self._add_row(row, float(rhs + 1), np.inf)
        # lo > rhs: comparison always false; p=0 side vacuous, but p must be 0
        if lo > rhs:
            self._hi[pidx] = 0
        # hi <= rhs: comparison always true; p=1 side vacuous, but p must be 1
        if hi <= rhs:
            self._lo[pidx] = 1
        return Lit(p)

    def add(self, *items: Lit | Cmp) -> None:
        """Assert one clause: at least one item holds.

        An EQ item is the conjunction of its two <= sides, so the clause
        splits into one clause per side (per combination of sides when it
        holds several EQ items).
        """
        clauses: list[list[Lit | Cmp]] = [[]]
        for item in items:
            if isinstance(item, Cmp) and item.op == "==":
                flip = lin(0) - item.expr
                sides = (Cmp("<=", item.expr, item.k),
                         Cmp("<=", LinExpr(flip.terms), -item.k))
                clauses = [c + [side] for c in clauses for side in sides]
            else:
                for c in clauses:
                    c.append(item)
        for clause in clauses:
            self._compile_clause(clause)

    def _fix_lit(self, l: Lit) -> None:
        idx = self._names[l.var.name]
        if l.neg:
            self._hi[idx] = min(self._hi[idx], 0)
        else:
            self._lo[idx] = max(self._lo[idx], 1)

    def _compile_clause(self, clause: list[Lit | Cmp]) -> None:
        lits = [c for c in clause if isinstance(c, Lit)]
        cmps = [c for c in clause if isinstance(c, Cmp)]
        # comparisons decided by the variable domains leave the clause
        live: list[Cmp] = []
        for cmp in cmps:
            rhs = cmp.k - cmp.expr.const
            lo, hi = LinExpr(cmp.expr.terms).bounds()
            if hi <= rhs:
                return  # always true: clause satisfied
            if lo > rhs:
                continue  # always false: drop from the clause
            live.append(cmp)
        cmps = live
        if not lits and not cmps:
            self._add_row({}, 1.0, np.inf)  # empty clause: unsatisfiable
            return
        if len(lits) == 1 and not cmps:
            self._fix_lit(lits[0])
            return
        if len(cmps) == 1 and not lits:
            cmp = cmps[0]
            if self._try_absorb_bound(cmp):
                return
            coeffs = self._expr_coeffs(cmp.expr)
            self._add_row(coeffs, -np.inf, float(cmp.k - cmp.expr.const))
            return
        if len(cmps) > 1:
            lits = lits + [self._reified(c) for c in cmps]
            cmps = []
        if cmps:
            # exactly one comparison guarded by literals: when every literal
            # is false the comparison must hold
            cmp = cmps[0]
            rhs = cmp.k - cmp.expr.const
            e = LinExpr(cmp.expr.terms)
            lo, hi = e.bounds()
            coeffs = self._expr_coeffs(e)
            m = float(hi - rhs)
            ub = float(rhs)
            for l in lits:
                idx = self._names[l.var.name]
                if l.neg:
                    coeffs[idx] = coeffs.get(idx, 0.0) + m
                    ub += m
                else:
                    coeffs[idx] = coeffs.get(idx, 0.0) - m
            self._add_row(coeffs, -np.inf, ub)
            return
        self._bool_clause(lits)

    def _bool_clause(self, lits: list[Lit]) -> None:
        coeffs: dict[int, float] = {}
        rhs = 1.0
        for l in lits:
            idx = self._names[l.var.name]
            if l.neg:
                coeffs[idx] = coeffs.get(idx, 0.0) - 1.0
                rhs -= 1.0
            else:
                coeffs[idx] = coeffs.get(idx, 0.0) + 1.0
        self._add_row(coeffs, rhs, np.inf)

    # -- solving

    def _constraint(self):
        """The rows as a CSC matrix with row bounds, or None when there are
        none.  Built once and reused until the next variable, row or
        reset."""
        rows = self._rows
        if self._built is None and rows:
            from scipy.sparse import csc_matrix
            ri, ci, data = [], [], []
            for i, (coeffs, _, _) in enumerate(rows):
                for j, coef in coeffs.items():
                    ri.append(i)
                    ci.append(j)
                    data.append(coef)
            a_mat = csc_matrix((data, (ri, ci)),
                               shape=(len(rows), len(self._vars)))
            self._built = (a_mat, np.array([r[1] for r in rows]),
                           np.array([r[2] for r in rows]))
        return self._built

    def check(self, timeout: float | None = None,
              fixed: Mapping[Var, int] | None = None) -> str:
        """Decide the rows added since the last reset: "sat" (a model is
        available), "unsat" or "unknown" (the time limit hit first).

        `fixed` maps variables to values that this check alone holds them
        at, by their bounds; a value outside a variable's domain makes the
        check unsat.  The rows are untouched, so checks that differ only in
        `fixed` share one constraint matrix.  The objective is zero: HiGHS
        answers a decision question and stops at its first feasible point.
        """
        from scipy.optimize import Bounds, LinearConstraint, milp

        n = len(self._vars)
        if n == 0:
            self._model = {}
            return "sat"
        lo = np.array(self._lo, dtype=float)
        hi = np.array(self._hi, dtype=float)
        for var, value in (fixed or {}).items():
            idx = self._names[var.name]
            lo[idx] = max(lo[idx], value)
            hi[idx] = min(hi[idx], value)
        if np.any(lo > hi):  # bound absorption or `fixed` emptied a domain
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

    def model(self) -> dict[str, int]:
        if self._model is None:
            raise BackendError("no model available (last check was not sat)")
        return dict(self._model)
