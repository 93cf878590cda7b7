import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from atomc.smt import (EQ, GE, GT, LE, LT, NE, BoolVar, IntVar, Lit,
                       MilpBackend)


def _holds(item, env):
    if isinstance(item, Lit):
        val = bool(env[item.var.name])
        return (not val) if item.neg else val
    s = sum(sign * env[v.name] for sign, v in ((1, item.plus),
                                               (-1, item.minus))
            if v is not None)
    return s <= item.k if item.op == "<=" else s == item.k


def evaluate(clause, env):
    """Brute-force truth of one clause under an assignment (test oracle):
    at least one item holds."""
    return any(_holds(item, env) for item in clause)


def brute_force_sat(variables, clauses):
    domains = []
    for v in variables:
        if isinstance(v, IntVar):
            domains.append(range(v.lo, v.hi + 1))
        else:
            domains.append((0, 1))
    for values in itertools.product(*domains):
        env = {v.name: val for v, val in zip(variables, values)}
        if all(evaluate(c, env) for c in clauses):
            return env
    return None


COMPLEMENT = {LE: GT, GT: LE, LT: GE, GE: LT, EQ: NE, NE: EQ}


def random_clause(rng, ints, bools, drawn):
    """One to three draws, each a literal of either sign or a comparison of
    a variable with a constant or with another variable (NE adds its two
    items).  Comparisons are recorded in `drawn`, and a third of them
    repeat the complement of an earlier one of the clause set."""
    clause = []
    for _ in range(rng.choice((1, 2, 2, 3))):
        if rng.random() < 0.35:
            clause.append(Lit(rng.choice(bools), rng.random() < 0.5))
            continue
        if drawn and rng.random() < 0.33:
            op, u, rhs = rng.choice(drawn)
            op = COMPLEMENT[op]
        else:
            op = rng.choice([LE, LT, EQ, NE, GE, GT])
            u, v = rng.sample(ints, 2)
            rhs = rng.randrange(-1, 5) if rng.random() < 0.7 else v
        drawn.append((op, u, rhs))
        item = op(u, rhs)
        clause.extend(item if op is NE else (item,))
    return tuple(clause)


@pytest.fixture(params=["milp"])
def b(request):
    return MilpBackend()


def test_basic_sat_unsat(b):
    x = b.int_var("x", 0, 3)
    y = b.int_var("y", 0, 3)
    b.add(GE(y, 3))
    b.add(LT(x, y))
    assert b.check() == "sat"
    m = b.model()
    assert m["y"] == 3 and m["x"] < m["y"]
    b.add(GT(x, y))
    assert b.check() == "unsat"


def test_bool_logic(b):
    p = b.bool_var("p")
    q = b.bool_var("q")
    b.add(Lit(p), Lit(q))
    b.add(Lit(p, neg=True), Lit(q, neg=True))
    b.add(Lit(p, neg=True))
    assert b.check() == "sat"
    assert b.model() == {"p": 0, "q": 1}


def test_implication_with_comparison(b):
    p = b.bool_var("p")
    x = b.int_var("x", 0, 9)
    b.add(Lit(p, neg=True), EQ(x, 7))
    b.add(Lit(p))
    assert b.check() == "sat"
    assert b.model()["x"] == 7


def test_cardinality_over_bools(b):
    # at least three of five: every three of them hold a true one
    fs = [b.bool_var(f"f{i}") for i in range(5)]
    for three in itertools.combinations(fs, 3):
        b.add(*map(Lit, three))
    b.add(Lit(fs[0], neg=True))
    b.add(Lit(fs[1], neg=True))
    assert b.check() == "sat"
    m = b.model()
    assert m["f2"] == m["f3"] == m["f4"] == 1
    b.add(Lit(fs[2], neg=True))
    assert b.check() == "unsat"


def test_negative_values_roundtrip(b):
    x = b.int_var("x", -5, 5)
    b.add(LE(x, -3))
    assert b.check() == "sat"
    assert b.model()["x"] <= -3


@pytest.mark.parametrize("negated", [False, True])
def test_true_guard_frees_the_comparison(negated):
    # a true guard admits the guarded expression up to its domain bound:
    # x - y reaches 3 here
    b = MilpBackend()
    p = b.bool_var("p")
    x = b.int_var("x", 0, 3)
    y = b.int_var("y", 0, 3)
    guard = Lit(p, neg=negated)
    b.add(guard, LE(x, y))
    b.add(guard)
    b.add(GE(x, 3))
    b.add(LE(y, 0))
    assert b.check() == "sat"
    assert b.model() == {"p": int(not negated), "x": 3, "y": 0}


def test_fixed_holds_for_one_check_only():
    b = MilpBackend()
    fs = [b.bool_var(f"f{i}") for i in range(2)]
    x = b.int_var("x", 0, 10)
    b.add(Lit(fs[0], neg=True), GE(x, 9))
    b.add(Lit(fs[1], neg=True), LE(x, 2))  # f0 and f1 conflict
    assert b.check(fixed={fs[0]: 1, fs[1]: 1}) == "unsat"
    assert b.check(fixed={fs[0]: 1, fs[1]: 0}) == "sat"
    assert b.model()["x"] >= 9
    # a value outside the domain refutes the check and leaves the domain
    assert b.check(fixed={x: 11}) == "unsat"
    # the fixes are gone: x may now go low, then high again
    assert b.check(fixed={fs[1]: 1}) == "sat"
    assert b.model()["f0"] == 0 and b.model()["x"] <= 2
    assert b.check(fixed={x: 10}) == "sat"
    assert b.model()["x"] == 10
    assert b.check() == "sat"


def maximize(backend, variables):
    """Reference optimum: the sum of `variables` maximized over the
    backend's rows by scipy's HiGHS with an objective; (value, model), or
    None when the rows are infeasible."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    n = len(backend._vars)
    lo, hi = np.array(backend._lo, float), np.array(backend._hi, float)
    c = np.zeros(n)
    for v in variables:
        c[backend._names[v.name]] -= 1
    built = backend._constraint()
    res = milp(c=c, integrality=np.ones(n), bounds=Bounds(lo, hi),
               constraints=() if built is None else LinearConstraint(*built))
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    xs = np.rint(res.x).astype(int)
    model = {v.name: int(xs[i]) for i, v in enumerate(backend._vars)}
    value = sum(model[v.name] for v in variables)
    return value, model


def test_differential_against_bruteforce():
    rng = random.Random(20250811)
    for trial in range(160):
        milp = MilpBackend()
        ints = [milp.int_var(f"x{i}", 0, 3) for i in range(3)]
        bools = [milp.bool_var(f"b{i}") for i in range(2)]
        drawn = []
        clauses = [random_clause(rng, ints, bools, drawn) for _ in range(6)]
        for clause in clauses:
            milp.add(*clause)
        got = milp.check()
        expected = brute_force_sat(ints + bools, clauses)
        assert got == ("sat" if expected is not None else "unsat"), \
            f"trial {trial}: clauses {clauses}"
        if expected is not None:
            # the model the backend returns must satisfy the clauses
            m = milp.model()
            env = {v.name: m[v.name] for v in ints + bools}
            assert all(evaluate(c, env) for c in clauses)


@pytest.mark.parametrize("x_at,y_at,z_range", [(3, 0, (2, 3)),
                                               (0, 3, (0, 1))])
def test_a_comparison_and_its_complement_share_one_binary(x_at, y_at,
                                                          z_range):
    # (x <= y or z >= 2) and (x > y or z <= 1): each clause reifies both of
    # its comparisons, and the second clause's are the first's complements
    b = MilpBackend()
    x = b.int_var("x", 0, 3)
    y = b.int_var("y", 0, 3)
    z = b.int_var("z", 0, 3)
    b.add(LE(x, y), GE(z, 2))
    b.add(GT(x, y), LE(z, 1))
    b.add(EQ(x, x_at))
    b.add(EQ(y, y_at))
    assert b.check() == "sat"
    assert sum(1 for name in b.model() if name.startswith("__r")) == 2
    lo, hi = z_range
    assert lo <= b.model()["z"] <= hi


def test_a_negated_binary_is_the_strict_complement():
    # x > y is read as the negation of the binary for x <= y, so x == y
    # with z pinned to 2 leaves the second clause unsatisfiable
    b = MilpBackend()
    x = b.int_var("x", 0, 3)
    y = b.int_var("y", 0, 3)
    z = b.int_var("z", 0, 3)
    b.add(LE(x, y), GE(z, 2))
    b.add(GT(x, y), LE(z, 1))
    b.add(EQ(x, y))
    b.add(EQ(z, 2))
    assert b.check() == "unsat"


@pytest.mark.parametrize("items,answer", [((LE(1, 0),), "unsat"),
                                          ((), "unsat"),
                                          ((LE(0, 1),), "sat")])
def test_a_backend_without_variables_decides_its_clauses(items, answer):
    b = MilpBackend()
    b.add(*items)
    assert b.check() == answer


@pytest.mark.parametrize("op,answer", [(LE, "sat"), (LT, "unsat"),
                                       (EQ, "sat"), (NE, "unsat")],
                         ids=lambda x: getattr(x, "__name__", x))
def test_a_variable_compared_with_itself_is_a_constant(op, answer):
    b = MilpBackend()
    x = b.int_var("x", 0, 3)
    items = op(x, x)
    b.add(*(items if op is NE else (items,)))
    assert b.check() == answer


# each constructor's definition: Python's operator on the operands' values
DEFINITIONS = {
    LE: lambda a, b: a <= b,
    LT: lambda a, b: a < b,
    GE: lambda a, b: a >= b,
    GT: lambda a, b: a > b,
    EQ: lambda a, b: a == b,
    NE: lambda a, b: a != b,
}
VARS = (IntVar("x", -2, 3), IntVar("y", 0, 4), BoolVar("p"))
OPERANDS = st.one_of(st.sampled_from(VARS), st.integers(-5, 5))
ENVS = st.fixed_dictionaries({v.name: st.integers(v.lo, v.hi) for v in VARS})


@pytest.mark.parametrize("op", list(DEFINITIONS), ids=lambda f: f.__name__)
@given(a=OPERANDS, b=OPERANDS, env=ENVS)
def test_comparisons_equal_their_arithmetic_definitions(op, a, b, env):
    # a constructor's items hold exactly when its operator does, for
    # variable and integer operands alike
    items = op(a, b)
    holds = evaluate(items if op is NE else (items,), env)
    value = {v: env[v.name] for v in VARS}
    assert holds == DEFINITIONS[op](value.get(a, a), value.get(b, b))


def _assignment(rng, variables):
    """Random values for `variables`, now and then one outside its
    domain."""
    env = {v.name: rng.randint(v.lo, v.hi) for v in variables}
    if rng.random() < 0.15:
        v = rng.choice(variables)
        env[v.name] = rng.choice((v.lo - 1, v.hi + 1))
    return env


def test_accept_agrees_with_bruteforce():
    # a witness is accepted exactly when it lies in the domains, meets
    # `fixed` and satisfies every clause
    rng = random.Random(20261019)
    verdicts = set()
    for trial in range(300):
        milp = MilpBackend()
        ints = [milp.int_var(f"x{i}", 0, 3) for i in range(3)]
        bools = [milp.bool_var(f"b{i}") for i in range(2)]
        variables = ints + bools
        drawn = []
        clauses = [random_clause(rng, ints, bools, drawn) for _ in range(4)]
        for clause in clauses:
            milp.add(*clause)
        model = brute_force_sat(variables, clauses)
        for env in (_assignment(rng, variables), model):
            if env is None:
                continue
            fixed = {}
            if rng.random() < 0.5:
                v = rng.choice(variables)
                fixed[v] = env[v.name] if rng.random() < 0.5 else \
                    rng.randint(v.lo, v.hi)
            expected = (all(v.lo <= env[v.name] <= v.hi for v in variables)
                        and all(env[v.name] == k for v, k in fixed.items())
                        and all(evaluate(c, env) for c in clauses))
            witness = {v: env[v.name] for v in variables}
            assert milp.accept(witness, fixed) == expected, \
                f"trial {trial}: clauses {clauses}, env {env}, fixed {fixed}"
            if expected:
                assert milp.model() == {**milp.model(), **env}
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_accept_needs_every_declared_variable():
    b = MilpBackend()
    x = b.int_var("x", 0, 3)
    b.int_var("y", 0, 3)
    assert not b.accept({x: 1})


def _window_witness(tied):
    """A pinned one-stage window on 3x3 that fires gates (0, 1) and (2, 3)
    by 0 and 2 moving right, its qubits `tied` to lines: its encoded
    backend, vars, the check's bounds and an accepted witness."""
    from atomc.arrays import ArraySpec, full_region
    from atomc.compiler import _Moves
    from atomc.encoding import (Boundary, WindowSpec, encode_window,
                                window_bounds)
    xy = {0: (0, 0), 1: (2, 0), 2: (0, 2), 3: (2, 2)}
    spec = WindowSpec([0, 1, 2, 3], {0: (0, 1), 1: (2, 3)}, 2,
                      full_region(ArraySpec(3)),
                      Boundary(xy=xy, prev_traps=tied))
    b = MilpBackend()
    v = encode_window(b, spec)
    fixed = {**window_bounds(v, spec), v.f[0]: 1, v.f[1]: 1}
    witness = _Moves(spec).decide((0, 1), v)
    assert isinstance(witness, dict) and b.accept(witness, fixed)
    return b, v, fixed, witness


def test_accept_rejects_a_witness_with_two_lines_swapped():
    b, v, fixed, witness = _window_witness({})
    # 0 and 2 are up at stage 0 in rows 0 and 2; swapped, the row order
    # runs against their y order
    assert witness[v.a[0, 0]] == witness[v.a[2, 0]] == 1
    assert (witness[v.r[0, 0]], witness[v.r[2, 0]]) == (0, 2)
    bad = dict(witness)
    for rows in (v.pr, *({q: v.r[q, t] for q in (0, 2)} for t in (0, 1))):
        bad[rows[0]], bad[rows[2]] = witness[rows[2]], witness[rows[0]]
    assert not b.accept(bad, fixed)


def test_accept_rejects_a_witness_that_moves_a_fixed_variable():
    b, v, fixed, witness = _window_witness({0: (0, 0)})
    # 0 is tied to column 0: any other column breaks `fixed` alone
    bad = {**witness, v.pc[0]: 1}
    for t in (0, 1):
        bad[v.c[0, t]] = 1
    assert not b.accept(bad, fixed)
    assert b.accept(bad, {k: val for k, val in fixed.items()
                          if k is not v.pc[0]})
