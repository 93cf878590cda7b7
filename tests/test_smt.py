import itertools
import random

import pytest

from atomc.smt import (AND, EQ, GE, GT, IMP, LE, LT, NE, NOT, OR, IntVar, Lit,
                       MilpBackend, lin, total)


def evaluate(f, env):
    """Brute-force truth of a formula under an assignment (test oracle)."""
    from atomc import smt
    if isinstance(f, smt.Lit):
        val = bool(env[f.var.name])
        return (not val) if f.neg else val
    if isinstance(f, smt.BoolVar):
        return bool(env[f.name])
    if isinstance(f, smt.Cmp):
        s = f.expr.const + sum(k * env[v.name] for k, v in f.expr.terms)
        return s <= f.k if f.op == "<=" else s == f.k
    if isinstance(f, smt.And):
        return all(evaluate(i, env) for i in f.items)
    if isinstance(f, smt.Or):
        return any(evaluate(i, env) for i in f.items)
    if isinstance(f, smt.Not):
        return not evaluate(f.item, env)
    if isinstance(f, smt.Implies):
        return (not evaluate(f.if_, env)) or evaluate(f.then, env)
    raise TypeError(f)


def brute_force_sat(variables, formulas):
    domains = []
    for v in variables:
        if isinstance(v, IntVar):
            domains.append(range(v.lo, v.hi + 1))
        else:
            domains.append((0, 1))
    for values in itertools.product(*domains):
        env = {v.name: val for v, val in zip(variables, values)}
        if all(evaluate(f, env) for f in formulas):
            return env
    return None


def random_formula(rng, ints, bools, depth=2):
    if depth == 0 or rng.random() < 0.4:
        kind = rng.random()
        if kind < 0.3 and bools:
            b = rng.choice(bools)
            return Lit(b, rng.random() < 0.5)
        op = rng.choice([LE, LT, EQ, NE, GE, GT])
        u, v = rng.sample(ints, 2)
        if rng.random() < 0.3:
            return op(u, rng.randrange(-1, 4))
        return op(u, v)
    parts = [random_formula(rng, ints, bools, depth - 1)
             for _ in range(rng.randrange(2, 4))]
    node = rng.random()
    if node < 0.35:
        return AND(*parts)
    if node < 0.7:
        return OR(*parts)
    if node < 0.85:
        return IMP(parts[0], parts[1])
    return NOT(parts[0])


@pytest.fixture(params=["milp"], scope="module")
def backend(request):
    return MilpBackend()


def fresh(backend):
    backend.reset()
    return backend


def test_basic_sat_unsat(backend):
    b = fresh(backend)
    x = b.int_var("x", 0, 3)
    y = b.int_var("y", 0, 3)
    b.add(EQ(lin(x) + lin(y), 5))
    b.add(LT(x, y))
    assert b.check() == "sat"
    m = b.model()
    assert m["x"] + m["y"] == 5 and m["x"] < m["y"]
    b.add(GT(x, y))
    assert b.check() == "unsat"


def test_bool_logic(backend):
    b = fresh(backend)
    p = b.bool_var("p")
    q = b.bool_var("q")
    b.add(OR(Lit(p), Lit(q)))
    b.add(NOT(AND(Lit(p), Lit(q))))
    b.add(Lit(p, neg=True))
    assert b.check() == "sat"
    assert b.model() == {"p": 0, "q": 1}


def test_implication_with_comparison(backend):
    b = fresh(backend)
    p = b.bool_var("p")
    x = b.int_var("x", 0, 9)
    b.add(IMP(Lit(p), EQ(x, 7)))
    b.add(Lit(p))
    assert b.check() == "sat"
    assert b.model()["x"] == 7


def test_cardinality_over_bools(backend):
    b = fresh(backend)
    fs = [b.bool_var(f"f{i}") for i in range(5)]
    b.add(GE(total(fs), 3))
    b.add(Lit(fs[0], neg=True))
    b.add(Lit(fs[1], neg=True))
    assert b.check() == "sat"
    m = b.model()
    assert m["f2"] == m["f3"] == m["f4"] == 1
    b.add(Lit(fs[2], neg=True))
    assert b.check() == "unsat"


def test_negative_values_roundtrip(backend):
    b = fresh(backend)
    x = b.int_var("x", -5, 5)
    b.add(LE(x, -3))
    assert b.check() == "sat"
    assert b.model()["x"] <= -3


def test_maximize_on_milp():
    b = MilpBackend()
    fs = [b.bool_var(f"f{i}") for i in range(4)]
    x = b.int_var("x", 0, 10)
    b.add(IMP(Lit(fs[0]), GE(x, 9)))
    b.add(IMP(Lit(fs[1]), LE(x, 2)))  # f0 and f1 conflict
    assert b.check(maximize=total(fs)) == "sat"
    m = b.model()
    assert sum(m[f"f{i}"] for i in range(4)) == 3


def test_differential_against_bruteforce():
    rng = random.Random(20250811)
    milp = MilpBackend()
    for trial in range(160):
        milp.reset()
        ints = [milp.int_var(f"x{i}", 0, 3) for i in range(3)]
        bools = [milp.bool_var(f"b{i}") for i in range(2)]
        formulas = [random_formula(rng, ints, bools) for _ in range(3)]
        for f in formulas:
            milp.add(f)
        got = milp.check()
        expected = brute_force_sat(ints + bools, formulas)
        assert got == ("sat" if expected is not None else "unsat"), \
            f"trial {trial}: formulas {formulas}"
        if expected is not None:
            # the model the backend returns must satisfy the formulas
            m = milp.model()
            env = {v.name: m[v.name] for v in ints + bools}
            assert all(evaluate(f, env) for f in formulas)


def test_linexpr_bounds():
    x = IntVar("x", 1, 4)
    y = IntVar("y", -2, 2)
    e = lin(x) - lin(y) + 3
    assert e.bounds() == (1 - 2 + 3, 4 + 2 + 3)


def test_reset_discards_variables_and_constraints():
    b = MilpBackend()
    x = b.int_var("x", 0, 5)
    b.add(LE(x, 1))
    b.reset()
    x = b.int_var("x", 0, 5)
    b.add(GE(x, 4))
    assert b.check() == "sat"
    m = b.model()
    assert set(m) == {"x"} and m["x"] >= 4
