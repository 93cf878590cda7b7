import itertools

import pytest

from atomc.arrays import ArraySpec, full_region
from atomc.circuits import Circuit, generate_rand3reg
from atomc.compiler import compile_circuit
from atomc.errors import InfeasibleError
from atomc.orchestrator import pac_compile
from atomc.schedule import SLM, QubitState
from atomc.verifier import verify, verify_phases

K4 = Circuit(4, tuple(itertools.combinations(range(4), 2)), name="k4")
# two triangles joined by one cross gate
TWO_TRIANGLES = Circuit(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                            (2, 3)), name="two-triangles")


def test_budget_history_counts_new_stages():
    res = compile_circuit(K4, full_region(ArraySpec(2)))
    assert res.stage_budget_history
    assert sum(res.stage_budget_history) == len(res.schedule.stages)


def test_budget_history_skips_given_stage0():
    init = {q: QubitState(x=q // 2, y=q % 2, a=SLM) for q in range(4)}
    res = compile_circuit(K4, full_region(ArraySpec(2)), init=init)
    assert res.schedule.stages[0].states == init
    assert sum(res.stage_budget_history) == len(res.schedule.stages) - 1


def test_pac_admits_communities_that_fit_their_quadrants():
    # 6 qubits exceed one 2x2 quadrant, but each community of 3 fits its own
    a = ArraySpec(4)
    merged, phases = pac_compile(TWO_TRIANGLES, a)
    assert max(len(phases.partition.q1), len(phases.partition.q2)) == 3
    assert verify(merged, TWO_TRIANGLES, a).ok
    assert verify_phases(phases, TWO_TRIANGLES, a).ok
    assert merged.fired_multiset() == list(range(TWO_TRIANGLES.num_gates))


def test_pac_rejects_a_community_larger_than_its_quadrant():
    with pytest.raises(InfeasibleError, match="community 1 has 5 qubits"):
        pac_compile(generate_rand3reg(10, 1), ArraySpec(4))


def _compiles_and_verifies(c, n):
    a = ArraySpec(n)
    res = compile_circuit(c, full_region(a), self_check=False)
    report = verify(res.schedule, c, a)
    assert report.ok, report.violations[:5]
    assert res.schedule.fired_multiset() == list(range(c.num_gates))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rand3reg6_seed_sweep_verifies(seed):
    _compiles_and_verifies(generate_rand3reg(6, seed), 3)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(4, 13))
def test_rand3reg6_seed_sweep_verifies_slow(seed):
    _compiles_and_verifies(generate_rand3reg(6, seed), 3)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2])
def test_rand3reg8_seed_sweep_verifies(seed):
    _compiles_and_verifies(generate_rand3reg(8, seed), 4)
