import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomc import division
from atomc.circuits import Circuit, generate_rand3reg
from atomc.division import (DivisionOptions, RefineStep, classify,
                            initial_partition, loss, refine, refine_trace,
                            split_circuit, swap_candidates)

K4 = Circuit(4, tuple(itertools.combinations(range(4), 2)), name="k4")
SIX_CYCLE = Circuit(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)),
                    name="c6")


def brute_classify(c, q1):
    """Independent reckoning of the edge split and active sets."""
    e1, e2, e3, qa1, qa2 = set(), set(), set(), set(), set()
    for i, (u, v) in enumerate(c.gates):
        inside = (u in q1) + (v in q1)
        if inside == 2:
            e1.add(i)
        elif inside == 0:
            e2.add(i)
        else:
            e3.add(i)
            qa1.add(u if u in q1 else v)
            qa2.add(u if u not in q1 else v)
    return e1, e2, e3, qa1, qa2


def brute_loss(c, q1, k):
    _, _, e3, qa1, qa2 = brute_classify(c, q1)
    return k * (len(qa1) + len(qa2)) + (1 - k) * len(e3)


def test_k4_any_balanced_split_cuts_four():
    # oracle: enumerate all 3 balanced splits of K4
    for q1 in itertools.combinations(range(4), 2):
        e1, e2, e3, qa1, qa2 = brute_classify(K4, set(q1))
        assert len(e3) == 4 and len(e1) == 1 and len(e2) == 1
        assert qa1 == set(q1) and qa2 == set(range(4)) - set(q1)


def test_initial_partition_k4():
    p = initial_partition(K4, seed=11)
    assert len(p.q1) == 2 and len(p.q2) == 2
    assert len(p.e3) == 4
    assert p.qa1 == p.q1 and p.qa2 == p.q2
    assert not p.qr1 and not p.qr2


def test_initial_partition_two_qubits():
    c = Circuit(2, ((0, 1),))
    p = initial_partition(c, seed=0)
    assert len(p.q1) == 1
    assert p.e3 == frozenset({0})
    assert p.qa1 | p.qa2 == {0, 1}


def test_initial_partition_deterministic():
    c = generate_rand3reg(20, 5)
    assert initial_partition(c, seed=9) == initial_partition(c, seed=9)


def test_disjoint_edges_all_resolved():
    c = Circuit(4, ((0, 1), (2, 3)))
    # find a seed placing {0,1} on one side
    for seed in range(100):
        p = initial_partition(c, seed)
        if p.q1 in ({0, 1}, {2, 3}):
            break
    else:
        pytest.fail("no seed produced the {0,1}/{2,3} split")
    assert not p.e3
    assert p.qr1 == p.q1 and p.qr2 == p.q2
    assert len(p.e1) == 1 and len(p.e2) == 1


def test_loss_eq1_arithmetic():
    p = initial_partition(K4, seed=0)
    assert loss(p, 0.5) == pytest.approx(4.0)  # 0.5*(2+2) + 0.5*4
    assert loss(p, 1.0) == pytest.approx(len(p.qa1) + len(p.qa2))
    assert loss(p, 0.0) == pytest.approx(len(p.e3))


def test_loss_zero_when_no_cross_edges():
    c = Circuit(4, ((0, 1), (2, 3)))
    for seed in range(100):
        p = initial_partition(c, seed)
        if not p.e3:
            break
    for k in (0.0, 0.5, 1.0):
        assert loss(p, k) == 0.0


def test_swap_candidates_k4():
    p = initial_partition(K4, seed=3)
    qs1, qs2 = swap_candidates(K4, p)
    # every qubit: external degree 2 > internal degree 1
    assert qs1 == p.qa1 and qs2 == p.qa2


def test_swap_candidates_empty_when_no_cross():
    c = Circuit(4, ((0, 1), (2, 3)))
    for seed in range(100):
        p = initial_partition(c, seed)
        if not p.e3:
            break
    qs1, qs2 = swap_candidates(c, p)
    assert not qs1 and not qs2


def test_swap_candidates_six_cycle_contiguous():
    p = classify(SIX_CYCLE, frozenset({0, 1, 2}))
    qs1, qs2 = swap_candidates(SIX_CYCLE, p)
    # qubits 0 and 2 have external 1 = internal 1; qubit 1 is not active
    assert qs1 == frozenset({0, 2})
    assert qs2 == frozenset({3, 5})


def test_refine_noop_without_cross_edges():
    c = Circuit(4, ((0, 1), (2, 3)))
    for seed in range(100):
        p = initial_partition(c, seed)
        if not p.e3:
            break
    assert refine(c, p, DivisionOptions()) == p


def test_refine_six_cycle_reaches_optimum():
    # oracle: enumerate all C(6,3) = 20 balanced splits; min loss at k=0.5 is 3
    best = min(brute_loss(SIX_CYCLE, set(q1), 0.5)
               for q1 in itertools.combinations(range(6), 3))
    assert best == pytest.approx(3.0)
    p = classify(SIX_CYCLE, frozenset({0, 2, 4}))
    assert loss(p, 0.5) == pytest.approx(6.0)  # every edge cut
    refined = refine(SIX_CYCLE, p, DivisionOptions())
    assert loss(refined, 0.5) == pytest.approx(3.0)


def test_refine_trace_oracle():
    # every committed swap must be the exhaustive best over Qs1 x Qs2
    rng = random.Random(4)
    checked_steps = 0
    for trial in range(40):
        n = rng.randrange(4, 11)
        gates = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.45:
                    gates.append((u, v))
        if not gates:
            continue
        c = Circuit(n, tuple(gates))
        p0 = initial_partition(c, seed=trial)
        opts = DivisionOptions(seed=trial)
        _, steps = refine_trace(c, p0, opts)
        q1 = set(p0.q1)
        current = brute_loss(c, q1, opts.k)
        for step in steps:
            candidates = {}
            for u in step.qs1:
                for v in step.qs2:
                    trial_q1 = (q1 - {u}) | {v}
                    candidates[(u, v)] = brute_loss(c, trial_q1, opts.k)
            best_loss = min(candidates.values())
            assert best_loss < current  # strictly decreasing
            assert step.loss_after == pytest.approx(best_loss)
            assert candidates[step.swapped] == pytest.approx(best_loss)
            q1 = (q1 - {step.swapped[0]}) | {step.swapped[1]}
            current = best_loss
            checked_steps += 1
    assert checked_steps > 0


def test_refine_preserves_balance_and_classification():
    for trial in range(10):
        c = generate_rand3reg(12, trial)
        p0 = initial_partition(c, seed=trial)
        p = refine(c, p0, DivisionOptions(seed=trial))
        assert len(p.q1) == len(p0.q1) and len(p.q2) == len(p0.q2)
        e1, e2, e3, qa1, qa2 = brute_classify(c, p.q1)
        assert (p.e1, p.e2, p.e3) == (frozenset(e1), frozenset(e2), frozenset(e3))
        assert (p.qa1, p.qa2) == (frozenset(qa1), frozenset(qa2))
        assert p.qr1 == p.q1 - p.qa1 and p.qr2 == p.q2 - p.qa2


def test_swap_candidates_count_duplicate_gates():
    # qubit 0: two cross copies of (0, 2) against one internal gate
    c = Circuit(4, ((0, 2), (0, 2), (0, 1)))
    qs1, qs2 = swap_candidates(c, classify(c, frozenset({0, 1})))
    assert qs1 == frozenset({0}) and qs2 == frozenset({2})
    # qubit 0: one cross gate against two internal copies of (0, 1), so it
    # is out; per distinct partner it would tie at 1 and be in
    c = Circuit(4, ((0, 1), (0, 1), (0, 2), (1, 2), (1, 3)))
    qs1, qs2 = swap_candidates(c, classify(c, frozenset({0, 1})))
    assert qs1 == frozenset({1}) and qs2 == frozenset({2, 3})


def _incidence(c, q, gate_ids):
    return sum(1 for i in gate_ids if q in c.gates[i])


def reference_swap_candidates(c, p):
    """The candidate rule, counted from the gate sets."""
    qs1 = frozenset(
        q for q in p.qa1
        if _incidence(c, q, p.e3) >= _incidence(c, q, p.e1))
    qs2 = frozenset(
        q for q in p.qa2
        if _incidence(c, q, p.e3) >= _incidence(c, q, p.e2))
    if qs1 and not qs2 and p.qa2:
        qs2 = p.qa2
    elif qs2 and not qs1 and p.qa1:
        qs1 = p.qa1
    return qs1, qs2


def reference_loss(p, k):
    return k * (len(p.qa1) + len(p.qa2)) + (1.0 - k) * len(p.e3)


def reference_refine_trace(c, p, opts):
    """refine_trace by exhaustive re-classification of every trial swap."""
    budget = 10 * c.num_qubits
    steps = []
    current = reference_loss(p, opts.k)
    while len(steps) < budget:
        qs1, qs2 = reference_swap_candidates(c, p)
        if not qs1 and not qs2:
            break
        best = None
        for u in sorted(qs1):
            for v in sorted(qs2):
                q1_new = (p.q1 - {u}) | {v}
                trial = reference_loss(classify(c, q1_new), opts.k)
                if trial < current and (best is None or (trial, u, v) < best):
                    best = (trial, u, v)
        if best is None:
            break
        current, u, v = best
        p = classify(c, (p.q1 - {u}) | {v})
        steps.append(RefineStep(qs1, qs2, (u, v), current))
    return p, steps


def random_multigraph(rng):
    """Odd and even qubit counts; gates drawn with replacement, so repeats."""
    n = rng.randrange(2, 14)
    gates = []
    for _ in range(rng.randrange(1, 3 * n)):
        u, v = rng.sample(range(n), 2)
        gates.append((u, v))
        if rng.random() < 0.2:
            gates.append((v, u) if rng.random() < 0.5 else (u, v))
    return Circuit(n, tuple(gates))


def test_refine_trace_matches_exhaustive_reclassification():
    rng = random.Random(7)
    committed = 0
    for trial in range(200):
        c = random_multigraph(rng)
        p0 = initial_partition(c, seed=trial)
        assert swap_candidates(c, p0) == reference_swap_candidates(c, p0)
        for k in (0.0, 0.25, 0.5, 1.0):
            opts = DivisionOptions(k=k)
            got = refine_trace(c, p0, opts)
            assert got == reference_refine_trace(c, p0, opts)
            committed += len(got[1])
    assert committed > 500


def sparse_multigraph(rng):
    """30-80 qubits and about one gate per qubit, gates drawn with
    replacement: most candidate pairs are more than two hops apart, so
    their swaps are priced as two solo moves."""
    n = rng.randrange(30, 81)
    gates = []
    for _ in range(rng.randrange(n // 2, 3 * n // 2)):
        u, v = rng.sample(range(n), 2)
        gates.append((u, v))
        if rng.random() < 0.2:
            gates.append((v, u) if rng.random() < 0.5 else (u, v))
    return Circuit(n, tuple(gates))


@pytest.mark.parametrize("seed, trials", [
    (11, 10),
    *(pytest.param(seed, 20, marks=pytest.mark.slow) for seed in range(12, 16))])
def test_refine_trace_matches_exhaustive_reclassification_sparse(seed, trials):
    rng = random.Random(seed)
    committed = 0
    for trial in range(trials):
        c = sparse_multigraph(rng)
        p0 = initial_partition(c, seed=trial)
        for k in (0.0, 0.25, 0.5, 1.0, 1 / 3):
            opts = DivisionOptions(k=k)
            got = refine_trace(c, p0, opts)
            assert got == reference_refine_trace(c, p0, opts)
            committed += len(got[1])
    assert committed > 30 * trials


def test_refine_prices_few_pairs_exactly(monkeypatch):
    # a swap is priced exactly only when its qubits are within two hops;
    # on a 3-regular graph that is a few percent of Qs1 x Qs2
    pairs = 0
    trade = division._Counts.trade

    def counting(self, *movers):
        nonlocal pairs
        pairs += len(movers) == 2
        return trade(self, *movers)

    monkeypatch.setattr(division._Counts, "trade", counting)
    c = generate_rand3reg(300, 1)
    _, steps = refine_trace(c, initial_partition(c, 0), DivisionOptions())
    scanned = sum(len(step.qs1) * len(step.qs2) for step in steps)
    priced = pairs - len(steps)  # each committed swap calls trade once
    assert steps and priced < 0.1 * scanned


@pytest.mark.slow
@pytest.mark.parametrize("n", range(40, 121, 20))
def test_refine_trace_matches_exhaustive_reclassification_rand3reg(n):
    for seed in (1, 2, 3):
        c = generate_rand3reg(n, seed)
        p0 = initial_partition(c, seed)
        opts = DivisionOptions()
        assert refine_trace(c, p0, opts) == reference_refine_trace(c, p0, opts)


# refine(rand3reg(n, 1)) from initial_partition(c, 0), default options, as
# computed by exhaustive re-classification: (n, loss, swaps, q1)
PINNED = (
    (160, 52.5, 24, frozenset((
        2, 7, 8, 10, 14, 15, 18, 19, 23, 24, 26, 27, 28, 37, 38, 39, 43,
        46, 52, 54, 57, 59, 61, 62, 63, 64, 65, 68, 70, 71, 72, 74, 75,
        79, 80, 84, 85, 86, 87, 88, 92, 96, 97, 98, 100, 101, 103, 105,
        107, 111, 113, 116, 117, 118, 120, 122, 123, 124, 125, 129, 130,
        131, 132, 133, 134, 135, 136, 138, 139, 140, 143, 144, 145, 146,
        149, 151, 154, 156, 157, 158))),
    (300, 88.5, 50, frozenset((
        3, 5, 9, 11, 12, 13, 14, 15, 18, 20, 23, 24, 27, 28, 32, 33, 34,
        35, 36, 37, 38, 39, 46, 47, 48, 51, 52, 56, 57, 60, 61, 64, 70,
        73, 75, 77, 78, 80, 85, 89, 91, 94, 95, 96, 100, 102, 105, 107,
        113, 114, 115, 124, 125, 129, 130, 132, 133, 134, 135, 139, 140,
        143, 144, 145, 146, 148, 150, 152, 153, 154, 158, 160, 161, 164,
        165, 166, 167, 168, 173, 177, 178, 179, 180, 181, 182, 183, 187,
        188, 189, 190, 192, 193, 194, 196, 199, 201, 203, 204, 205, 207,
        208, 210, 213, 214, 221, 222, 224, 227, 228, 229, 231, 233, 234,
        235, 236, 238, 239, 241, 245, 246, 248, 249, 252, 253, 254, 255,
        258, 260, 261, 262, 264, 265, 266, 269, 272, 273, 274, 278, 281,
        282, 283, 284, 287, 289, 291, 292, 294, 295, 297, 298))),
)
# the same at 1000 qubits, computed by scanning every pair of Qs1 x Qs2
# with per-qubit counts (re-classifying every trial is too slow here)
PINNED_1000 = (1000, 293.0, 180, frozenset((
    0, 1, 3, 4, 9, 14, 16, 17, 19, 23, 25, 26, 27, 32, 36, 37, 38, 40, 42,
    43, 44, 45, 46, 47, 48, 50, 51, 52, 55, 56, 57, 60, 61, 62, 64, 71,
    72, 80, 85, 86, 88, 90, 91, 92, 94, 96, 97, 102, 106, 108, 109, 111,
    112, 114, 116, 117, 119, 123, 127, 128, 129, 132, 135, 136, 138, 141,
    142, 143, 146, 148, 150, 152, 153, 154, 155, 156, 157, 158, 159, 160,
    161, 163, 164, 167, 168, 170, 172, 174, 177, 179, 182, 183, 186, 188,
    189, 190, 191, 192, 193, 195, 196, 197, 199, 200, 201, 202, 209, 210,
    212, 218, 219, 220, 221, 222, 225, 227, 228, 231, 233, 234, 236, 240,
    241, 243, 244, 246, 247, 248, 249, 250, 251, 254, 255, 259, 260, 262,
    264, 266, 271, 272, 276, 277, 278, 280, 281, 282, 283, 285, 286, 287,
    288, 289, 290, 293, 296, 297, 298, 300, 303, 304, 305, 306, 308, 309,
    310, 311, 317, 318, 319, 321, 323, 324, 325, 326, 327, 328, 332, 336,
    338, 339, 340, 342, 343, 345, 346, 348, 356, 357, 359, 360, 363, 365,
    366, 367, 369, 373, 376, 377, 379, 380, 381, 382, 383, 385, 387, 389,
    394, 398, 400, 401, 403, 408, 409, 410, 411, 412, 413, 414, 416, 418,
    419, 424, 427, 428, 429, 431, 435, 437, 442, 446, 449, 450, 452, 453,
    454, 455, 458, 459, 461, 462, 463, 465, 468, 469, 471, 475, 480, 481,
    482, 483, 484, 486, 488, 489, 490, 491, 492, 498, 501, 504, 505, 507,
    508, 511, 514, 515, 516, 517, 520, 523, 533, 534, 535, 540, 541, 543,
    544, 545, 546, 547, 548, 550, 553, 557, 559, 562, 563, 564, 574, 578,
    579, 582, 585, 586, 587, 593, 594, 595, 601, 602, 603, 604, 606, 608,
    609, 610, 611, 614, 616, 617, 618, 619, 623, 624, 625, 626, 627, 628,
    629, 630, 633, 635, 636, 637, 639, 640, 645, 650, 651, 655, 656, 659,
    662, 663, 664, 666, 668, 671, 672, 673, 675, 676, 678, 681, 682, 684,
    685, 689, 690, 694, 695, 696, 697, 698, 699, 701, 702, 707, 709, 710,
    711, 717, 718, 721, 723, 725, 728, 730, 731, 734, 735, 736, 737, 738,
    742, 743, 744, 746, 747, 748, 749, 751, 753, 754, 757, 761, 764, 766,
    768, 770, 773, 774, 775, 776, 777, 778, 779, 780, 783, 785, 788, 794,
    797, 799, 802, 810, 813, 814, 816, 818, 819, 820, 821, 822, 824, 825,
    828, 829, 830, 834, 836, 838, 839, 841, 843, 847, 848, 850, 851, 852,
    854, 856, 857, 858, 860, 864, 866, 868, 869, 871, 872, 874, 876, 878,
    879, 880, 883, 884, 887, 888, 889, 890, 891, 892, 893, 894, 895, 901,
    902, 903, 906, 907, 908, 910, 911, 917, 919, 924, 926, 929, 934, 935,
    936, 937, 939, 949, 951, 955, 956, 957, 959, 960, 961, 962, 965, 967,
    969, 971, 976, 981, 983, 984, 986, 988, 992, 993, 994, 995, 997, 998)))


@pytest.mark.parametrize(
    "n, expected_loss, swaps, q1",
    [*PINNED, pytest.param(*PINNED_1000, marks=pytest.mark.slow)],
    ids=[f"rand3reg_{pin[0]}_1" for pin in (*PINNED, PINNED_1000)])
def test_refine_pinned_at_scale(n, expected_loss, swaps, q1):
    c = generate_rand3reg(n, 1)
    p, steps = refine_trace(c, initial_partition(c, 0), DivisionOptions())
    assert loss(p, 0.5) == expected_loss
    assert len(steps) == swaps
    assert p == classify(c, q1)


@given(st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_refine_loss_strictly_decreasing(seed):
    c = generate_rand3reg(10, seed)
    p = initial_partition(c, seed=seed)
    opts = DivisionOptions(seed=seed)
    _, steps = refine_trace(c, p, opts)
    losses = [loss(p, opts.k)] + [s.loss_after for s in steps]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_split_circuit_two_disjoint_edges():
    c = Circuit(4, ((0, 1), (2, 3)))
    p = classify(c, frozenset({0, 1}))
    qc1, qc2, qc3 = split_circuit(c, p)
    assert qc1.num_gates == 1 and qc2.num_gates == 1
    assert qc3.num_qubits == 0 and qc3.num_gates == 0


def test_split_circuit_k4():
    p = classify(K4, frozenset({0, 1}))
    qc1, qc2, qc3 = split_circuit(K4, p)
    assert qc1.num_gates == 1 and qc2.num_gates == 1
    assert qc3.num_gates == 4 and qc3.num_qubits == 4


def test_split_circuit_conserves_gates():
    for trial in range(8):
        c = generate_rand3reg(14, trial)
        p = refine(c, initial_partition(c, trial), DivisionOptions())
        qc1, qc2, qc3 = split_circuit(c, p)
        assert qc1.num_gates + qc2.num_gates + qc3.num_gates == c.num_gates


def test_split_circuit_relabels_densely():
    c = Circuit(5, ((0, 4), (1, 2), (1, 3)))
    p = classify(c, frozenset({0, 4}))
    qc1, qc2, qc3 = split_circuit(c, p)
    assert qc1.num_qubits == 2 and qc1.gates == ((0, 1),)
    assert qc2.num_qubits == 3
    # local ids follow sorted original ids: {1,2,3} -> 1->0, 2->1, 3->2
    assert set(qc2.gates) == {(0, 1), (0, 2)}
