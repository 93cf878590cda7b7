"""Balanced two-community circuit division by pairwise-swap refinement.

The qubits are split into two equal-size communities; gates fall into the two
intra-community sets e1/e2 and the cross set e3.  Qubits touching a cross gate
are "active" (they will need the shared phase), the rest are "resolved".  The
refinement repeatedly exchanges one qubit per side to minimize

    L = k * (|active_1| + |active_2|) + (1 - k) * |e3|

committing only strictly improving swaps, so the loss sequence is strictly
decreasing and the refinement terminates.

The refinement keeps per-qubit cross-gate counts, so pricing a trial swap
(u, v) reads only the gates at u and v: O(deg u + deg v), not the O(|gates| +
|qubits|) of re-classifying the whole split.  Each step then costs
O(|Qs1| * |Qs2| * degree + |qubits|).  The counts are exact integers and the
loss is the same float expression over them, so every step, tie and result
is identical to exhaustive re-classification of every trial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .circuits import Circuit


@dataclass(frozen=True)
class Partition:
    """Two qubit communities plus derived gate sets and classifications.

    e1/e2/e3 are sets of gate indices into the owning circuit's gate list;
    qa*/qr* split each community into active (touching e3) and resolved.
    """

    q1: frozenset[int]
    q2: frozenset[int]
    e1: frozenset[int]
    e2: frozenset[int]
    e3: frozenset[int]
    qa1: frozenset[int]
    qa2: frozenset[int]
    qr1: frozenset[int]
    qr2: frozenset[int]


@dataclass(frozen=True)
class DivisionOptions:
    """k weighs active-qubit count against cross-gate count in the loss."""

    k: float = 0.5
    max_iter: int | None = None  # None -> 10 * num_qubits
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.k <= 1.0:
            raise ValueError(f"k must be in [0, 1], got {self.k}")
        if self.max_iter is not None and self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")

    def swap_budget(self, c: Circuit) -> int:
        return 10 * c.num_qubits if self.max_iter is None else self.max_iter


def classify(c: Circuit, q1: frozenset[int]) -> Partition:
    """Build the full Partition implied by community q1 (q2 = complement)."""
    q2 = frozenset(range(c.num_qubits)) - q1
    e1, e2, e3 = set(), set(), set()
    qa1, qa2 = set(), set()
    for i, (u, v) in enumerate(c.gates):
        u1, v1 = u in q1, v in q1
        if u1 and v1:
            e1.add(i)
        elif not u1 and not v1:
            e2.add(i)
        else:
            e3.add(i)
            qa1.add(u if u1 else v)
            qa2.add(v if u1 else u)
    return Partition(
        q1=q1, q2=q2,
        e1=frozenset(e1), e2=frozenset(e2), e3=frozenset(e3),
        qa1=frozenset(qa1), qa2=frozenset(qa2),
        qr1=q1 - qa1, qr2=q2 - qa2)


def initial_partition(c: Circuit, seed: int) -> Partition:
    """Uniformly random balanced split: |q1| = ceil(|Q|/2), seeded."""
    if c.num_qubits < 2:
        raise ValueError("need at least 2 qubits to divide")
    rng = random.Random(seed)
    half = (c.num_qubits + 1) // 2
    q1 = frozenset(rng.sample(range(c.num_qubits), half))
    return classify(c, q1)


def loss(p: Partition, k: float) -> float:
    """L = k * (|qa1| + |qa2|) + (1 - k) * |e3|."""
    return _loss(len(p.qa1) + len(p.qa2), len(p.e3), k)


def _loss(active: int, cross_gates: int, k: float) -> float:
    return k * active + (1.0 - k) * cross_gates


class _Counts:
    """Per-qubit bookkeeping of a balanced split, for pricing swaps locally.

    adj[q] lists q's gate partners (a duplicate gate repeats its partner),
    side[q] is True for q1, cross[q] counts q's cross gates; e3 and active
    are |e3| and |qa1| + |qa2|.  A qubit's internal incidence is
    len(adj[q]) - cross[q].
    """

    def __init__(self, c: Circuit, q1: frozenset[int]):
        self.adj: list[list[int]] = [[] for _ in range(c.num_qubits)]
        for u, v in c.gates:
            self.adj[u].append(v)
            self.adj[v].append(u)
        self.side = [q in q1 for q in range(c.num_qubits)]
        self.cross = [sum(self.side[w] != self.side[q] for w in partners)
                      for q, partners in enumerate(self.adj)]
        self.e3 = sum(self.cross) // 2
        self.active = sum(1 for n in self.cross if n)

    def q1(self) -> frozenset[int]:
        return frozenset(q for q, in_q1 in enumerate(self.side) if in_q1)

    def candidates(self) -> tuple[frozenset[int], frozenset[int]]:
        """The swap-candidate rule; see swap_candidates."""
        active: dict[bool, list[int]] = {True: [], False: []}
        chosen: dict[bool, list[int]] = {True: [], False: []}
        for q, n in enumerate(self.cross):
            if n:
                active[self.side[q]].append(q)
                if n >= len(self.adj[q]) - n:
                    chosen[self.side[q]].append(q)
        qs1, qs2 = frozenset(chosen[True]), frozenset(chosen[False])
        if qs1 and not qs2 and active[False]:
            qs2 = frozenset(active[False])
        elif qs2 and not qs1 and active[True]:
            qs1 = frozenset(active[True])
        return qs1, qs2

    def trade(self, u: int, v: int) -> tuple[dict[int, int], int, int]:
        """If u and v trade sides: the change to each qubit's cross count
        that changes, and the new (active, e3).

        Only gates at u or v change class, and the u-v gates stay cross, so
        this reads adj[u] and adj[v] alone.
        """
        side, cross, moved = self.side, self.cross, {}
        for a, b in ((u, v), (v, u)):
            after = 0
            for w in self.adj[a]:
                if w == b:
                    after += 1
                elif side[w] == side[a]:
                    after += 1
                    moved[w] = moved.get(w, 0) + 1
                else:
                    moved[w] = moved.get(w, 0) - 1
            moved[a] = after - cross[a]
        da = sum((cross[q] + d > 0) - (cross[q] > 0) for q, d in moved.items())
        return moved, self.active + da, self.e3 + moved[u] + moved[v]

    def swap(self, u: int, v: int) -> None:
        moved, self.active, self.e3 = self.trade(u, v)
        for q, d in moved.items():
            self.cross[q] += d
        self.side[u], self.side[v] = self.side[v], self.side[u]


def swap_candidates(c: Circuit, p: Partition) -> tuple[frozenset[int], frozenset[int]]:
    """Active qubits whose cross incidence is not below their internal one.

    Incidences count gates, so a duplicate gate counts once per copy.  If
    exactly one side's candidate set comes out empty, that side falls back
    to its full active set so the other side's surplus can still be traded;
    if both are empty the refinement is done.
    """
    return _Counts(c, p.q1).candidates()


@dataclass(frozen=True)
class RefineStep:
    """One committed swap: the candidate sets examined and the result."""

    qs1: frozenset[int]
    qs2: frozenset[int]
    swapped: tuple[int, int]
    loss_after: float


def refine_trace(c: Circuit, p: Partition,
                 opts: DivisionOptions) -> tuple[Partition, list[RefineStep]]:
    """refine() plus a step-by-step trace (used by the oracle tests)."""
    budget = opts.swap_budget(c)
    steps: list[RefineStep] = []
    counts = _Counts(c, p.q1)
    current = _loss(counts.active, counts.e3, opts.k)
    while len(steps) < budget:
        qs1, qs2 = counts.candidates()
        if not qs1 and not qs2:
            break
        best: tuple[int, int] | None = None
        best_loss = current
        for u in sorted(qs1):
            for v in sorted(qs2):
                _, active, e3 = counts.trade(u, v)
                trial = _loss(active, e3, opts.k)
                if trial < best_loss:
                    best, best_loss = (u, v), trial
        if best is None:
            break
        counts.swap(*best)
        current = best_loss
        steps.append(RefineStep(qs1, qs2, best, current))
    return classify(c, counts.q1()), steps


def refine(c: Circuit, p: Partition, opts: DivisionOptions) -> Partition:
    """Commit strictly-improving best swaps until no move helps.

    Termination: (a) both candidate sets empty, (b) no pair strictly lowers
    the loss, or (c) the swap budget is spent.  Ties on equal loss break to
    the lexicographically smallest (u, v), so the result is deterministic.

    Each trial swap (u, v) is priced from per-qubit cross counts in
    O(deg u + deg v); the result is identical to re-classifying the whole
    split for every trial, and the returned Partition is built by classify.
    """
    refined, _ = refine_trace(c, p, opts)
    return refined


def split_circuit(c: Circuit, p: Partition) -> tuple[Circuit, Circuit, Circuit]:
    """Materialize the three sub-circuits (q1, e1), (q2, e2), (Q(e3), e3).

    Sub-circuit qubit ids are dense relabelings in increasing order of the
    original id (local id i is sorted(qubits)[i]); sub-circuit gate i is the
    i-th smallest original gate index of its set.  Gate multiplicity is
    preserved.
    """

    def induced(qubits: frozenset[int], gate_ids: frozenset[int], tag: str) -> Circuit:
        order = sorted(qubits)
        local = {q: i for i, q in enumerate(order)}
        gates = tuple(
            (local[c.gates[i][0]], local[c.gates[i][1]]) for i in sorted(gate_ids))
        return Circuit(len(order), gates, f"{c.name}.{tag}")

    q3 = p.qa1 | p.qa2
    return (
        induced(p.q1, p.e1, "part1"),
        induced(p.q2, p.e2, "part2"),
        induced(q3, p.e3, "cross"),
    )
