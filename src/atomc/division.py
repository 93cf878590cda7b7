"""Balanced two-community circuit division by pairwise-swap refinement.

The qubits are split into two equal-size communities; gates fall into the two
intra-community sets e1/e2 and the cross set e3.  Qubits touching a cross gate
are "active" (they will need the shared phase), the rest are "resolved".  The
refinement repeatedly exchanges one qubit per side to minimize

    L = k * (|active_1| + |active_2|) + (1 - k) * |e3|

committing only strictly improving swaps, so the loss sequence is strictly
decreasing and the refinement terminates.

The refinement keeps per-qubit cross-gate counts (Fiduccia and Mattheyses,
1982), so moving a qubit changes only the cross counts of the qubit and its
gate partners, and is priced in O(degree).  A swap (u, v) with u and v more
than two hops apart in the gate graph is separable: no gate joins u and v,
and u with its partners and v with its partners are disjoint sets, so no
qubit's cross count hears from both moves.  The swap's (delta active,
delta |e3|) is then exactly the sum of the two solo moves'.  Each step
prices every candidate's solo move once, groups each side's candidates by
that pair of deltas, and prices exactly only the pairs within two hops.
The candidate sets are kept up to date from the counts a swap changes.
With d the maximum degree, a step costs O((|Qs1| + |Qs2|) * d^3), up to a
sort of each candidate set, plus O(|Qs1|) per class of Qs2 to find the best
separable pair; the number of classes depends on d alone, not on |Qs1| *
|Qs2|, and no step reads every qubit.  The counts are exact integers and
the loss is the same float expression over them, so every step, tie and
result is identical to exhaustive re-classification of every trial.
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
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.k <= 1.0:
            raise ValueError(f"k must be in [0, 1], got {self.k}")


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
    len(adj[q]) - cross[q].  Per side, the active qubits and those that
    swap_candidates chooses are kept as sets, refiled for each qubit whose
    count or side a swap changes.
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
        self._active: dict[bool, set[int]] = {True: set(), False: set()}
        self._chosen: dict[bool, set[int]] = {True: set(), False: set()}
        for q in range(c.num_qubits):
            self._file(q)

    def q1(self) -> frozenset[int]:
        return frozenset(q for q, in_q1 in enumerate(self.side) if in_q1)

    def _file(self, q: int) -> None:
        """Put q in the active and chosen sets of its side that its cross
        count admits it to, and in no other."""
        n = self.cross[q]
        chosen = n > 0 and n >= len(self.adj[q]) - n
        for sets, member in ((self._active, n > 0), (self._chosen, chosen)):
            sets[True].discard(q)
            sets[False].discard(q)
            if member:
                sets[self.side[q]].add(q)

    def candidates(self) -> tuple[frozenset[int], frozenset[int]]:
        """The swap-candidate rule; see swap_candidates."""
        active, chosen = self._active, self._chosen
        qs1, qs2 = frozenset(chosen[True]), frozenset(chosen[False])
        if qs1 and not qs2 and active[False]:
            qs2 = frozenset(active[False])
        elif qs2 and not qs1 and active[True]:
            qs1 = frozenset(active[True])
        return qs1, qs2

    def near(self, q: int) -> set[int]:
        """The qubits within two hops of q in the gate graph."""
        out = set(self.adj[q])
        for w in set(self.adj[q]):
            out.update(self.adj[w])
        return out

    def trade(self, *movers: int) -> tuple[dict[int, int], int, int]:
        """If `movers` change sides (one qubit, or a swap of one qubit per
        side): the change to each qubit's cross count that changes, and the
        new (active, e3).

        Only gates at a mover change class, and a gate joining the two
        movers of a swap stays cross, so this reads their adj alone.
        """
        side, cross, moved = self.side, self.cross, {}
        e3 = self.e3
        for a in movers:
            after, here = 0, side[a]
            for w in self.adj[a]:
                if w in movers:
                    after += 1
                elif side[w] == here:
                    after += 1
                    moved[w] = moved.get(w, 0) + 1
                else:
                    moved[w] = moved.get(w, 0) - 1
            moved[a] = after - cross[a]
            e3 += moved[a]
        active = self.active
        for q, d in moved.items():
            active += (cross[q] + d > 0) - (cross[q] > 0)
        return moved, active, e3

    def swap(self, u: int, v: int) -> None:
        moved, self.active, self.e3 = self.trade(u, v)
        for q, d in moved.items():
            self.cross[q] += d
        self.side[u], self.side[v] = self.side[v], self.side[u]
        for q in moved:  # u and v among them
            self._file(q)


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
    budget = 10 * c.num_qubits
    steps: list[RefineStep] = []
    counts = _Counts(c, p.q1)
    current = _loss(counts.active, counts.e3, opts.k)
    while len(steps) < budget:
        qs1, qs2 = counts.candidates()
        if not qs1 and not qs2:
            break
        best = _best_swap(counts, qs1, qs2, current, opts.k)
        if best is None:
            break
        current, u, v = best
        counts.swap(u, v)
        steps.append(RefineStep(qs1, qs2, (u, v), current))
    return classify(c, counts.q1()), steps


def _best_swap(counts: _Counts, qs1: frozenset[int], qs2: frozenset[int],
               current: float, k: float) -> tuple[float, int, int] | None:
    """The least (loss, u, v) over u in qs1 and v in qs2 whose loss is below
    `current`, or None: the first pair in (u, v) order among those with the
    least loss, as a scan of every pair would pick.

    A pair within two hops is priced by trade.  Every other pair's deltas
    are the sum of its solo moves', so its loss is the same float of the
    same integers; per pair of solo-move classes only the smallest such
    pair can win.
    """
    near = {u: counts.near(u) & qs2 for u in qs1}
    best = (current, -1, -1)  # any strictly improving pair sorts first
    for u, vs in near.items():
        for v in vs:
            _, active, e3 = counts.trade(u, v)
            best = min(best, (_loss(active, e3, k), u, v))
    ones, twos = _solo_classes(counts, qs1), _solo_classes(counts, qs2)
    prices = []
    for m1 in ones:
        for m2 in twos:
            active = counts.active + m1[0] + m2[0]
            e3 = counts.e3 + m1[1] + m2[1]
            prices.append((_loss(active, e3, k), m1, m2))
    prices.sort()
    for trial, m1, m2 in prices:
        if trial > best[0] or trial >= current:
            break
        # the smallest pair of these classes that is not near
        pair = next(((u, v) for u in ones[m1] for v in twos[m2]
                     if v not in near[u]), None)
        if pair is not None:
            best = min(best, (trial, *pair))
    return None if best[1] < 0 else best


def _solo_classes(counts: _Counts, qs: frozenset[int]
                  ) -> dict[tuple[int, int], list[int]]:
    """The qubits of qs, sorted, by the (delta active, delta e3) of moving
    each alone."""
    by_move: dict[tuple[int, int], list[int]] = {}
    for q in sorted(qs):
        _, active, e3 = counts.trade(q)
        by_move.setdefault((active - counts.active, e3 - counts.e3),
                           []).append(q)
    return by_move


def refine(c: Circuit, p: Partition, opts: DivisionOptions) -> Partition:
    """Commit strictly-improving best swaps until no move helps.

    Termination: (a) both candidate sets empty, (b) no pair strictly lowers
    the loss, or (c) 10 swaps per qubit are spent.  Ties on equal loss
    break to the lexicographically smallest (u, v), so the result is
    deterministic.

    Swaps are priced from per-qubit cross counts without a scan of
    Qs1 x Qs2: pairs within two hops exactly, every other pair as the sum
    of two solo moves, which is exact because their neighbourhoods are
    disjoint (see the module docstring).  With d the maximum degree a step
    costs O((|Qs1| + |Qs2|) * d^3), up to a sort of each candidate set, plus
    O(|Qs1|) per solo-move class of Qs2.  The result is identical to
    re-classifying the whole split for every trial, and the returned
    Partition is built by classify.
    """
    refined, _ = refine_trace(c, p, opts)
    return refined


def split_circuit(c: Circuit, p: Partition) -> tuple[Circuit, Circuit, Circuit]:
    """Materialize the three sub-circuits (q1, e1), (q2, e2), (Q(e3), e3).

    This is the one definition of sub-circuit ids, which every phase
    schedule uses: sub-circuit qubit i is original qubit sorted(qubits)[i],
    and sub-circuit gate i is the i-th smallest original gate index of its
    set.  The orchestrator lifts each phase schedule back to original ids
    once; the verifier keeps its own relabeling.  Gate multiplicity is
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
