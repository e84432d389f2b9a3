"""Stochastic weak bisimulation for IMCs.

The paper establishes uniformity preservation for stochastic *branching*
bisimulation and remarks that the result "can also be established for
other variations (such as weak bisimulation)" -- this module provides
that variation executably.

Weak bisimulation abstracts ``tau`` more aggressively than branching
bisimulation: a move ``s ==a==> t`` may be preceded and followed by
arbitrary internal steps (``tau* a tau*``), without branching
bisimulation's requirement that the stuttering stays inside the source's
equivalence class.  The stochastic side mirrors condition 2 of
Definition 6 with the unrestricted closure: a stable state reachable
through internal steps must be matched by a stable state with identical
cumulative rates into every class.

Keeping the *exact* per-class rates (including the own class, as in
Definition 6) makes the relation potentially slightly finer than the
textbook weak Markov bisimulation (which factors out internal loops) --
a sound trade: every partition computed here is behaviour-preserving and
preserves uniformity, which the property tests check; maximal
compression is sacrificed in rare corner cases.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.bisim.branching import _rate_signature
from repro.bisim.partition import Partition, refine_to_fixpoint
from repro.bisim.quotient import quotient_imc
from repro.imc.model import IMC, TAU

__all__ = ["weak_bisimulation", "weak_minimize"]


def _tau_closures(imc: IMC) -> list[list[int]]:
    """Per state, all states reachable via ``tau`` steps (reflexive).

    Computed once (the closure is partition-independent): SCC
    condensation of the ``tau`` graph, then reachable-set propagation in
    reverse topological order.
    """
    n = imc.num_states
    rows, cols = [], []
    for src, action, dst in imc.interactive:
        if action == TAU and src != dst:
            rows.append(src)
            cols.append(dst)
    if rows:
        from scipy.sparse.csgraph import connected_components

        graph = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        num_comps, comp_of = connected_components(graph, directed=True, connection="strong")
    else:
        num_comps, comp_of = n, np.arange(n)

    members: list[list[int]] = [[] for _ in range(num_comps)]
    for state in range(n):
        members[int(comp_of[state])].append(state)

    comp_edges: set[tuple[int, int]] = set()
    for src, dst in zip(rows, cols):
        a, b = int(comp_of[src]), int(comp_of[dst])
        if a != b:
            comp_edges.add((a, b))
    successors: list[list[int]] = [[] for _ in range(num_comps)]
    indegree = np.zeros(num_comps, dtype=np.int64)
    for a, b in comp_edges:
        successors[a].append(b)
        indegree[b] += 1
    order = [c for c in range(num_comps) if indegree[c] == 0]
    head = 0
    while head < len(order):
        comp = order[head]
        head += 1
        for nxt in successors[comp]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                order.append(nxt)

    comp_reach: list[set[int]] = [set() for _ in range(num_comps)]
    for comp in reversed(order):
        reach = set(members[comp])
        for nxt in successors[comp]:
            reach |= comp_reach[nxt]
        comp_reach[comp] = reach

    return [sorted(comp_reach[int(comp_of[s])]) for s in range(n)]


def _signatures(
    imc: IMC, partition: Partition, closures: list[list[int]]
) -> list[Hashable]:
    block_of = partition.block_of
    result: list[Hashable] = []
    for state in range(imc.num_states):
        visible: set = set()
        for via in closures[state]:
            for action, target in imc.interactive_successors(via):
                if action == TAU:
                    continue
                # tau* a tau*: any stop state after trailing internals.
                for stop in closures[target]:
                    visible.add((action, int(block_of[stop])))
        # Internal moves that change the class (the empty move matches
        # same-class internal steps).
        internal = {
            (TAU, int(block_of[via]))
            for via in closures[state]
            if block_of[via] != block_of[state]
        }
        stable_rates = frozenset(
            _rate_signature(imc, via, block_of)
            for via in closures[state]
            if imc.is_stable(via)
        )
        result.append((frozenset(visible | internal), stable_rates))
    return result


def weak_bisimulation(
    imc: IMC, labels: Sequence[Hashable] | None = None
) -> Partition:
    """Compute a stochastic weak bisimulation partition.

    ``labels`` seeds the partition (states with different labels never
    merge), exactly as for the branching variant.
    """
    closures = _tau_closures(imc)
    initial = (
        Partition.from_labels(labels)
        if labels is not None
        else Partition.trivial(imc.num_states)
    )
    return refine_to_fixpoint(initial, lambda p: _signatures(imc, p, closures))


def weak_minimize(
    imc: IMC, labels: Sequence[Hashable] | None = None
) -> tuple[IMC, Partition]:
    """Quotient ``imc`` by stochastic weak bisimilarity."""
    partition = weak_bisimulation(imc, labels)
    return quotient_imc(imc, partition, drop_inert_tau=True), partition
