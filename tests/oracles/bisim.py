"""Oracles for stochastic branching bisimulation (Definition 6).

* :func:`naive_branching_bisimulation` -- the Blom & Orzan-style
  signature refinement the vectorised worklist engine must reproduce
  partition for partition: per round, every state is assigned its set of
  non-inert ``(a, target block)`` moves reachable through inert
  (same-block) ``tau`` sequences and the set of cumulative-rate
  signatures of the *stable* states it reaches the same way, and blocks
  are split by signature.
* :func:`is_stochastic_branching_bisimulation` -- a literal check of
  Definition 6 on test-sized models.
* :func:`record_minimisation_workload` -- every ``(imc, labels)`` pair
  the interleave-all FTWC build of :mod:`tests.oracles.ftwc` hands to
  the refinement.  That order is no longer what the production build
  runs; it is kept as a stress input because its intermediate products
  grow to 80,000 states at N=3 and its minimisations remove nothing.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import repro.bisim.branching as branching
from repro.bisim.branching import _rate_signature
from repro.bisim.partition import Partition, refine_to_fixpoint
from repro.imc.model import IMC, TAU


def _signatures(imc: IMC, partition: Partition) -> list[Hashable]:
    """Branching signatures: non-inert moves and stable rate signatures
    reachable through inert ``tau`` paths."""
    n = imc.num_states
    block_of = partition.block_of

    # Inert tau graph: tau transitions staying inside their block.
    rows, cols = [], []
    for src, action, dst in imc.interactive:
        if action == TAU and block_of[src] == block_of[dst] and src != dst:
            rows.append(src)
            cols.append(dst)
    if rows:
        graph = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        num_comps, comp_of = connected_components(graph, directed=True, connection="strong")
    else:
        num_comps, comp_of = n, np.arange(n)

    # Local contributions per component.
    visible: list[set] = [set() for _ in range(num_comps)]
    stable_rates: list[set] = [set() for _ in range(num_comps)]
    for state in range(n):
        comp = int(comp_of[state])
        for action, target in imc.interactive_successors(state):
            if action == TAU and block_of[state] == block_of[target]:
                continue  # inert
            visible[comp].add((action, int(block_of[target])))
        if imc.is_stable(state):
            stable_rates[comp].add(_rate_signature(imc, state, block_of))

    # Condensation edges (inert edges between different components) and
    # propagation in reverse topological order: a component sees its own
    # contributions plus everything its inert successors see.
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
    order: list[int] = [c for c in range(num_comps) if indegree[c] == 0]
    head = 0
    while head < len(order):
        comp = order[head]
        head += 1
        for nxt in successors[comp]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                order.append(nxt)
    for comp in reversed(order):
        for nxt in successors[comp]:
            visible[comp] |= visible[nxt]
            stable_rates[comp] |= stable_rates[nxt]

    return [
        (frozenset(visible[int(comp_of[s])]), frozenset(stable_rates[int(comp_of[s])]))
        for s in range(n)
    ]


def naive_branching_bisimulation(
    imc: IMC, labels: Sequence[Hashable] | None = None
) -> Partition:
    """Reference partition for :func:`repro.bisim.branching_bisimulation`."""
    initial = (
        Partition.from_labels(labels)
        if labels is not None
        else Partition.trivial(imc.num_states)
    )
    return refine_to_fixpoint(initial, lambda p: _signatures(imc, p))


def is_stochastic_branching_bisimulation(imc: IMC, partition: Partition) -> bool:
    """Literal check of Definition 6 -- exponential comfort, test-sized models.

    For every pair ``(s1, t1)`` in one block and every move
    ``s1 --a--> s2``: either the move is inert (``a = tau`` and ``s2``
    stays in the block), or ``t1`` can reach, via ``tau`` steps through
    the block, a state ``t1'`` (still in the block) with an ``a`` move
    into the block of ``s2``.  And for stable ``s1``: ``t1`` reaches via
    inert ``tau`` steps a stable ``t1'`` with the same cumulative-rate
    signature.
    """
    canon = partition.canonical()
    block_of = canon.block_of

    def inert_closure(state: int) -> list[int]:
        seen = {state}
        stack = [state]
        while stack:
            current = stack.pop()
            for action, target in imc.interactive_successors(current):
                if (
                    action == TAU
                    and block_of[target] == block_of[state]
                    and target not in seen
                ):
                    seen.add(target)
                    stack.append(target)
        return sorted(seen)

    for block_states in canon.blocks():
        for s1 in block_states:
            for t1 in block_states:
                # Condition 1: interactive moves.
                for action, s2 in imc.interactive_successors(s1):
                    if action == TAU and block_of[s2] == block_of[s1]:
                        continue  # matched by (s2, t1) in B via the first disjunct
                    matched = any(
                        any(
                            a == action and block_of[t2] == block_of[s2]
                            for a, t2 in imc.interactive_successors(t1p)
                        )
                        for t1p in inert_closure(t1)
                    )
                    if not matched:
                        return False
                # Condition 2: stable states must be rate-matched.
                if imc.is_stable(s1):
                    sig = _rate_signature(imc, s1, block_of)
                    matched = any(
                        imc.is_stable(t1p)
                        and _rate_signature(imc, t1p, block_of) == sig
                        for t1p in inert_closure(t1)
                    )
                    if not matched:
                        return False
    return True


def record_minimisation_workload(n: int) -> list[tuple[IMC, list | None]]:
    """The ``(imc, labels)`` pairs ``interleaved_system_imc(n)`` minimises,
    in order."""
    from tests.oracles.ftwc import interleaved_system_imc

    recorded = []
    original = branching.branching_bisimulation

    def recording(imc, labels=None, metrics=None):
        recorded.append((imc, list(labels) if labels is not None else None))
        return original(imc, labels, metrics=metrics)

    branching.branching_bisimulation = recording
    try:
        interleaved_system_imc(n)
    finally:
        branching.branching_bisimulation = original
    return recorded
