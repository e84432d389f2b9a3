"""Oracle for :class:`repro.graph.TransitionGraph`'s reachability sets.

Production code expands whole frontiers at once over the CSR arrays;
this oracle is a plain depth-first search over Python adjacency lists,
one edge at a time.  ``through`` has the production semantics: a state
outside it is never added (the start, or the targets, always are).
"""

from __future__ import annotations

import numpy as np

from repro.graph.structure import TransitionGraph


def successor_lists(graph: TransitionGraph) -> list[list[int]]:
    """The targets of every state's choices, as Python lists."""
    successors: list[list[int]] = [[] for _ in range(graph.num_states)]
    for state in range(graph.num_states):
        for row in graph.rows_of(state):
            successors[state].extend(int(t) for t in graph.row_targets(row))
    return successors


def _search(
    edges: list[list[int]], seeds: np.ndarray, through: np.ndarray | None
) -> np.ndarray:
    reached = seeds.copy()
    stack = [int(s) for s in np.flatnonzero(seeds)]
    while stack:
        state = stack.pop()
        for nxt in edges[state]:
            if reached[nxt] or (through is not None and not through[nxt]):
                continue
            reached[nxt] = True
            stack.append(nxt)
    return reached


def dfs_reachable_from(
    graph: TransitionGraph, start: int, through: np.ndarray | None = None
) -> np.ndarray:
    """States reachable from ``start`` through ``through`` states."""
    seeds = np.zeros(graph.num_states, dtype=bool)
    seeds[start] = True
    return _search(successor_lists(graph), seeds, through)


def dfs_backward_reachable(
    graph: TransitionGraph, targets: np.ndarray, through: np.ndarray | None = None
) -> np.ndarray:
    """States with a path through ``through`` states into ``targets``."""
    predecessors: list[list[int]] = [[] for _ in range(graph.num_states)]
    for state, targets_of in enumerate(successor_lists(graph)):
        for target in targets_of:
            predecessors[target].append(state)
    return _search(predecessors, np.asarray(targets, dtype=bool), through)
