"""Whole-model graph diagnostics (the ``Qxxx`` code family).

Where the per-model analyzers of :mod:`repro.lint.analyzers` inspect
local structure (rates, rows, masks), this pass runs the global graph
machinery of :mod:`repro.graph` -- reachability, maximal end components
and the qualitative Prob0/Prob1 sets -- and reports *model-level*
defects that no local check can see:

* ``Q001`` -- the goal set is entirely unreachable from the initial
  state: every probability query against it is trivially zero, which
  almost always means a mislabelled model;
* ``Q002`` -- a reachable, goal-free *closed* end component: once
  entered, (some scheduler of) the model can circulate there forever,
  so maximal reachability saturates below one (a probability trap);
* ``Q003`` -- a reachable deadlock state (no outgoing behaviour at
  all); goal states are exempt when a goal is known, since absorbing
  goals are the standard modelling idiom;
* ``Q004`` -- a cycle of interactive transitions in an IMC: under the
  closed-world urgency assumption the cycle is traversed in zero time
  (Zeno divergence), and the vanishing-state elimination of the
  uniform-CTMDP transformation cannot terminate on it.

The pass accepts every model class :func:`repro.graph.graph_of` knows
(CTMDP, CTMC, DTMDP, IMC) and degrades gracefully: goal-relative codes
(``Q001``, ``Q002``) are only produced when a goal set is supplied.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.graph.components import maximal_end_components
from repro.graph.structure import TransitionGraph, graph_of
from repro.lint.diagnostics import Diagnostic, make_diagnostic
from repro.states import state_mask

__all__ = ["lint_graph"]

#: How many offending states a diagnostic names explicitly.
_MAX_LISTED = 12


def _clip(states: np.ndarray) -> tuple[int, ...]:
    return tuple(int(s) for s in states[:_MAX_LISTED])


def _interactive_cycles(imc: Any) -> list[tuple[int, ...]]:
    """Cycles purely over interactive transitions, one per offending SCC.

    Built as a one-row-per-state support graph of the interactive
    relation alone, so the SCC decomposition of :mod:`repro.graph`
    applies directly: a vanishing cycle is a nontrivial component or an
    interactive self-loop.
    """
    import scipy.sparse as sp

    from repro.graph.components import strongly_connected_components

    n = imc.num_states
    sources = []
    targets = []
    for src, _action, dst in imc.interactive:
        sources.append(src)
        targets.append(dst)
    support = sp.csr_matrix(
        (np.ones(len(sources), dtype=bool), (sources, targets)),
        shape=(n, n),
        dtype=bool,
    )
    support.sum_duplicates()
    graph = TransitionGraph(
        num_states=n,
        choice_ptr=np.arange(n + 1, dtype=np.int64),
        support=support,
        initial=imc.initial,
        kind="imc",
    )
    scc = strongly_connected_components(graph)
    self_loops = np.zeros(n, dtype=bool)
    diagonal = support.diagonal()
    if diagonal.size:
        self_loops = np.asarray(diagonal, dtype=bool)
    cycles = []
    for component in range(scc.num_components):
        members = scc.members(component)
        if len(members) > 1 or self_loops[members[0]]:
            cycles.append(tuple(int(s) for s in members))
    return cycles


def lint_graph(
    model: Any,
    goal: Iterable[int] | np.ndarray | None = None,
    location: str = "",
) -> list[Diagnostic]:
    """Collect whole-model graph diagnostics for ``model``.

    Parameters
    ----------
    model:
        Any model with a transition-graph view (CTMDP, CTMC, DTMDP,
        IMC), or a :class:`~repro.graph.TransitionGraph` directly.
    goal:
        Optional goal set (mask or indices).  Without it the
        goal-relative codes ``Q001``/``Q002`` are skipped and ``Q003``
        reports every reachable deadlock.
    location:
        Tag recorded on each finding (e.g. a pipeline stage).
    """
    graph = graph_of(model)
    findings: list[Diagnostic] = []
    reachable = graph.reachable_from()

    goal_mask: np.ndarray | None = None
    if goal is not None:
        goal_mask = state_mask(graph.num_states, goal, "goal state")

    # --- Q001: goal unreachable from the initial state -----------------
    if goal_mask is not None and goal_mask.any():
        if not bool((goal_mask & reachable).any()):
            findings.append(
                make_diagnostic(
                    "Q001",
                    f"none of the {int(goal_mask.sum())} goal state(s) is "
                    f"reachable from the initial state {graph.initial}: "
                    "every reachability probability is trivially zero",
                    states=_clip(np.flatnonzero(goal_mask)),
                    location=location,
                )
            )

    # --- Q003: reachable deadlock states -------------------------------
    dead = graph.deadlocks & reachable
    if goal_mask is not None:
        dead = dead & ~goal_mask
    if dead.any():
        dead_idx = np.flatnonzero(dead)
        suffix = " (non-goal)" if goal_mask is not None else ""
        findings.append(
            make_diagnostic(
                "Q003",
                f"{len(dead_idx)} reachable{suffix} deadlock state(s) with "
                "no outgoing behaviour; paths entering them stop forever",
                states=_clip(dead_idx),
                location=location,
            )
        )

    # --- Q004: interactive (vanishing-state) cycles in IMCs ------------
    if graph.kind == "imc" and hasattr(model, "interactive"):
        for cycle in _interactive_cycles(model):
            if not any(reachable[s] for s in cycle):
                continue
            findings.append(
                make_diagnostic(
                    "Q004",
                    f"interactive transitions cycle through "
                    f"{len(cycle)} state(s): traversed in zero time under "
                    "urgency (Zeno), vanishing-state elimination diverges",
                    states=_clip(np.asarray(cycle)),
                    location=location,
                )
            )

    # --- Q002: reachable goal-free closed end components ----------------
    if goal_mask is not None and goal_mask.any():
        for mec in maximal_end_components(graph):
            if not mec.closed:
                continue
            members = np.asarray(mec.states)
            if goal_mask[members].any() or not reachable[members].any():
                continue
            findings.append(
                make_diagnostic(
                    "Q002",
                    f"reachable closed end component of {len(members)} "
                    "state(s) contains no goal state: probability mass "
                    "entering it never reaches the goal",
                    states=_clip(members),
                    location=location,
                )
            )
    return findings
