"""Whole-model graph analysis: one call, one structured summary.

:func:`analyze_model` runs the complete static pipeline -- reachable
set, SCC condensation, MEC decomposition, deadlock detection and (when
a goal is known) the four qualitative sets -- and packages the result
for the ``repro analyze`` CLI, the graph lint pass and ad-hoc use.
Every stage runs under a tracer span (``graph.scc``, ``graph.mec``,
``graph.qualitative``) and reports counters into a metric store when
one is supplied, mirroring the conventions of the solver layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.graph.components import (
    EndComponent,
    SCCDecomposition,
    bottom_components,
    maximal_end_components,
    strongly_connected_components,
)
from repro.graph.qualitative import QualitativeAnalysis, qualitative_analysis
from repro.graph.structure import TransitionGraph, graph_of
from repro.obs import span
from repro.states import state_mask

__all__ = ["GraphAnalysis", "analyze_model"]


@dataclass(frozen=True)
class GraphAnalysis:
    """Structural summary of one model (plus optional goal query)."""

    kind: str
    num_states: int
    num_rows: int
    num_edges: int
    initial: int
    reachable: np.ndarray
    scc: SCCDecomposition
    bottom_sccs: list[int]
    mecs: list[EndComponent]
    deadlocks: np.ndarray
    goal: np.ndarray | None = None
    qualitative: QualitativeAnalysis | None = field(default=None)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def num_reachable(self) -> int:
        """Number of states reachable from the initial state."""
        return int(self.reachable.sum())

    def closed_mecs(self) -> list[EndComponent]:
        """End components no scheduler can leave."""
        return [mec for mec in self.mecs if mec.closed]

    def trap_mecs(self) -> list[EndComponent]:
        """Reachable, goal-free, closed end components (probability traps)."""
        if self.goal is None:
            return []
        traps = []
        for mec in self.closed_mecs():
            if self.goal[mec.states].any():
                continue
            if not self.reachable[mec.states].any():
                continue
            traps.append(mec)
        return traps

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready summary document."""
        sizes = self.scc.sizes()
        document: dict[str, Any] = {
            "kind": self.kind,
            "states": self.num_states,
            "choice_rows": self.num_rows,
            "edges": self.num_edges,
            "initial": self.initial,
            "reachable_states": self.num_reachable,
            "deadlock_states": [int(s) for s in np.flatnonzero(self.deadlocks)],
            "scc": {
                "count": self.scc.num_components,
                "largest": int(sizes.max()) if len(sizes) else 0,
                "bottom": len(self.bottom_sccs),
                "trivial": int((sizes == 1).sum()),
            },
            "mec": {
                "count": len(self.mecs),
                "closed": len(self.closed_mecs()),
                "largest": max((mec.num_states for mec in self.mecs), default=0),
                "components": [
                    {
                        "states": [int(s) for s in mec.states],
                        "rows": len(mec.rows),
                        "closed": bool(mec.closed),
                    }
                    for mec in self.mecs
                ],
            },
        }
        if self.goal is not None and self.qualitative is not None:
            document["goal_states"] = int(self.goal.sum())
            document["qualitative"] = self.qualitative.counts()
            document["trap_mecs"] = [
                [int(s) for s in mec.states] for mec in self.trap_mecs()
            ]
        return document

    def render_text(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"model kind       {self.kind}",
            f"states           {self.num_states} "
            f"({self.num_reachable} reachable from {self.initial})",
            f"choice rows      {self.num_rows}",
            f"edges            {self.num_edges}",
            f"deadlock states  {int(self.deadlocks.sum())}",
        ]
        sizes = self.scc.sizes()
        lines.append(
            f"SCCs             {self.scc.num_components} "
            f"(largest {int(sizes.max()) if len(sizes) else 0}, "
            f"{len(self.bottom_sccs)} bottom, "
            f"{int((sizes == 1).sum())} trivial)"
        )
        lines.append(
            f"MECs             {len(self.mecs)} "
            f"({len(self.closed_mecs())} closed, largest "
            f"{max((mec.num_states for mec in self.mecs), default=0)})"
        )
        if self.goal is not None and self.qualitative is not None:
            counts = self.qualitative.counts()
            lines.append(f"goal states      {int(self.goal.sum())}")
            lines.append(
                "qualitative      "
                f"Prob0A={counts['prob0_forall']} "
                f"Prob0E={counts['prob0_exists']} "
                f"Prob1E={counts['prob1_exists']} "
                f"Prob1A={counts['prob1_forall']}"
            )
            traps = self.trap_mecs()
            if traps:
                lines.append(
                    f"trap MECs        {len(traps)} "
                    f"(e.g. states {[int(s) for s in traps[0].states[:6]]})"
                )
            else:
                lines.append("trap MECs        0")
        return "\n".join(lines)


def analyze_model(
    model: object,
    goal: Iterable[int] | np.ndarray | None = None,
    safe: np.ndarray | None = None,
    metrics: Any = None,
) -> GraphAnalysis:
    """Run the full static analysis pipeline on ``model``.

    ``goal`` (state indices or a boolean mask) switches on the
    qualitative family; ``safe`` refines it to until semantics.
    ``metrics`` is an optional :class:`repro.obs.MetricStore`.
    """
    graph: TransitionGraph = graph_of(model)
    with span("graph.build", kind=graph.kind, states=graph.num_states):
        reachable = graph.reachable_from()
        deadlocks = graph.deadlocks.copy()
    with span("graph.scc", states=graph.num_states):
        scc = strongly_connected_components(graph)
        bottom = bottom_components(graph, scc)
    with span("graph.mec", states=graph.num_states):
        mecs = maximal_end_components(graph)
    goal_mask: np.ndarray | None = None
    qualitative: QualitativeAnalysis | None = None
    if goal is not None:
        goal_mask = state_mask(graph.num_states, goal, "goal state")
        with span("graph.qualitative", goal_states=int(goal_mask.sum())):
            qualitative = qualitative_analysis(graph, goal_mask, safe)
    if metrics is not None:
        metrics.count("graph_analyses")
        metrics.gauge("graph_scc_count", scc.num_components)
        metrics.gauge("graph_mec_count", len(mecs))
        metrics.gauge("graph_deadlock_count", int(deadlocks.sum()))
    return GraphAnalysis(
        kind=graph.kind,
        num_states=graph.num_states,
        num_rows=graph.num_rows,
        num_edges=int(graph.support.nnz),
        initial=graph.initial,
        reachable=reachable,
        scc=scc,
        bottom_sccs=bottom,
        mecs=mecs,
        deadlocks=deadlocks,
        goal=goal_mask,
        qualitative=qualitative,
    )
