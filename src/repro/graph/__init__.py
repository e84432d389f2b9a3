"""Whole-model graph analysis: SCCs, end components, qualitative sets.

The quantitative pipeline of the paper answers *how probable*; this
package answers, on the support graph alone, *whether at all* and
*whether certainly* -- questions that are decidable without a single
floating-point operation.  Three consumers build on it:

* ``repro lint --graph`` turns structural defects into stable ``Qxxx``
  diagnostics (see :mod:`repro.lint.graph`);
* unbounded reachability pins the objective's Prob0 and Prob1 sets
  before value iteration (:mod:`repro.core.reachability`);
* ``repro analyze`` prints the condensation / MEC / qualitative summary
  for any builtin family or model file.
"""

from repro.graph.analyze import GraphAnalysis, analyze_model
from repro.graph.components import (
    EndComponent,
    SCCDecomposition,
    bottom_components,
    condensation_edges,
    maximal_end_components,
    strongly_connected_components,
)
from repro.graph.qualitative import (
    QualitativeAnalysis,
    prob0_exists,
    prob0_forall,
    prob1_exists,
    prob1_forall,
    qualitative_analysis,
)
from repro.graph.structure import TransitionGraph, graph_of

__all__ = [
    "EndComponent",
    "GraphAnalysis",
    "QualitativeAnalysis",
    "SCCDecomposition",
    "TransitionGraph",
    "analyze_model",
    "bottom_components",
    "condensation_edges",
    "graph_of",
    "maximal_end_components",
    "prob0_exists",
    "prob0_forall",
    "prob1_exists",
    "prob1_forall",
    "qualitative_analysis",
    "strongly_connected_components",
]
