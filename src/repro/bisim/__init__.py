"""Bisimulations: partition refinement, strong & branching variants."""

from repro.bisim.branching import branching_bisimulation, branching_minimize
from repro.bisim.compare import are_branching_bisimilar, are_strongly_bisimilar, disjoint_union
from repro.bisim.ctmdp_bisim import ctmdp_bisimulation, ctmdp_equivalent, ctmdp_minimize
from repro.bisim.partition import Partition, refine_to_fixpoint
from repro.bisim.quotient import map_labels_through, quotient_imc
from repro.bisim.signatures import quantize_rate, rate_signature, stable_rate_sum
from repro.bisim.strong import strong_bisimulation, strong_minimize
from repro.bisim.worklist import worklist_refine

__all__ = [
    "are_branching_bisimilar",
    "are_strongly_bisimilar",
    "disjoint_union",
    "branching_bisimulation",
    "branching_minimize",
    "ctmdp_bisimulation",
    "ctmdp_equivalent",
    "ctmdp_minimize",
    "Partition",
    "refine_to_fixpoint",
    "map_labels_through",
    "quotient_imc",
    "quantize_rate",
    "rate_signature",
    "stable_rate_sum",
    "strong_bisimulation",
    "strong_minimize",
    "worklist_refine",
]
