"""Bisimulations: partition refinement, branching and CTMDP variants."""

from repro.bisim.branching import branching_bisimulation, branching_minimize
from repro.bisim.ctmdp_bisim import ctmdp_bisimulation, ctmdp_equivalent, ctmdp_minimize
from repro.bisim.partition import Partition, refine_to_fixpoint
from repro.bisim.quotient import map_labels_through, quotient_imc
from repro.bisim.signatures import quantize_rate, rate_signature, stable_rate_sum
from repro.bisim.worklist import worklist_refine

__all__ = [
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
    "worklist_refine",
]
