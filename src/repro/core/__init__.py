"""The paper's analysis core: CTMDPs and timed reachability."""

from repro.core.ctmdp import CTMDP, Transition
from repro.core.reachability import (
    ReachabilityResult,
    timed_reachability,
    unbounded_reachability,
)
from repro.core.expected_time import expected_time_analysis
from repro.core.until import timed_until

__all__ = [
    "CTMDP",
    "Transition",
    "ReachabilityResult",
    "timed_reachability",
    "unbounded_reachability",
    "timed_until",
    "expected_time_analysis",
]
