"""The paper's analysis core: CTMDPs, schedulers, timed reachability."""

from repro.core.ctmdp import CTMDP, Transition
from repro.core.reachability import (
    ReachabilityResult,
    timed_reachability,
    unbounded_reachability,
)
from repro.core.expected_time import expected_time_analysis
from repro.core.until import timed_until
from repro.core.uniformity import uniformize_ctmdp
from repro.core.scheduler import (
    Scheduler,
    StationaryScheduler,
    StepScheduler,
    UniformRandomScheduler,
    greedy_scheduler_from_decisions,
)

__all__ = [
    "CTMDP",
    "Transition",
    "ReachabilityResult",
    "timed_reachability",
    "unbounded_reachability",
    "Scheduler",
    "StationaryScheduler",
    "StepScheduler",
    "UniformRandomScheduler",
    "greedy_scheduler_from_decisions",
    "uniformize_ctmdp",
    "timed_until",
    "expected_time_analysis",
]
