"""Continuous-time Markov chains: model, uniformization, analysis, phase-types."""

from repro.ctmc.hitting import expected_hitting_time
from repro.ctmc.model import CTMC
from repro.ctmc.phase_type import PhaseType
from repro.ctmc.reachability import (
    CTMCReachabilityResult,
    IntervalReachabilityResult,
    interval_reachability_analysis,
    timed_reachability,
    timed_reachability_curve,
)
from repro.ctmc.until import timed_until
from repro.ctmc.uniformization import (
    steady_state_analysis,
    transient_analysis,
    uniformize,
    uniformized_jump_matrix,
)

__all__ = [
    "CTMC",
    "expected_hitting_time",
    "PhaseType",
    "CTMCReachabilityResult",
    "IntervalReachabilityResult",
    "interval_reachability_analysis",
    "timed_reachability",
    "timed_reachability_curve",
    "timed_until",
    "steady_state_analysis",
    "transient_analysis",
    "uniformize",
    "uniformized_jump_matrix",
]
