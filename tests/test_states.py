"""Bad goal, safe and initial states raise ModelError, with no wraparound.

A negative index must not name the last state, and a mask of the wrong
shape must be rejected before it reaches numpy indexing.
"""

import numpy as np
import pytest

from repro.core.ctmdp import CTMDP
from repro.core.expected_time import expected_time_analysis
from repro.core.reachability import timed_reachability, unbounded_reachability
from repro.core.until import timed_until
from repro.ctmc.hitting import expected_hitting_time
from repro.ctmc.model import CTMC
from repro.ctmc.reachability import (
    interval_reachability_analysis,
    timed_reachability as ctmc_timed_reachability,
    timed_reachability_curve,
)
from repro.ctmc.until import timed_until as ctmc_timed_until
from repro.errors import ModelError
from repro.graph import graph_of, prob0_forall
from repro.mdp import DTMDP, bounded_reachability

N = 3


def _ctmdp() -> CTMDP:
    return CTMDP.from_transitions(
        N, [(0, "a", {1: 2.0}), (1, "a", {2: 2.0}), (2, "a", {2: 2.0})]
    )


def _ctmc() -> CTMC:
    return CTMC.from_transitions(N, [(0, 1, 1.0), (1, 2, 1.0)])


def _dtmdp() -> DTMDP:
    return DTMDP.from_transitions(
        N, [(0, "a", {1: 1.0}), (1, "a", {2: 1.0}), (2, "a", {2: 1.0})]
    )


#: Each entry point called with a bad state set in the slot named.
ENTRY_POINTS = {
    "core.timed_reachability": lambda s: timed_reachability(_ctmdp(), s, 1.0),
    "core.timed_until-safe": lambda s: timed_until(_ctmdp(), s, [2], 1.0),
    "core.unbounded_reachability": lambda s: unbounded_reachability(_ctmdp(), s),
    "core.expected_time_analysis": lambda s: expected_time_analysis(_ctmdp(), s),
    "ctmc.timed_reachability": lambda s: ctmc_timed_reachability(_ctmc(), s, 1.0),
    "ctmc.timed_until-safe": lambda s: ctmc_timed_until(_ctmc(), s, [2], 1.0),
    "ctmc.timed_reachability_curve": lambda s: timed_reachability_curve(
        _ctmc(), s, [1.0]
    ),
    "ctmc.interval_reachability": lambda s: interval_reachability_analysis(
        _ctmc(), s, 0.5, 1.0
    ),
    "ctmc.expected_hitting_time": lambda s: expected_hitting_time(_ctmc(), s),
    "graph.prob0_forall": lambda s: prob0_forall(graph_of(_ctmdp()), s),
    "mdp.bounded_reachability": lambda s: bounded_reachability(_dtmdp(), s, 2),
}

BAD_SETS = {
    "negative-index": [-1],
    "index-past-end": [N],
    "short-mask": np.array([True, False]),
}


@pytest.mark.parametrize("states", BAD_SETS.values(), ids=list(BAD_SETS))
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_bad_state_set_is_a_model_error(entry, states):
    with pytest.raises(ModelError):
        ENTRY_POINTS[entry](states)


@pytest.mark.parametrize(
    "call",
    [
        lambda: interval_reachability_analysis(_ctmc(), [2], 0.0, 1.0, initial=-1),
        lambda: timed_reachability_curve(_ctmc(), [2], [1.0], initial=-1),
        lambda: interval_reachability_analysis(_ctmc(), [2], 0.0, 1.0, initial=N),
    ],
    ids=["interval-negative", "curve-negative", "interval-past-end"],
)
def test_bad_initial_state_is_a_model_error(call):
    with pytest.raises(ModelError, match="initial state"):
        call()

