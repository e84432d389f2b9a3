"""Parameter sweeps over the FTWC: sensitivity analysis.

The paper evaluates one parameterisation of the workstation cluster;
a library user typically wants to know how the worst-case risk moves
with the design parameters.  These sweeps vary

* the cluster size ``N`` (redundancy),
* the repair rates (maintenance capacity),
* the failure rates (component quality),

and report the worst-case probability of losing premium service within
a mission time, each point being one run of Algorithm 1 on a freshly
generated uniform CTMDP.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.core.reachability import timed_reachability
from repro.models.ftwc_direct import FTWCParameters, build_ctmdp

__all__ = [
    "SweepPoint",
    "sweep_cluster_size",
    "sweep_repair_speed",
    "sweep_failure_rate",
]


@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep."""

    parameter: float
    probability: float
    states: int
    uniform_rate: float


def _worst_case(params: FTWCParameters, t: float, epsilon: float) -> SweepPoint:
    model = build_ctmdp(params.n, params)
    result = timed_reachability(model.ctmdp, model.goal_mask, t, epsilon=epsilon)
    return SweepPoint(
        parameter=float("nan"),
        probability=result.value(model.ctmdp.initial),
        states=model.ctmdp.num_states,
        uniform_rate=result.uniform_rate,
    )


def sweep_cluster_size(
    ns: Sequence[int], t: float = 100.0, epsilon: float = 1e-6
) -> list[SweepPoint]:
    """Worst-case non-premium probability as the cluster grows.

    Larger ``N`` means both more redundancy *required* (premium needs
    ``N`` operational workstations) and more components that can fail;
    the sweep shows which effect wins.
    """
    points = []
    for n in ns:
        point = _worst_case(FTWCParameters(n=n), t, epsilon)
        points.append(replace(point, parameter=float(n)))
    return points


def sweep_repair_speed(
    n: int,
    factors: Sequence[float],
    t: float = 100.0,
    epsilon: float = 1e-6,
) -> list[SweepPoint]:
    """Scale all repair rates by each factor (maintenance capacity)."""
    points = []
    for factor in factors:
        if factor <= 0.0:
            raise ValueError("repair-speed factors must be positive")
        base = FTWCParameters(n=n)
        params = FTWCParameters(
            n=n,
            ws_repair=base.ws_repair * factor,
            sw_repair=base.sw_repair * factor,
            bb_repair=base.bb_repair * factor,
        )
        point = _worst_case(params, t, epsilon)
        points.append(replace(point, parameter=float(factor)))
    return points


def sweep_failure_rate(
    n: int,
    factors: Sequence[float],
    t: float = 100.0,
    epsilon: float = 1e-6,
) -> list[SweepPoint]:
    """Scale all failure rates by each factor (component quality)."""
    points = []
    for factor in factors:
        if factor <= 0.0:
            raise ValueError("failure-rate factors must be positive")
        base = FTWCParameters(n=n)
        params = FTWCParameters(
            n=n,
            ws_fail=base.ws_fail * factor,
            sw_fail=base.sw_fail * factor,
            bb_fail=base.bb_fail * factor,
        )
        point = _worst_case(params, t, epsilon)
        points.append(replace(point, parameter=float(factor)))
    return points
