"""Sensitivity analysis of the workstation cluster.

Beyond reproducing the paper's single parameterisation, a library user
wants to know which design lever moves the worst-case risk: redundancy
(cluster size), maintenance capacity (repair speed), or component
quality (failure rates).  Each sweep point generates a fresh uniform
CTMDP and runs Algorithm 1; the expected time until premium service is
first lost (best and worst repair policy) complements the probabilities.

Run with::

    python examples/ftwc_sensitivity.py
"""

from repro.analysis.sweeps import (
    sweep_cluster_size,
    sweep_failure_rate,
    sweep_repair_speed,
)
from repro.core import expected_time_analysis
from repro.models.ftwc_direct import build_ctmdp


def show(title: str, points, unit: str) -> None:
    print(title)
    print(f"  {unit:>8s}  {'worst-case P(no premium within 100h)':>38s}")
    for point in points:
        print(f"  {point.parameter:8g}  {point.probability:38.6e}")
    print()


def main() -> None:
    show(
        "=== redundancy: cluster size N (premium needs N workstations) ===",
        sweep_cluster_size((1, 2, 4, 8), t=100.0),
        "N",
    )
    show(
        "=== maintenance capacity: repair-speed factor (N=2) ===",
        sweep_repair_speed(2, (0.25, 0.5, 1.0, 2.0, 4.0), t=100.0),
        "factor",
    )
    show(
        "=== component quality: failure-rate factor (N=2) ===",
        sweep_failure_rate(2, (0.25, 0.5, 1.0, 2.0, 4.0), t=100.0),
        "factor",
    )

    print("=== expected time until premium service is first lost (N=2) ===")
    model = build_ctmdp(2)
    # The goal is the BAD event, so the adversary minimises the hitting
    # time and the best repair policy maximises it.
    soonest = expected_time_analysis(model.ctmdp, model.goal_mask, "min").values
    latest = expected_time_analysis(model.ctmdp, model.goal_mask, "max").values
    start = model.ctmdp.initial
    print(f"  worst repair policy (soonest outage): {soonest[start]:10.1f} h")
    print(f"  best repair policy  (latest outage) : {latest[start]:10.1f} h")


if __name__ == "__main__":
    main()
