"""Optimal schedulers are genuinely time-dependent.

The classic example behind the timed-reachability algorithm of Baier et
al.: from the initial state one may either take a *direct* slow
transition to the goal or a *detour* of two fast transitions.  For very
short deadlines the direct slow jump is the best bet; with more time the
detour's two fast jumps almost surely both fit.  No stationary scheduler
is optimal for all horizons -- Algorithm 1's step-indexed greedy
decisions are.

This example extracts the optimal step-dependent scheduler, shows where
its decision flips, and certifies it: replaying the recorded decisions
through the exact recursion reproduces the computed optimum.

Run with::

    python examples/scheduler_extraction.py
"""

import numpy as np

from repro.core import timed_reachability
from repro.core.reachability import replay_step_scheduler
from repro.ctmc.reachability import timed_reachability as ctmc_reachability
from repro.models.zoo import two_phase_race_ctmdp


def main() -> None:
    ctmdp, goal = two_phase_race_ctmdp(fast=10.0, slow=1.0)
    labels = [t.action for t in ctmdp.transitions_of(0)]

    print("horizon t | sup over schedulers | best stationary | first decision")
    print("-" * 72)
    direct = ctmdp.induced_ctmc([labels.index("direct"), 0, 0])
    detour = ctmdp.induced_ctmc([labels.index("detour"), 0, 0])
    for t in (0.01, 0.05, 0.2, 0.5, 1.0, 2.0):
        result = timed_reachability(ctmdp, goal, t, epsilon=1e-10, record_scheduler=True)
        stationary = max(
            ctmc_reachability(direct, [2], t, epsilon=1e-12).values[0],
            ctmc_reachability(detour, [2], t, epsilon=1e-12).values[0],
        )
        first_choice = labels[result.decisions[0][0]]
        print(
            f"{t:9.2f} | {result.value(0):19.8f} | {stationary:15.8f} | {first_choice}"
        )

    # Inspect where the decision flips along the step index for one horizon.
    t = 0.5
    result = timed_reachability(ctmdp, goal, t, epsilon=1e-10, record_scheduler=True)
    choices = result.decisions[:, 0]
    flips = np.flatnonzero(np.diff(choices)) + 1
    print(
        f"\nAt t = {t}: {result.iterations} decision epochs, choice flips at "
        f"step(s) {flips.tolist()} (0-indexed jumps made so far)."
    )
    print(
        f"Early jumps pick {labels[choices[0]]!r}; once only a few Poisson "
        f"steps remain the scheduler switches to {labels[choices[-1]]!r}."
    )

    # Certify the extracted scheduler: its exact value is the optimum.
    replayed = replay_step_scheduler(ctmdp, goal, t, result.decisions, epsilon=1e-10)
    print(
        f"\nReplaying the extracted scheduler: {replayed.value(0):.15f} "
        f"(certified error bound {replayed.certificate.error_bound:.1e})."
    )
    print(f"Equal to the analytic optimum: {replayed.value(0) == result.value(0)}")


if __name__ == "__main__":
    main()
