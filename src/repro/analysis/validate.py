"""Installation self-check: run the cross-validations end to end.

``repro selfcheck`` executes the independent-implementation agreements
that give the reproduction its credibility, at smoke-test scale:

1. Algorithm 1 against closed-form answers (exponential / Erlang);
2. Algorithm 1 against the CTMC solver on a single-action model;
3. the compositional FTWC route against the direct generator (values
   *and* strong bisimilarity of the CTMDPs);
4. the Figure 4 relationship (CTMC overestimates the worst case);
5. Monte-Carlo simulation of the untransformed IMC inside the
   transformed model's [inf, sup] envelope;
6. Fox-Glynn weights against direct pmf evaluation.

Each check returns pass/fail with a one-line summary; any failure means
the installation (or a modification) broke a core invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["CheckOutcome", "run_selfcheck"]


@dataclass(frozen=True)
class CheckOutcome:
    """Result of one self-check."""

    name: str
    passed: bool
    detail: str


def _check_closed_forms() -> CheckOutcome:
    from repro.core.ctmdp import CTMDP
    from repro.core.reachability import timed_reachability

    ctmdp = CTMDP.from_transitions(2, [(0, "a", {1: 3.0}), (1, "a", {1: 3.0})])
    value = timed_reachability(ctmdp, [1], 1.0, epsilon=1e-10).value(0)
    expected = 1.0 - math.exp(-3.0)
    passed = abs(value - expected) < 1e-8
    return CheckOutcome(
        name="closed-form exponential",
        passed=passed,
        detail=f"computed {value:.10f}, expected {expected:.10f}",
    )


def _check_ctmc_agreement() -> CheckOutcome:
    from repro.core.reachability import timed_reachability
    from repro.ctmc.reachability import timed_reachability as ctmc_reachability
    from repro.models.zoo import two_phase_race_ctmdp

    ctmdp, goal = two_phase_race_ctmdp()
    chain = ctmdp.induced_ctmc([0, 0, 0])
    t = 0.4
    mdp_value = float(
        np.max(
            [
                ctmc_reachability(chain, goal, t, epsilon=1e-12).values[0],
                ctmc_reachability(
                    ctmdp.induced_ctmc([1, 0, 0]), goal, t, epsilon=1e-12
                ).values[0],
            ]
        )
    )
    sup = timed_reachability(ctmdp, goal, t, epsilon=1e-10).value(0)
    passed = sup >= mdp_value - 1e-9
    return CheckOutcome(
        name="CTMDP sup dominates stationary schedulers",
        passed=passed,
        detail=f"sup {sup:.8f} vs best stationary {mdp_value:.8f}",
    )


def _check_routes_agree() -> CheckOutcome:
    from repro.bisim.ctmdp_bisim import ctmdp_equivalent
    from repro.core.reachability import timed_reachability
    from repro.models.ftwc import build_compositional
    from repro.models.ftwc_direct import build_ctmdp

    comp = build_compositional(1)
    direct = build_ctmdp(1)
    value_comp = timed_reachability(comp.ctmdp, comp.goal_mask, 100.0, epsilon=1e-8).value(
        comp.ctmdp.initial
    )
    value_direct = timed_reachability(
        direct.ctmdp, direct.goal_mask, 100.0, epsilon=1e-8
    ).value(direct.ctmdp.initial)
    values_match = abs(value_comp - value_direct) < 1e-10
    bisimilar = ctmdp_equivalent(
        comp.ctmdp,
        direct.ctmdp,
        comp.goal_mask.tolist(),
        direct.goal_mask.tolist(),
        respect_actions=False,
    )
    return CheckOutcome(
        name="compositional route = direct generator (FTWC N=1)",
        passed=values_match and bisimilar,
        detail=(
            f"values {value_comp:.3e} / {value_direct:.3e}, "
            f"strongly bisimilar: {bisimilar}"
        ),
    )


def _check_figure4_relationship() -> CheckOutcome:
    from repro.core.reachability import timed_reachability
    from repro.ctmc.reachability import timed_reachability as ctmc_reachability
    from repro.models.ftwc_direct import build_ctmc, build_ctmdp

    model = build_ctmdp(1)
    chain, _configs, goal = build_ctmc(1, gamma=10.0)
    t = 100.0
    sup = timed_reachability(model.ctmdp, model.goal_mask, t, epsilon=1e-8).value(0)
    approx = float(ctmc_reachability(chain, goal, t, epsilon=1e-10).values[0])
    return CheckOutcome(
        name="CTMC overestimates the worst case (Figure 4)",
        passed=approx > sup,
        detail=f"CTMC {approx:.6e} > sup {sup:.6e}",
    )


def _check_simulation_envelope() -> CheckOutcome:
    from repro.core.reachability import timed_reachability
    from repro.imc.model import IMCBuilder
    from repro.imc.transform import imc_to_ctmdp
    from repro.sim.imc_sim import random_resolver, simulate_imc_reachability

    builder = IMCBuilder()
    start = builder.state("start")
    choice = builder.state("choice")
    fast = builder.state("fast")
    slow = builder.state("slow")
    goal_state = builder.state("goal")
    builder.markov(start, 4.0, choice)
    builder.tau(choice, fast)
    builder.tau(choice, slow)
    builder.markov(fast, 4.0, goal_state)
    builder.markov(slow, 1.0, goal_state)
    builder.markov(slow, 3.0, start)
    builder.tau(goal_state, start)
    imc = builder.build(initial=start)

    result = imc_to_ctmdp(imc, require_uniform=True)
    mask = result.goal_mask_from_predicate(lambda s: s == goal_state, via="interactive")
    t = 0.8
    sup = timed_reachability(result.ctmdp, mask, t, epsilon=1e-9).value(result.ctmdp.initial)
    inf = timed_reachability(
        result.ctmdp, mask, t, epsilon=1e-9, objective="min"
    ).value(result.ctmdp.initial)
    rng = np.random.default_rng(2007)
    estimate = simulate_imc_reachability(
        imc, {goal_state}, t, resolver=random_resolver(rng), runs=4000, rng=rng
    )
    low, high = estimate.confidence_interval(z=4.0)
    passed = low <= sup + 1e-9 and high >= inf - 1e-9
    return CheckOutcome(
        name="IMC simulation inside [inf, sup] envelope (Theorem 1)",
        passed=passed,
        detail=f"simulated {estimate.probability:.4f} in [{inf:.4f}, {sup:.4f}]",
    )


def _check_fox_glynn() -> CheckOutcome:
    from repro.numerics.foxglynn import fox_glynn, poisson_pmf

    fg = fox_glynn(200.0, 1e-10)
    sample = range(fg.left, fg.right + 1, 25)
    error = max(abs(fg.probability(i) - poisson_pmf(i, 200.0)) for i in sample)
    return CheckOutcome(
        name="Fox-Glynn weights vs direct pmf",
        passed=error < 1e-12,
        detail=f"max abs deviation {error:.2e}",
    )


_CHECKS: list[Callable[[], CheckOutcome]] = [
    _check_closed_forms,
    _check_ctmc_agreement,
    _check_routes_agree,
    _check_figure4_relationship,
    _check_simulation_envelope,
    _check_fox_glynn,
]


def run_selfcheck() -> list[CheckOutcome]:
    """Run every self-check; a raising check counts as failed."""
    outcomes: list[CheckOutcome] = []
    for check_fn in _CHECKS:
        try:
            outcomes.append(check_fn())
        except Exception as error:  # noqa: BLE001 - report, do not crash
            outcomes.append(
                CheckOutcome(
                    name=check_fn.__name__.removeprefix("_check_"),
                    passed=False,
                    detail=f"raised {type(error).__name__}: {error}",
                )
            )
    return outcomes
