"""Compositional construction of the fault-tolerant workstation cluster.

This module is the paper's Section 5 trajectory in code: component LTSs
are enriched with elapse-based time constraints, composed in parallel,
hidden and minimised -- every step preserving uniformity -- until the
closed system model of the FTWC emerges as a uniform IMC, ready for the
strictly-alternating transformation.

Architecture (one deliberate deviation from the paper's prose is
documented below):

* **Component LTS** (Figure 2 right): ``up --fail--> failed --grab-->
  in_repair --repair--> repaired --release--> up``.
* **Failure time constraint**: ``El(Exp(lambda_fail), fail, release)``,
  started armed (components are initially operational).  Composed with
  the component on ``{fail, release}`` and the ``fail`` action is hidden
  inside the block, as in the paper.
* **Repair timing**: the paper's prose attaches ``El(Exp(mu), repair,
  grab)`` to every component, which would make every repair clock tick
  at all times and drive the uniform rate to ``E ~ 4N``; the iteration
  counts of Table 1 however imply ``E(N) = 2 + 0.004 N + 0.0007`` -- a
  *single* repair clock at the fastest repair rate.  We therefore model
  the repair unit and the repair delays as one shared *timed repair
  station*: a uniform IMC of rate ``mu_max`` that is grabbed per
  component kind, completes the repair with the kind's rate (padded by
  a uniformisation self-loop), then performs ``repair`` and ``release``.
  This is stochastically equivalent (repairs are sequential anyway, and
  exponential clocks are memoryless) and reproduces the paper's uniform
  rates exactly.  See DESIGN.md for the full argument.
* **System**: per-kind blocks are interleaved (workstations of one side
  share their type-level action names, so the station synchronises with
  whichever failed replica moves -- the repair-unit nondeterminism of
  the paper), the station is composed on the grab/repair/release
  alphabet, everything is hidden, and the result is minimised.

Per-state *operation counts* are threaded through composition and
minimisation so the premium-service predicate of [13] survives all
reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.bisim.branching import branching_minimize
from repro.bisim.quotient import map_labels_through
from repro.ctmc.phase_type import PhaseType
from repro.errors import ModelError
from repro.imc.elapse import elapse
from repro.imc.labeled import LabeledIMC
from repro.imc.lts import lts
from repro.imc.model import IMC
from repro.imc.transform import TransformResult, imc_to_ctmdp
from repro.models.ftwc_direct import FTWCParameters, premium

__all__ = [
    "LabeledIMC",
    "component_lts",
    "repair_station",
    "component_block",
    "build_system_imc",
    "build_compositional",
    "FTWCCompositional",
]

#: Index of each count in the observation tuple: operational left/right
#: workstations, left/right switch, backbone.
_OBS_KINDS = ("wsL", "wsR", "swL", "swR", "bb")


def _zero_obs() -> tuple[int, ...]:
    return (0,) * len(_OBS_KINDS)


def _unit_obs(kind: str) -> tuple[int, ...]:
    obs = [0] * len(_OBS_KINDS)
    obs[_OBS_KINDS.index(kind)] = 1
    return tuple(obs)


def component_lts(kind: str) -> LabeledIMC:
    """The behavioural skeleton of one component (Figure 2 right).

    Actions are type-level (``fail`` stays local to the block; ``g_*``,
    ``rep_*`` and ``r_*`` synchronise with the repair station).  The
    observation is 1 in the component's slot while it is operational.
    """
    names = ["up", "failed", "in_repair", "repaired"]
    model = lts(
        4,
        [
            (0, "fail", 1),
            (1, f"g_{kind}", 2),
            (2, f"rep_{kind}", 3),
            (3, f"r_{kind}", 0),
        ],
        initial=0,
        state_names=[f"{kind}:{name}" for name in names],
    )
    observations = [_unit_obs(kind), _zero_obs(), _zero_obs(), _zero_obs()]
    return LabeledIMC(imc=model, observations=observations)


def failure_constraint(kind: str, rate: float) -> LabeledIMC:
    """``El(Exp(rate), fail, r_kind)``: the component's failure clock.

    Started armed; re-armed by the component's release.  Contributes its
    rate to the uniform rate of every composition it enters (Lemma 2).
    """
    constraint = elapse(PhaseType.exponential(rate), fire="fail", reset=f"r_{kind}")
    return LabeledIMC.constant(constraint, _zero_obs())


def repair_station(params: FTWCParameters) -> LabeledIMC:
    """The shared timed repair station: one uniform clock at rate ``mu_max``.

    States: ``idle`` and, per kind, ``busy`` (repair running at the
    kind's rate, padded to ``mu_max`` by a self-loop), ``done`` (repair
    delay elapsed, the ``rep_kind`` action synchronises the component's
    repair) and ``releasing`` (hands the unit back via ``r_kind``).
    All stable states tick at ``mu_max``, so the station is a uniform
    IMC of rate ``mu_max``.
    """
    mu_max = params.mu_max
    names = ["ru:idle"]
    interactive: list[tuple[int, str, int]] = []
    markov: list[tuple[int, float, int]] = [(0, mu_max, 0)]
    for kind in _OBS_KINDS:
        busy = len(names)
        names.extend([f"ru:busy_{kind}", f"ru:done_{kind}", f"ru:releasing_{kind}"])
        done, releasing = busy + 1, busy + 2
        interactive.append((0, f"g_{kind}", busy))
        mu = params.repair_rate(kind)
        markov.append((busy, mu, done))
        if mu_max - mu > 0.0:
            markov.append((busy, mu_max - mu, busy))
        markov.append((done, mu_max, done))
        interactive.append((done, f"rep_{kind}", releasing))
        markov.append((releasing, mu_max, releasing))
        interactive.append((releasing, f"r_{kind}", 0))
    model = IMC(
        num_states=len(names),
        interactive=interactive,
        markov=markov,
        initial=0,
        state_names=names,
    )
    return LabeledIMC.constant(model, _zero_obs())


def component_block(kind: str, fail_rate: float, minimize: bool = True) -> LabeledIMC:
    """One component with its failure time constraint, ``fail`` hidden.

    ``block = hide fail in (LTS |[{fail, r_kind}]| El(Exp(l), fail, r_kind))``
    """
    component = component_lts(kind)
    clock = failure_constraint(kind, fail_rate)
    block = component.parallel(clock, sync=["fail", f"r_{kind}"])
    block = block.hide(["fail"])
    if minimize:
        block = block.minimize()
    return block


@dataclass
class SystemIMC:
    """The closed FTWC uIMC with its per-state premium flags."""

    imc: IMC
    premium_flags: list[bool]


def build_system_imc(
    n: int,
    params: FTWCParameters | None = None,
    minimize_intermediate: bool = True,
) -> SystemIMC:
    """Compose the full FTWC as a closed uniform IMC.

    Follows the paper's recipe: per-component blocks (interleaved;
    replicas of one kind share type-level action names), the repair
    station synchronised on the grab/repair/release alphabet, full
    hiding, and a final minimisation seeded with the premium predicate.

    With ``minimize_intermediate`` every intermediate composition is
    quotiented (the classical compositional minimisation principle);
    without it the intermediate state spaces grow quickly -- the
    ablation benchmark measures exactly this effect.
    """
    params = params or FTWCParameters(n=n)
    if params.n != n:
        raise ModelError("n argument and params.n disagree")

    def maybe_minimize(model: LabeledIMC) -> LabeledIMC:
        return model.minimize() if minimize_intermediate else model

    # Interleave the workstation replicas of each side.
    def cluster(kind: str) -> LabeledIMC:
        block = component_block(
            kind, params.fail_rate(kind), minimize=minimize_intermediate
        )
        result = block
        for _ in range(1, n):
            result = maybe_minimize(result.parallel(block, sync=[]))
        return result

    system = maybe_minimize(cluster("wsL").parallel(cluster("wsR"), sync=[]))
    for kind in ("swL", "swR", "bb"):
        block = component_block(
            kind, params.fail_rate(kind), minimize=minimize_intermediate
        )
        system = maybe_minimize(system.parallel(block, sync=[]))

    station = repair_station(params)
    sync = [f"{prefix}_{kind}" for kind in _OBS_KINDS for prefix in ("g", "rep", "r")]
    system = station.parallel(system, sync=sync)

    closed = system.hide_all_but()
    # Final quotient: only the premium predicate needs to survive now.
    quality = [premium_from_obs(obs, n) for obs in closed.observations]
    quotient, partition = branching_minimize(closed.imc, labels=quality)
    return SystemIMC(
        imc=quotient, premium_flags=map_labels_through(partition, quality)
    )


def premium_from_obs(obs: tuple[int, ...], n: int) -> bool:
    """Premium predicate of [13] over an observation tuple."""
    op_left, op_right, sw_left, sw_right, bb = obs
    if sw_left and op_left >= n:
        return True
    if sw_right and op_right >= n:
        return True
    return bool(sw_left and sw_right and bb and op_left + op_right >= n)


@dataclass
class FTWCCompositional:
    """The compositional FTWC: closed uIMC, transformed CTMDP, goal set."""

    system: SystemIMC
    transform: TransformResult
    goal_mask: np.ndarray
    params: FTWCParameters

    @property
    def ctmdp(self):
        """The analysed uniform CTMDP."""
        return self.transform.ctmdp


def build_compositional(
    n: int,
    params: FTWCParameters | None = None,
    minimize_intermediate: bool = True,
) -> FTWCCompositional:
    """Full compositional pipeline: compose, minimise, transform.

    Practical for small ``n`` (the paper reaches ``N = 14`` with CADP's
    optimised C implementation; the pure-Python route is intended for
    ``N <= 4``, which suffices to cross-validate the direct generator).
    """
    params = params or FTWCParameters(n=n)
    system = build_system_imc(n, params, minimize_intermediate)
    result = imc_to_ctmdp(system.imc, require_uniform=True)
    flags = system.premium_flags
    goal = result.goal_mask_from_predicate(lambda s: not flags[s], via="markov")
    return FTWCCompositional(
        system=system, transform=result, goal_mask=goal, params=params
    )
