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
* **System**: built station-first.  Starting from the repair station,
  each component kind joins in turn: its cluster (the ``n`` interleaved
  workstation blocks of one side, or the single switch/backbone block)
  is composed on the kind's grab/repair/release actions, which are
  hidden at once, the states maximal progress made unreachable are
  pruned, and the result is minimised.  Workstations of one side share
  their type-level action names, so the station synchronises with
  whichever failed replica moves -- the repair-unit nondeterminism of
  the paper.  Each kind's actions are shared only by the station and
  that kind's blocks, so this equals interleaving everything and
  composing the station last (the interleave-all order, kept as a test
  oracle) while every intermediate stays small.

Per-state *operation counts* are threaded through composition and
minimisation so the premium-service predicate of [13] survives all
reductions.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from repro.models.ftwc_direct import FTWCParameters

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
    """The closed FTWC uIMC with its per-state premium flags.

    ``peak_states`` is the largest parallel product the build formed
    before reducing it: the size of its largest intermediate state space.
    """

    imc: IMC
    premium_flags: list[bool]
    peak_states: int


def build_system_imc(
    n: int,
    params: FTWCParameters | None = None,
    minimize_intermediate: bool = True,
) -> SystemIMC:
    """Compose the full FTWC as a closed uniform IMC, station first.

    Starts from the repair station and adds one component kind at a
    time: the kind's cluster (``n`` interleaved workstation blocks, or a
    single switch/backbone block) is composed with the system on the
    kind's ``g_``/``rep_``/``r_`` actions, and those three actions are
    hidden at once -- no later component uses them.  The states that
    maximal progress has made unreachable are pruned, and the result is
    minimised.  A final quotient seeded with the premium predicate closes
    the build.

    Composing on the kind's own actions equals the paper's
    interleave-everything-then-synchronise recipe, because each kind's
    actions are shared only by the station and that kind's blocks, and
    hiding commutes with composition over actions the other operand does
    not use.  Branching bisimulation is a congruence for both operators,
    so every intermediate quotient is sound; a ``tau``-unstable state
    never takes its Markov transitions in any context, so pruned states
    stay unreachable in every later composition.

    With ``minimize_intermediate`` every intermediate model is quotiented
    (the classical compositional minimisation principle); without it the
    intermediate state spaces grow quickly -- the ablation benchmark
    measures exactly this effect.  Hiding and pruning happen either way.
    """
    params = params or FTWCParameters(n=n)
    if params.n != n:
        raise ModelError("n argument and params.n disagree")
    peak = 0

    def maybe_minimize(model: LabeledIMC) -> LabeledIMC:
        return model.minimize() if minimize_intermediate else model

    def compose(left: LabeledIMC, right: LabeledIMC, sync: list[str]) -> LabeledIMC:
        nonlocal peak
        product = left.parallel(right, sync=sync)
        peak = max(peak, product.imc.num_states)
        return product

    def cluster(kind: str) -> LabeledIMC:
        block = component_block(
            kind, params.fail_rate(kind), minimize=minimize_intermediate
        )
        replicas = n if kind in ("wsL", "wsR") else 1
        result = block
        for _ in range(1, replicas):
            result = maybe_minimize(compose(result, block, []))
        return result

    system = repair_station(params)
    for kind in _OBS_KINDS:
        alphabet = [f"g_{kind}", f"rep_{kind}", f"r_{kind}"]
        system = compose(system, cluster(kind), alphabet).hide(alphabet)
        system = maybe_minimize(system.restricted_to_reachable())

    # Final quotient: only the premium predicate needs to survive now.
    quality = [premium_from_obs(obs, n) for obs in system.observations]
    quotient, partition = branching_minimize(system.imc, labels=quality)
    return SystemIMC(
        imc=quotient,
        premium_flags=map_labels_through(partition, quality),
        peak_states=peak,
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

    Reaches the paper's ``N = 14`` (CADP's limit in Section 5) in
    seconds; the direct generator covers larger ``N``.  The two routes
    agree within 1e-12 relative up to ``N = 12``, the largest size the
    test suite checks.
    """
    params = params or FTWCParameters(n=n)
    system = build_system_imc(n, params, minimize_intermediate)
    result = imc_to_ctmdp(system.imc, require_uniform=True)
    flags = system.premium_flags
    goal = result.goal_mask_from_predicate(lambda s: not flags[s], via="markov")
    return FTWCCompositional(
        system=system, transform=result, goal_mask=goal, params=params
    )
