"""Experiment harness regenerating every table and figure of the paper.

* :func:`table1_row` -- one row of Table 1: model sizes,
  memory, transformation/generation time, analysis runtime and iteration
  counts for time bounds of 100 h and 30000 h at precision 1e-6.
* :func:`figure4_curves` -- one panel of Figure 4: worst-case
  CTMDP probabilities versus the probabilities of the CTMC
  approximation of [13], over a sweep of time bounds.
* :func:`compositional_row` -- the "Technicalities" paragraph of
  Section 5: state-space sizes along the compositional route.

All entry points return plain dataclasses; rendering to the paper's
table layout lives in :mod:`repro.analysis.tables`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.stats import AlternatingStatistics, ctmdp_alternating_statistics
from repro.core.reachability import PreparedTimedReachability, timed_reachability
from repro.ctmc.reachability import timed_reachability_curve
from repro.engine import Query, QueryEngine
from repro.models import ftwc, ftwc_direct
from repro.numerics.foxglynn import poisson_right_truncation

__all__ = [
    "Table1Row",
    "table1_row",
    "Figure4Curves",
    "figure4_curves",
    "CompositionalRow",
    "compositional_row",
    "PAPER_TABLE1",
]

#: The paper's Table 1, for side-by-side comparison in EXPERIMENTS.md:
#: N -> (interactive states, Markov states, interactive transitions,
#:       Markov transitions, iterations at 100 h, iterations at 30000 h).
PAPER_TABLE1: dict[int, tuple[int, int, int, int, int, int]] = {
    1: (110, 81, 155, 324, 372, 62161),
    2: (274, 205, 403, 920, 372, 62284),
    4: (818, 621, 1235, 3000, 373, 62528),
    8: (2770, 2125, 4243, 10712, 375, 63016),
    16: (10130, 7821, 15635, 40344, 378, 63993),
    32: (38674, 29965, 59923, 156440, 384, 65945),
    64: (151058, 117261, 234515, 615960, 397, 69849),
    128: (597010, 463885, 927763, 2444312, 423, 77651),
}


@dataclass
class Table1Row:
    """One row of Table 1 (our reproduction).

    ``runtime_seconds`` and ``probability`` hold one entry per analysed
    time bound; ``iterations`` additionally holds predicted iteration
    counts for bounds that were not solved (they only depend on
    ``E * t``, not on the model size).
    """

    n: int
    stats: AlternatingStatistics
    generation_seconds: float
    uniform_rate: float
    time_bounds: tuple[float, ...]
    iterations: dict[float, int] = field(default_factory=dict)
    runtime_seconds: dict[float, float] = field(default_factory=dict)
    probability: dict[float, float] = field(default_factory=dict)


def table1_row(
    n: int,
    time_bounds: tuple[float, ...] = (100.0, 30000.0),
    solve_bounds: tuple[float, ...] | None = None,
    epsilon: float = 1e-6,
    engine: QueryEngine | None = None,
) -> Table1Row:
    """Generate the FTWC for ``n`` and analyse it per Table 1.

    Parameters
    ----------
    n:
        Workstations per sub-cluster.
    time_bounds:
        Bounds for which iteration counts are reported (predicted via
        the Fox-Glynn truncation point; this is exact and cheap).
    solve_bounds:
        Bounds for which the value iteration is actually run (runtime
        and probability columns).  Defaults to all of ``time_bounds``;
        pass a subset to skip the long horizons for large ``n`` -- the
        paper's N=128/30000 h cell took almost six hours on the authors'
        machine; here it takes about 26 s (77,323 steps on a 2-vCPU VM)
        after a 2.5 s model build.
    epsilon:
        Truncation precision (the paper uses 1e-6).
    engine:
        Optional :class:`~repro.engine.QueryEngine` to resolve the model
        through, so repeated rows (or a warm registry) skip
        construction entirely.  A private memory-only engine is created
        when omitted.  The solve bounds share one full-state-space
        solver, so the runtime column times Algorithm 1 over every
        state, as the paper did (the engine's own queries sweep only
        the initial state's cone).
    """
    if solve_bounds is None:
        solve_bounds = time_bounds
    engine = engine if engine is not None else QueryEngine()
    spec = {"family": "ftwc", "n": n}
    built = engine.model(spec)
    rate = built.model.uniform_rate()

    row = Table1Row(
        n=n,
        stats=ctmdp_alternating_statistics(built.model),
        generation_seconds=float(built.stats.get("build_seconds", 0.0)),
        uniform_rate=rate,
        time_bounds=tuple(time_bounds),
    )
    for bound in time_bounds:
        row.iterations[bound] = poisson_right_truncation(rate * bound, epsilon)
    solver = PreparedTimedReachability(built.model, built.goal_mask)
    # The certificate imports scipy.special on first use; load it here so
    # the first runtime cell times Algorithm 1, not the import.
    import scipy.special  # noqa: F401

    for bound in solve_bounds:
        started = time.perf_counter()
        result = solver.solve(bound, epsilon)
        row.runtime_seconds[bound] = time.perf_counter() - started
        row.probability[bound] = result.value(built.model.initial)
        row.iterations[bound] = result.iterations
    return row


@dataclass
class Figure4Curves:
    """The curves of one Figure 4 panel."""

    n: int
    time_points: np.ndarray
    ctmdp_max: np.ndarray
    ctmdp_min: np.ndarray | None
    ctmc: np.ndarray
    gamma: float


def figure4_curves(
    n: int,
    time_points: tuple[float, ...] | np.ndarray = tuple(float(t) for t in range(0, 501, 50)),
    gamma: float = 10.0,
    epsilon: float = 1e-6,
    include_min: bool = True,
    engine: QueryEngine | None = None,
) -> Figure4Curves:
    """Worst-case CTMDP vs CTMC probabilities over a time-bound sweep.

    Regenerates one panel of Figure 4.  The paper's headline
    observation -- the CTMC *overestimates* the worst case, exposing the
    modelling flaw of replacing nondeterminism by fast races -- shows as
    ``ctmc >= ctmdp_max`` pointwise.

    All queries run through the batched engine: the CTMDP is built
    exactly once and shared by the sup and inf sweeps (one prepared
    solver per objective, one Fox-Glynn computation per time bound), and
    the CTMC curve reuses the registry-cached chain with the forward
    mass-series optimisation of :func:`timed_reachability_curve`.
    """
    ts = np.asarray(list(time_points), dtype=np.float64)
    engine = engine if engine is not None else QueryEngine()
    spec = {"family": "ftwc", "n": n}
    queries = [Query(model=spec, t=float(t), epsilon=epsilon) for t in ts]
    if include_min:
        queries += [
            Query(model=spec, t=float(t), objective="min", epsilon=epsilon) for t in ts
        ]
    batch = engine.run(queries)
    failed = [result for result in batch.results if result.error is not None]
    if failed:
        raise RuntimeError(f"figure4 query failed: {failed[0].error}")
    values = batch.values()
    ctmdp_max = np.array(values[: len(ts)])
    ctmdp_min = np.array(values[len(ts) :]) if include_min else None
    chain = engine.model({"family": "ftwc-ctmc", "n": n, "gamma": gamma})
    ctmc = timed_reachability_curve(
        chain.model, chain.goal_mask, ts, epsilon=min(epsilon, 1e-8)
    )
    return Figure4Curves(
        n=n, time_points=ts, ctmdp_max=ctmdp_max, ctmdp_min=ctmdp_min, ctmc=ctmc, gamma=gamma
    )


@dataclass
class CompositionalRow:
    """Size statistics of the compositional route (Section 5 technicalities),
    next to the direct generator's CTMDP for the same ``n``."""

    n: int
    peak_states: int
    final_imc_states: int
    final_imc_interactive: int
    final_imc_markov: int
    ctmdp_states: int
    ctmdp_transitions: int
    build_seconds: float
    probability_100h: float
    direct_ctmdp_states: int
    direct_probability_100h: float


def compositional_row(n: int, epsilon: float = 1e-6) -> CompositionalRow:
    """Build the FTWC on both routes and measure the compositional sizes."""
    started = time.perf_counter()
    model = ftwc.build_compositional(n)
    build = time.perf_counter() - started
    result = timed_reachability(model.ctmdp, model.goal_mask, 100.0, epsilon=epsilon)
    direct = ftwc_direct.build_ctmdp(n)
    direct_result = timed_reachability(direct.ctmdp, direct.goal_mask, 100.0, epsilon=epsilon)
    system = model.system.imc
    return CompositionalRow(
        n=n,
        peak_states=model.system.peak_states,
        final_imc_states=system.num_states,
        final_imc_interactive=system.num_interactive_transitions,
        final_imc_markov=system.num_markov_transitions,
        ctmdp_states=model.ctmdp.num_states,
        ctmdp_transitions=model.ctmdp.num_transitions,
        build_seconds=build,
        probability_100h=result.value(model.ctmdp.initial),
        direct_ctmdp_states=direct.ctmdp.num_states,
        direct_probability_100h=direct_result.value(direct.ctmdp.initial),
    )
