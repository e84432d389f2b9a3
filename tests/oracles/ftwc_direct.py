"""Oracle for :mod:`repro.models.ftwc_direct`: the ``Config``-object generator.

Production code encodes each configuration as one mixed-radix integer,
fills a successor table per code with numpy, numbers the reachable codes
in one integer pass and builds the CSR arrays directly.  This oracle is
the generator it replaced: a depth-first exploration over frozen
:class:`~repro.models.ftwc_direct.Config` objects, the exponential race
out of each configuration as a ``{target: rate}`` dictionary, and the
models built through ``CTMDP.from_transitions`` /
``CTMC.from_transitions``.  The production builders must return its
models bitwise: the same state numbering, rows, entries, rate bits,
goal mask, state names and configurations.  The state names and the
goal predicate are kept here in their per-configuration form too.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.ctmdp import CTMDP
from repro.ctmc.model import CTMC
from repro.errors import ModelError
from repro.models.ftwc_direct import IDLE, Config, FTWCParameters, uniform_rate


def with_repairing(config: Config, kind: str) -> Config:
    """Attach the repair unit to ``kind``."""
    return Config(config.failed_left, config.failed_right, config.sw_left_down,
                  config.sw_right_down, config.bb_down, kind)


def after_failure(config: Config, kind: str) -> Config:
    """Configuration after one more component of ``kind`` fails."""
    return Config(
        config.failed_left + (kind == "wsL"),
        config.failed_right + (kind == "wsR"),
        config.sw_left_down or kind == "swL",
        config.sw_right_down or kind == "swR",
        config.bb_down or kind == "bb",
        config.repairing,
    )


def after_repair(config: Config) -> Config:
    """Configuration after the running repair completes (unit released)."""
    kind = config.repairing
    return Config(
        config.failed_left - (kind == "wsL"),
        config.failed_right - (kind == "wsR"),
        config.sw_left_down and kind != "swL",
        config.sw_right_down and kind != "swR",
        config.bb_down and kind != "bb",
        IDLE,
    )


def describe(config: Config) -> str:
    """Compact human-readable rendering, the state name of ``config``."""
    ru = config.repairing or "idle"
    return (
        f"fL={config.failed_left},fR={config.failed_right},"
        f"swL={'down' if config.sw_left_down else 'up'},"
        f"swR={'down' if config.sw_right_down else 'up'},"
        f"bb={'down' if config.bb_down else 'up'},ru={ru}"
    )


def premium(config: Config, n: int, threshold: int | None = None) -> bool:
    """Quality-of-service predicate of [13], one configuration at a time."""
    need = n if threshold is None else threshold
    if not 0 < need <= 2 * n:
        raise ModelError(f"quality threshold must lie in 1..{2 * n}, got {need}")
    op_left = n - config.failed_left
    op_right = n - config.failed_right
    sw_left = not config.sw_left_down
    sw_right = not config.sw_right_down
    bb = not config.bb_down
    if sw_left and op_left >= need:
        return True
    if sw_right and op_right >= need:
        return True
    return sw_left and sw_right and bb and op_left + op_right >= need


def race(config: Config, params: FTWCParameters, total: float) -> dict[Config, float]:
    """Rate function of the exponential race out of ``config``.

    Precondition: ``config`` is not a decision point.  The self-loop
    padding tops the exit rate up to the uniform rate ``total``.
    """
    n = params.n
    rates: dict[Config, float] = {}

    def add(target: Config, rate: float) -> None:
        if rate > 0.0:
            rates[target] = rates.get(target, 0.0) + rate

    add(after_failure(config, "wsL"), (n - config.failed_left) * params.ws_fail)
    add(after_failure(config, "wsR"), (n - config.failed_right) * params.ws_fail)
    if not config.sw_left_down:
        add(after_failure(config, "swL"), params.sw_fail)
    if not config.sw_right_down:
        add(after_failure(config, "swR"), params.sw_fail)
    if not config.bb_down:
        add(after_failure(config, "bb"), params.bb_fail)
    if config.repairing:
        add(after_repair(config), params.repair_rate(config.repairing))

    padding = total - math.fsum(rates.values())
    add(config, padding)
    return rates


def explore(
    params: FTWCParameters, racing_decisions: bool = False
) -> tuple[list[Config], dict[Config, int]]:
    """Enumerate all configurations reachable from the fully-up cluster.

    Depth first from a LIFO stack, numbering each configuration when it
    is first seen.  With ``racing_decisions`` the decision points
    additionally spawn their failure successors (the CTMC variant, where
    the failure clocks race against the assignment delay).
    """
    start = Config(0, 0, False, False, False, IDLE)
    index: dict[Config, int] = {start: 0}
    order: list[Config] = [start]
    total = uniform_rate(params)
    frontier = [start]
    while frontier:
        config = frontier.pop()
        successors: list[Config] = []
        if config.is_decision_point():
            for kind in config.failed_kinds():
                successors.extend(race(with_repairing(config, kind), params, total))
            if racing_decisions:
                successors.extend(race(config, params, total))
        else:
            successors.extend(race(config, params, total))
        for target in successors:
            if target not in index:
                index[target] = len(order)
                order.append(target)
                frontier.append(target)
    return order, index


def build_ctmdp(
    n: int,
    params: FTWCParameters | None = None,
    quality_threshold: int | None = None,
) -> tuple[CTMDP, list[Config], np.ndarray]:
    """The uniform CTMDP, its configurations and goal mask."""
    params = params or FTWCParameters(n=n)
    if params.n != n:
        raise ModelError("n argument and params.n disagree")
    total = uniform_rate(params)
    order, index = explore(params)

    transitions: list[tuple[int, str, dict[int, float]]] = []
    for config in order:
        src = index[config]
        if config.is_decision_point():
            for kind in config.failed_kinds():
                rates = race(with_repairing(config, kind), params, total)
                transitions.append(
                    (src, f"g_{kind}", {index[c]: r for c, r in rates.items()})
                )
        else:
            rates = race(config, params, total)
            transitions.append((src, "tau", {index[c]: r for c, r in rates.items()}))

    ctmdp = CTMDP.from_transitions(
        num_states=len(order),
        transitions=transitions,
        initial=0,
        state_names=[describe(c) for c in order],
    )
    goal = np.array(
        [not premium(c, n, quality_threshold) for c in order], dtype=bool
    )
    return ctmdp, order, goal


def build_ctmc(
    n: int,
    params: FTWCParameters | None = None,
    gamma: float = 10.0,
    quality_threshold: int | None = None,
) -> tuple[CTMC, list[Config], np.ndarray]:
    """The Γ-raced CTMC of [13], its configurations and goal mask."""
    params = params or FTWCParameters(n=n)
    if params.n != n:
        raise ModelError("n argument and params.n disagree")
    if gamma <= 0.0:
        raise ModelError("gamma must be positive")
    total = uniform_rate(params)
    order, index = explore(params, racing_decisions=True)

    transitions: list[tuple[int, int, float]] = []
    for config in order:
        src = index[config]
        if config.is_decision_point():
            for kind in config.failed_kinds():
                transitions.append((src, index[with_repairing(config, kind)], gamma))
        for target, rate in race(config, params, total).items():
            if target != config:  # drop the uniformisation self-loop
                transitions.append((src, index[target], rate))

    chain = CTMC.from_transitions(len(order), transitions, initial=0)
    goal = np.array(
        [not premium(c, n, quality_threshold) for c in order], dtype=bool
    )
    return chain, order, goal
