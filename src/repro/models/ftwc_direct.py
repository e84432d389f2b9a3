"""Direct state-space generator for the fault-tolerant workstation cluster.

The paper constructs the FTWC compositionally with CADP for ``N <= 14``
and falls back to PRISM-generated state spaces for larger ``N``; this
module is our analogue of the latter: it enumerates the uniform CTMDP of
the cluster directly over a counting abstraction of the configuration
space, which is sound because workstations within one sub-cluster are
fully symmetric (the compositional route merges them by bisimulation
anyway -- the test suite verifies that both routes yield identical
reachability probabilities for small ``N``).

System recap (Section 5 / Figure 1): two sub-clusters of ``N``
workstations each, connected through one switch per side and a backbone;
every component fails and is repaired with exponentially distributed
delays; a *single* repair unit serves one failed component at a time,
and the assignment of the repair unit to a failed component is the
nondeterministic decision of the model.

Configurations
--------------
A configuration records ``(failed_left, failed_right, switch_left_down,
switch_right_down, backbone_down, repairing)`` where the counts include
a component currently under repair and ``repairing`` names the component
kind the repair unit is attached to (or none).  A configuration is a
*decision point* iff the repair unit is idle although failed components
exist; there the scheduler picks a ``grab`` action per failed kind.  All
other configurations carry a single internal transition whose rate
function is the exponential race between failures, the running repair,
and the uniformisation self-loop.

Uniformity by construction
--------------------------
Every rate function has total rate ``E(N) = mu_max + 2N*lf_ws +
2*lf_sw + lf_bb``: each component's failure clock ticks at its failure
rate at all times (clocks of failed components contribute to the
self-loop), and the shared repair clock ticks at the fastest repair
rate ``mu_max`` (slower repairs are padded with self-loop rate, exactly
Jensen's uniformization).  This mirrors the elapse-based compositional
construction and reproduces the uniform rates implied by the iteration
counts of Table 1.

Generation
----------
A configuration is built as one mixed-radix integer code,
``((((fl*(N+1) + fr)*2 + swL)*2 + swR)*2 + bb)*6 + unit``, so ``(N+1)**2
* 48`` codes cover them all (and some that are not configurations: the
repair unit on a kind that has not failed).  numpy fills the race out of
every code at once, as seven slots of target code and rate: the five
failures, the running repair and the self-loop padding.  One integer
pass then numbers the codes reachable from the all-up cluster, depth
first from a LIFO stack and each at first sight -- the numbering of the
``Config``-object generator this replaced, which the test suite keeps as
its reference -- and the CSR arrays are gathered from the table.  A
build creates no ``Config`` object, and its models are bitwise the
reference's.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.ctmdp import CTMDP
from repro.ctmc.model import CTMC
from repro.errors import ModelError

__all__ = [
    "FTWCParameters",
    "Config",
    "FTWCModel",
    "build_ctmdp",
    "build_ctmc",
    "premium",
    "uniform_rate",
]

#: Component kinds in a fixed order: left/right workstations, left/right
#: switch, backbone.
KINDS = ("wsL", "wsR", "swL", "swR", "bb")

#: The repair unit is idle.
IDLE = ""

#: Positions of the repair unit, in code order: idle, then ``KINDS``.
_UNIT = (IDLE, *KINDS)

#: Row labels by choice column: one grab per kind, then the race.
_LABELS = np.array([f"g_{kind}" for kind in KINDS] + ["tau"], dtype=object)

#: Slots of a race, in the order the exponential race lists its
#: targets: one failure per kind, the running repair, the self-loop.
_REPAIR, _SELF = len(KINDS), len(KINDS) + 1

#: Configurations that differ only in the two failed counts share the
#: low code digits ``((swL*2 + swR)*2 + bb)*6 + unit``.
_LOW = 48

#: State-name tail ``swL=..,swR=..,bb=..,ru=..`` per low code digit.
_TAIL = tuple(
    f"swL={sw_left},swR={sw_right},bb={bb},ru={unit or 'idle'}"
    for sw_left in ("up", "down")
    for sw_right in ("up", "down")
    for bb in ("up", "down")
    for unit in _UNIT
)


@dataclass(frozen=True)
class FTWCParameters:
    """Failure and repair rates of the FTWC (defaults from [13] / PRISM).

    Mean times: workstations fail every 500 h and take 0.5 h to repair;
    switches 4000 h / 4 h; the backbone 5000 h / 8 h.
    """

    n: int
    ws_fail: float = 1.0 / 500.0
    sw_fail: float = 1.0 / 4000.0
    bb_fail: float = 1.0 / 5000.0
    ws_repair: float = 2.0
    sw_repair: float = 0.25
    bb_repair: float = 0.125

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ModelError("the FTWC needs at least one workstation per sub-cluster")
        for name in ("ws_fail", "sw_fail", "bb_fail", "ws_repair", "sw_repair", "bb_repair"):
            rate = getattr(self, name)
            if not (math.isfinite(rate) and rate > 0.0):
                raise ModelError(f"{name} must be finite and positive, got {rate!r}")

    def fail_rate(self, kind: str) -> float:
        """Failure rate of one component of ``kind``."""
        return {"wsL": self.ws_fail, "wsR": self.ws_fail, "swL": self.sw_fail,
                "swR": self.sw_fail, "bb": self.bb_fail}[kind]

    def repair_rate(self, kind: str) -> float:
        """Repair rate of one component of ``kind``."""
        return {"wsL": self.ws_repair, "wsR": self.ws_repair, "swL": self.sw_repair,
                "swR": self.sw_repair, "bb": self.bb_repair}[kind]

    @property
    def mu_max(self) -> float:
        """Rate of the shared (uniformized) repair clock."""
        return max(self.ws_repair, self.sw_repair, self.bb_repair)

    @property
    def total_fail_rate(self) -> float:
        """Sum of all failure-clock rates (they tick at all times)."""
        return 2 * self.n * self.ws_fail + 2 * self.sw_fail + self.bb_fail


def uniform_rate(params: FTWCParameters) -> float:
    """The uniform rate ``E(N)`` of the FTWC uCTMDP."""
    return params.mu_max + params.total_fail_rate


@dataclass(frozen=True)
class Config:
    """One configuration of the cluster.

    ``failed_left`` / ``failed_right`` count non-operational workstations
    (waiting or under repair); the switch/backbone flags are ``True``
    when the component is non-operational; ``repairing`` is the kind the
    repair unit is attached to, or ``IDLE``.
    """

    failed_left: int
    failed_right: int
    sw_left_down: bool
    sw_right_down: bool
    bb_down: bool
    repairing: str = IDLE

    def failed_kinds(self) -> list[str]:
        """Kinds with at least one failed component (grab candidates)."""
        kinds = []
        if self.failed_left > 0:
            kinds.append("wsL")
        if self.failed_right > 0:
            kinds.append("wsR")
        if self.sw_left_down:
            kinds.append("swL")
        if self.sw_right_down:
            kinds.append("swR")
        if self.bb_down:
            kinds.append("bb")
        return kinds

    def is_decision_point(self) -> bool:
        """True iff the repair unit must be (re)assigned here."""
        return self.repairing == IDLE and bool(self.failed_kinds())

    def describe(self) -> str:
        """Compact human-readable rendering."""
        low = ((self.sw_left_down * 2 + self.sw_right_down) * 2 + self.bb_down) * 6
        tail = _TAIL[low + _UNIT.index(self.repairing)]
        return f"fL={self.failed_left},fR={self.failed_right},{tail}"


def premium(config: Config, n: int, threshold: int | None = None) -> bool:
    """Quality-of-service predicate of [13] (Section 5 of the paper).

    The cluster offers the required quality iff at least ``threshold``
    operational workstations are connected to each other: either one
    sub-cluster provides all of them through its own (operational)
    switch, or both sub-clusters together do -- which additionally
    requires both switches and the backbone.

    ``threshold`` defaults to ``n``: *premium* quality, the paper's
    property.  Smaller thresholds give the *minimum quality* variants
    also studied in [13] (e.g. ``threshold = (3 * n) // 4``).
    """
    return bool(
        _connected(
            n - config.failed_left,
            n - config.failed_right,
            not config.sw_left_down,
            not config.sw_right_down,
            not config.bb_down,
            _required(n, threshold),
        )
    )


def _required(n: int, threshold: int | None) -> int:
    need = n if threshold is None else threshold
    if not 0 < need <= 2 * n:
        raise ModelError(f"quality threshold must lie in 1..{2 * n}, got {need}")
    return need


def _connected(op_left, op_right, sw_left, sw_right, bb, need):
    """:func:`premium` over scalars or (elementwise) arrays of fields."""
    return (
        (sw_left & (op_left >= need))
        | (sw_right & (op_right >= need))
        | (sw_left & sw_right & bb & (op_left + op_right >= need))
    )


@dataclass
class FTWCModel:
    """A generated FTWC model with its goal set and provenance.

    Attributes
    ----------
    ctmdp:
        The uniform CTMDP (states are configurations).
    configs:
        Configuration per CTMDP state, decoded on access.
    goal_mask:
        Boolean mask of the non-premium states (the goal set ``B`` of
        the paper's property "premium service is not guaranteed").
    params:
        The generating parameters.
    """

    ctmdp: CTMDP
    configs: Sequence[Config]
    goal_mask: np.ndarray
    params: FTWCParameters


class _Configs(Sequence[Config]):
    """The configuration of each state, decoded from its code on access."""

    def __init__(self, codes: np.ndarray, n: int) -> None:
        self._codes = codes
        self._n = n

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        fl, fr, sw_left, sw_right, bb, unit = _decode(int(self._codes[index]), self._n)
        return Config(fl, fr, bool(sw_left), bool(sw_right), bool(bb), _UNIT[unit])


# ----------------------------------------------------------------------
# Integer-coded configurations
# ----------------------------------------------------------------------
# A configuration is the mixed-radix integer
#     ((((fl*(n+1) + fr)*2 + swL)*2 + swR)*2 + bb)*6 + unit
# with ``unit`` indexing ``_UNIT``; the all-up cluster is code 0.


def _decode(codes, n: int):
    """Fields ``(fl, fr, swL, swR, bb, unit)`` of one code or an array."""
    rest, unit = divmod(codes, 6)
    rest, bb = divmod(rest, 2)
    rest, sw_right = divmod(rest, 2)
    rest, sw_left = divmod(rest, 2)
    fl, fr = divmod(rest, n + 1)
    return fl, fr, sw_left, sw_right, bb, unit


class _Races:
    """The exponential race out of every configuration code.

    ``target[c, slot]`` and ``rate[c, slot]`` hold the race out of code
    ``c``: the slots are one failure per kind (in ``KINDS`` order), the
    running repair and the self-loop padding, as the race lists them;
    ``target`` is -1 where the slot's rate is not positive.  Codes whose
    repair unit sits on a kind that has not failed are not
    configurations (``valid`` is ``False``); their rows are empty.

    ``grabs[c, k]`` is the code ``c`` with the repair unit on kind
    ``k`` where ``c`` is a decision point and ``k`` has failed, else -1.
    """

    def __init__(self, params: FTWCParameters) -> None:
        n = params.n
        self.codes = np.arange((n + 1) ** 2 * _LOW)
        fl, fr, sw_left, sw_right, bb, unit = _decode(self.codes, n)
        failed = np.stack([fl > 0, fr > 0, sw_left == 1, sw_right == 1, bb == 1], axis=1)
        unit_kind = np.maximum(unit - 1, 0)
        self.valid = (unit == 0) | failed[self.codes, unit_kind]
        self.decision = (unit == 0) & failed.any(axis=1)
        self.grabs = np.where(
            self.decision[:, None] & failed,
            self.codes[:, None] + 1 + np.arange(len(KINDS)),
            -1,
        )

        rate = np.zeros((len(self.codes), _SELF + 1))
        rate[:, 0] = (n - fl) * params.ws_fail
        rate[:, 1] = (n - fr) * params.ws_fail
        rate[:, 2] = np.where(sw_left == 0, params.sw_fail, 0.0)
        rate[:, 3] = np.where(sw_right == 0, params.sw_fail, 0.0)
        rate[:, 4] = np.where(bb == 0, params.bb_fail, 0.0)
        repair = np.array([0.0] + [params.repair_rate(kind) for kind in KINDS])
        rate[:, _REPAIR] = repair[unit]
        rate[~(rate > 0.0)] = 0.0
        # The self-loop tops each race up to E(N).  ``math.fsum`` rounds
        # the exact sum of a row once, so the padding's bits do not
        # depend on the order its slots are added in.
        total = uniform_rate(params)
        rate[self.valid, _SELF] = total - np.array(
            list(map(math.fsum, rate[self.valid, :_SELF].tolist()))
        )
        rate[~(rate > 0.0)] = 0.0
        rate[~self.valid] = 0.0
        self.rate = rate

        strides = np.array([_LOW * (n + 1), _LOW, 24, 12, 6])
        target = np.empty(rate.shape, dtype=np.int64)
        target[:, : len(KINDS)] = self.codes[:, None] + strides
        target[:, _REPAIR] = self.codes - strides[unit_kind] - unit
        target[:, _SELF] = self.codes
        target[rate == 0.0] = -1
        self.target = target

    def explore(self, choices: np.ndarray) -> np.ndarray:
        """The reachable codes in order of discovery.

        ``choices[c]`` lists the codes whose races code ``c`` moves by
        (-1 for none).  Depth first from a LIFO stack, each code is
        numbered when first seen, in the order of ``c``'s choices and
        each race's slots -- the order of the ``Config``-object
        exploration this replaces, so every state keeps its number.
        """
        owner, column = np.nonzero(choices >= 0)
        successors = self.target[choices[owner, column]]
        present = successors >= 0
        counts = np.bincount(
            np.repeat(owner, present.sum(axis=1)), minlength=len(self.codes)
        )
        ptr = np.zeros(len(self.codes) + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        flat, starts = successors[present].tolist(), ptr.tolist()
        seen = bytearray(len(self.codes))
        seen[0] = 1
        order, stack = [0], [0]
        while stack:
            code = stack.pop()
            for successor in flat[starts[code] : starts[code + 1]]:
                if not seen[successor]:
                    seen[successor] = 1
                    order.append(successor)
                    stack.append(successor)
        return np.array(order, dtype=np.int64)


def _csr_rows(columns: np.ndarray, rates: np.ndarray, num_states: int) -> sp.csr_matrix:
    """One CSR row per row of ``columns``/``rates``, columns sorted;
    entries whose column is ``num_states`` are left out."""
    by_column = np.argsort(columns, axis=1)
    columns = np.take_along_axis(columns, by_column, axis=1)
    rates = np.take_along_axis(rates, by_column, axis=1)
    kept = columns < num_states
    indptr = np.zeros(len(columns) + 1, dtype=np.int64)
    np.cumsum(kept.sum(axis=1), out=indptr[1:])
    return sp.csr_matrix(
        (rates[kept], columns[kept], indptr), shape=(len(columns), num_states)
    )


def _states(races: _Races, order: np.ndarray) -> np.ndarray:
    """State number per code (-1 for the unreachable ones), with one
    extra entry so that code -1 maps to ``len(order)``."""
    state = np.full(len(races.codes) + 1, -1, dtype=np.int64)
    state[order] = np.arange(len(order))
    state[-1] = len(order)
    return state


def _goal(order: np.ndarray, n: int, quality_threshold: int | None) -> np.ndarray:
    fl, fr, sw_left, sw_right, bb, _unit = _decode(order, n)
    return ~_connected(
        n - fl, n - fr, sw_left == 0, sw_right == 0, bb == 0, _required(n, quality_threshold)
    )


def build_ctmdp(
    n: int,
    params: FTWCParameters | None = None,
    quality_threshold: int | None = None,
) -> FTWCModel:
    """Build the uniform CTMDP of the FTWC with ``n`` workstations per side.

    Decision points offer one ``g_<kind>`` transition per failed kind
    (the nondeterministic repair-unit assignment); every other
    configuration offers a single ``tau`` transition.  All rate
    functions share the uniform exit rate ``E(N)``.

    ``quality_threshold`` selects the required number of connected
    operational workstations (default ``n``: the premium property).
    """
    params = params or FTWCParameters(n=n)
    if params.n != n:
        raise ModelError("n argument and params.n disagree")
    races = _Races(params)
    own = np.where(races.valid & ~races.decision, races.codes, -1)
    choices = np.column_stack([races.grabs, own])
    order = races.explore(choices)
    state = _states(races, order)

    reached = choices[order]
    sources, column = np.nonzero(reached >= 0)
    rows = reached[sources, column]
    rate_matrix = _csr_rows(state[races.target[rows]], races.rate[rows], len(order))
    fl, fr, *_ = _decode(order, n)
    names = (
        np.array([f"fL={i},fR=" for i in range(n + 1)], dtype=object)[fl]
        + np.array([f"{i}," for i in range(n + 1)], dtype=object)[fr]
        + np.array(_TAIL, dtype=object)[order % _LOW]
    )
    ctmdp = CTMDP(
        num_states=len(order),
        sources=sources,
        labels=_LABELS[column].tolist(),
        rate_matrix=rate_matrix,
        initial=0,
        state_names=names.tolist(),
    )
    return FTWCModel(
        ctmdp=ctmdp,
        configs=_Configs(order, n),
        goal_mask=_goal(order, n, quality_threshold),
        params=params,
    )


def build_ctmc(
    n: int,
    params: FTWCParameters | None = None,
    gamma: float = 10.0,
    quality_threshold: int | None = None,
) -> tuple[CTMC, Sequence[Config], np.ndarray]:
    """Build the CTMC approximation of [13]: nondeterminism as fast races.

    At decision points the repair-unit assignment is replaced by a race
    of exponential transitions with rate ``gamma`` -- the modelling
    style of the original FTWC studies that the paper criticises.  The
    default of 10 follows the repairman's *inspection rate* of the
    classical PRISM ``cluster`` benchmark; larger values shrink the
    artefacts (and blow up the uniformization rate of the analysis).

    The artificial races let failures interleave with the (small but
    positive) decision delay, during which the repair unit is
    effectively idle -- paths that no scheduler of the CTMDP can
    realise.  This is why this chain *overestimates* even the
    worst-case CTMDP probabilities (Figure 4 of the paper).

    Returns ``(chain, configurations, goal mask)``.
    """
    params = params or FTWCParameters(n=n)
    if params.n != n:
        raise ModelError("n argument and params.n disagree")
    if gamma <= 0.0:
        raise ModelError("gamma must be positive")
    races = _Races(params)
    # The chain drops the self-loops, so every race may list its own
    # code last: a grabbed configuration is then a state even where its
    # race needs no padding (failure rates below the float resolution
    # of E(N)), and everywhere else the numbering is unchanged.
    races.target[races.valid, _SELF] = races.codes[races.valid]
    # Crucially, the failure clocks keep running while the "decision"
    # is pending -- in a CTMC all transitions race.  These artificial
    # interleavings (a component failing during the infinitesimal
    # assignment delay, with the repair unit effectively idle) are
    # exactly the paths the paper identifies as the cause of the
    # CTMC's overestimation.  So every configuration races, and a
    # decision point races its grabs at rate ``gamma`` as well.
    own = np.where(races.valid, races.codes, -1)
    order = races.explore(np.column_stack([races.grabs, own]))
    state = _states(races, order)

    grabs = races.grabs[order]
    columns = np.column_stack(
        [state[grabs], state[races.target[order, :_SELF]]]  # no self-loop
    )
    rates = np.column_stack(
        [np.where(grabs >= 0, float(gamma), 0.0), races.rate[order, :_SELF]]
    )
    chain = CTMC(rates=_csr_rows(columns, rates, len(order)), initial=0)
    return chain, _Configs(order, n), _goal(order, n, quality_threshold)
