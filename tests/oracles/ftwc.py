"""Oracle for the compositional FTWC: the interleave-all build order.

:func:`interleaved_system_imc` interleaves every component block with
``sync=[]`` -- the ``n`` workstation replicas of each side, then both
sides, then the switches and the backbone -- composes the repair station
last on the whole grab/repair/release alphabet, hides everything and
takes the premium quotient.  The intermediate products share no action
with each other, so their minimisations remove nothing (900, 4,000,
18,000 and 80,000 states at N=3).

Production code composes station-first instead and hides each kind's
actions at once (:func:`repro.models.ftwc.build_system_imc`).  The two
orders must yield branching-bisimilar quotients and the same analysed
CTMDP.  The interleave-all order also stays the bisimulation stress
input: :func:`tests.oracles.bisim.record_minimisation_workload` replays
it.
"""

from __future__ import annotations

from repro.bisim.branching import branching_minimize
from repro.bisim.quotient import map_labels_through
from repro.errors import ModelError
from repro.imc.labeled import LabeledIMC
from repro.models.ftwc import (
    _OBS_KINDS,
    SystemIMC,
    component_block,
    premium_from_obs,
    repair_station,
)
from repro.models.ftwc_direct import FTWCParameters


def interleaved_system_imc(n: int, params: FTWCParameters | None = None) -> SystemIMC:
    """The closed FTWC uIMC, built in the interleave-all order."""
    params = params or FTWCParameters(n=n)
    if params.n != n:
        raise ModelError("n argument and params.n disagree")
    peak = 0

    def compose(left: LabeledIMC, right: LabeledIMC, sync: list[str]) -> LabeledIMC:
        nonlocal peak
        product = left.parallel(right, sync=sync)
        peak = max(peak, product.imc.num_states)
        return product

    def cluster(kind: str) -> LabeledIMC:
        block = component_block(kind, params.fail_rate(kind))
        result = block
        for _ in range(1, n):
            result = compose(result, block, []).minimize()
        return result

    system = compose(cluster("wsL"), cluster("wsR"), []).minimize()
    for kind in ("swL", "swR", "bb"):
        block = component_block(kind, params.fail_rate(kind))
        system = compose(system, block, []).minimize()

    sync = [f"{prefix}_{kind}" for kind in _OBS_KINDS for prefix in ("g", "rep", "r")]
    closed = compose(repair_station(params), system, sync).hide_all_but()
    quality = [premium_from_obs(obs, n) for obs in closed.observations]
    quotient, partition = branching_minimize(closed.imc, labels=quality)
    return SystemIMC(
        imc=quotient,
        premium_flags=map_labels_through(partition, quality),
        peak_states=peak,
    )
