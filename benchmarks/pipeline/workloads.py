"""Seeded inputs of the pipeline benchmark's four workloads.

A workload is a set-up followed by a timed loop of *ops*.  An op is one
fresh ``repro batch`` process, or, for ``warm-serve``, one request to a
long-lived ``repro serve``.  Ops come in *rounds*.  Each round is a
stratified sample of the workload's query mix: its queries cover the
same models, objectives, goals and time-bound strata whatever the seed,
and the seed picks where in its stratum each time bound falls and the
order of the ops.  The timed loop runs whole rounds, so any two runs do
the same mix of work and their medians and rates can be compared across
seeds.

Everything here is a pure function of ``(workload, seed, round)``; the
system under test only ever sees the generated query lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

__all__ = ["WORKLOADS", "Workload", "round_ops", "setup_queries"]

Query = dict[str, Any]


@dataclass(frozen=True)
class Workload:
    """How one workload runs.

    ``server`` workloads send each op as a request to one ``repro
    serve`` child started in the set-up; the others start a fresh
    ``repro batch`` process per op.  ``disk_cache`` workloads fill a
    fresh cache directory in the set-up and let every op read it;
    the others run with ``--no-disk-cache``.  ``setup_repeats`` is how
    many times a run repeats the set-up to report its median.
    """

    name: str
    server: bool
    disk_cache: bool
    setup_repeats: int


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("cold-batch", server=False, disk_cache=True, setup_repeats=3),
        Workload("warm-serve", server=True, disk_cache=False, setup_repeats=3),
        Workload("compositional", server=False, disk_cache=False, setup_repeats=3),
        # Its set-up builds a 38,675-state model in about 6 s; two repeats
        # keep a run near 30 s.
        Workload("large-direct", server=False, disk_cache=True, setup_repeats=2),
    )
}

_OBJECTIVES = ("max", "min")
_GOALS = ("no_premium", "premium")


def _ftwc(n: int, family: str = "ftwc") -> dict[str, Any]:
    return {"family": family, "n": n}


def _rng(*parts: object) -> random.Random:
    # String seeds hash through SHA-512, independent of PYTHONHASHSEED.
    return random.Random(":".join(str(part) for part in parts))


def _stratified(rng: random.Random, lo: float, hi: float, strata: int) -> list[float]:
    """One log-uniform draw on ``[lo, hi]`` per stratum, in stratum order.

    Together the draws are log-uniform on ``[lo, hi]``; each lands in
    its own ``1/strata`` slice of ``log t``.
    """
    ratio = hi / lo
    return [lo * ratio ** ((k + rng.random()) / strata) for k in range(strata)]


def _near(rng: random.Random, t: float) -> float:
    """``t`` moved up by less than 1%, so the seed changes the input but
    not the amount of work."""
    return t * (1.0 + 0.01 * rng.random())


def _large_direct_queries(seed: int) -> list[Query]:
    rng = _rng("large-direct", seed)
    return [{"model": _ftwc(32), "t": _near(rng, t)} for t in (100.0, 1000.0)]


def setup_queries(name: str, seed: int) -> list[Query]:
    """The queries one set-up of workload ``name`` answers.

    ``cold-batch`` fills the op cache with every model its ops use;
    ``warm-serve`` sends them one by one to a fresh server to build its
    models; ``compositional`` runs the smallest compositional model to
    warm the file cache; ``large-direct`` builds, writes and answers the
    two queries its ops later read back from the cache.
    """
    if name == "cold-batch":
        return [{"model": _ftwc(n), "t": 10.0} for n in (2, 3, 4)]
    if name == "warm-serve":
        return [{"model": _ftwc(n), "t": 1.0} for n in (4, 8, 16)]
    if name == "compositional":
        return [{"model": _ftwc(1, "ftwc-compositional"), "t": 10.0}]
    if name == "large-direct":
        return _large_direct_queries(seed)
    raise KeyError(name)


def round_ops(name: str, seed: int, index: int) -> list[list[Query]]:
    """The ops of round ``index``: each op is the list of queries one
    process (or, for ``warm-serve``, one request) answers."""
    rng = _rng(name, seed, index)
    if name == "cold-batch":
        combos = [(n, objective) for n in (2, 3, 4) for objective in _OBJECTIVES]
        times = _stratified(rng, 10.0, 500.0, len(combos))
        rng.shuffle(times)
        ops = [
            [{"model": _ftwc(n), "t": t, "objective": objective}]
            for (n, objective), t in zip(combos, times)
        ]
    elif name == "warm-serve":
        strata = 16
        ops = []
        for n in (4, 8, 16):
            # Each (objective, goal) pair gets the same number of strata.
            pairs = [(o, g) for o in _OBJECTIVES for g in _GOALS] * (strata // 4)
            rng.shuffle(pairs)
            for t, (objective, goal) in zip(_stratified(rng, 1.0, 2000.0, strata), pairs):
                ops.append(
                    [{"model": _ftwc(n), "t": t, "objective": objective, "goal": goal}]
                )
    elif name == "compositional":
        times = [_near(rng, t) for t in (100.0, 1000.0)]
        ops = [
            [
                {"model": _ftwc(3, "ftwc-compositional"), "t": t, "objective": objective}
                for t in times
                for objective in _OBJECTIVES
            ]
        ]
    elif name == "large-direct":
        ops = [_large_direct_queries(seed)]
    else:
        raise KeyError(name)
    for op in ops:
        rng.shuffle(op)
    rng.shuffle(ops)
    return ops
