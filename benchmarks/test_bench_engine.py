"""Benchmark: the analysis engine's builds, disk cache, batching and per-query cost.

* **The direct FTWC build a registry miss pays** -- ``build_ctmdp`` for
  N=4, 8, 16 and 32 and ``build_ctmc`` for N=16 (best of 3).  The N=8
  CTMDP must be bitwise the ``Config``-object reference generator's.
  Build times and sizes go to the ``BENCH_engine.json`` ledger under
  ``kind: "ftwc-build"``.
* **The ``.tra`` round trip of the disk cache** -- the FTWC uCTMDP for
  N=4 and N=32 is written with ``write_ctmdp_tra`` and read back with
  ``read_ctmdp_tra`` (best of 3), as a registry disk miss and disk hit
  do.  The read model must be bitwise the built one.  Write and read
  times and the file size go to the ``BENCH_engine.json`` ledger under
  ``kind: "tra-io"``.
* **Batched sweep vs independent calls** -- the 11-point Figure 4 time
  sweep answered through one engine batch (one build, one prepared
  solver, one Fox-Glynn per bound) versus 11 independent
  ``timed_reachability`` calls that each rebuild everything.  The
  values must agree bitwise: batching changes the cost of an analysis,
  never its outcome.
* **Per-query cost of a serve-shaped mix** -- one ``QueryEngine``
  answers a ``warm-serve``-shaped round one request at a time: FTWC
  n = 4/8/16, 16 stratified log-uniform time bounds on [1, 2000] h per
  n, each (objective, goal) pair equally often.  Every value must be
  bitwise ``timed_reachability(...).value(initial)``.  The per-goal
  solve time, the number of solver prepares (one per model and goal)
  and the number of queries answered without a sweep (every
  ``premium`` query: the all-up initial state is premium) go to the
  ``BENCH_engine.json`` ledger.
* **Table 1's sweep, per step** -- for N = 8 to 128, Algorithm 1 on the
  full FTWC model as Table 1 times it: the active rows and nonzeros
  (non-goal states' rows of the probability matrix), the time per
  backward step (best of 3 solves at t = 100 h), the exact 30,000 h
  iteration count and the 30,000 h cell time it predicts (count times
  step time).  They go to the ``BENCH_engine.json`` ledger under
  ``kind: "table1-sweep"``, a series for the long cells no default run
  solves.
"""

import random
import time
from pathlib import Path

import numpy as np
import pytest

from _ledger import append_run
from repro.core.reachability import PreparedTimedReachability, timed_reachability
from repro.engine import Query, QueryEngine
from repro.engine.registry import BuiltModel
from repro.io.tra import read_ctmdp_tra, write_ctmdp_tra
from repro.models import ftwc_direct
from repro.numerics.foxglynn import poisson_right_truncation
from tests.oracles import ftwc_direct as reference_generator
from tests.oracles.tra import assert_same_model

SPEC = {"family": "ftwc", "n": 4}
FTWC_BUILD_SIZES = (4, 8, 16, 32)
TRA_IO_SIZES = (4, 32)
TABLE1_SIZES = (8, 16, 32, 64, 128)
TIME_POINTS = tuple(float(t) for t in range(0, 501, 50))  # 11 points
LEDGER = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _best_of_3(call, *args):
    """``call(*args)``'s result and its fastest wall time over three calls."""
    seconds = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        result = call(*args)
        seconds = min(seconds, time.perf_counter() - started)
    return result, seconds


def test_ftwc_build_ledger():
    model = ftwc_direct.build_ctmdp(8)
    reference, configs, goal = reference_generator.build_ctmdp(8)
    assert_same_model(model.ctmdp, reference)
    assert list(model.configs) == configs
    np.testing.assert_array_equal(model.goal_mask, goal)

    record = {"kind": "ftwc-build"}
    for n in FTWC_BUILD_SIZES:
        model, seconds = _best_of_3(ftwc_direct.build_ctmdp, n)
        record[f"n{n}"] = {
            "states": model.ctmdp.num_states,
            "rows": model.ctmdp.num_transitions,
            "build_seconds": round(seconds, 6),
        }
        print(f"\nbuild_ctmdp N={n}: {model.ctmdp.num_states} states, {seconds:.3f} s")
    (chain, _configs, _goal), seconds = _best_of_3(ftwc_direct.build_ctmc, 16)
    record["ctmc_n16"] = {"states": chain.num_states, "build_seconds": round(seconds, 6)}
    print(f"build_ctmc N=16: {chain.num_states} states, {seconds:.3f} s")
    append_run(LEDGER, "engine-serve-mix", record)


def test_tra_io_ledger(tmp_path):
    record = {"kind": "tra-io"}
    for n in TRA_IO_SIZES:
        built = ftwc_direct.build_ctmdp(n).ctmdp
        path = tmp_path / f"ftwc{n}.tra"
        started = time.perf_counter()
        write_ctmdp_tra(built, path)
        write_seconds = time.perf_counter() - started
        read, read_seconds = _best_of_3(read_ctmdp_tra, path)
        assert_same_model(read, built)
        record[f"n{n}"] = {
            "states": built.num_states,
            "bytes": path.stat().st_size,
            "write_seconds": round(write_seconds, 6),
            "read_seconds": round(read_seconds, 6),
        }
        print(
            f"\nftwc N={n}: {path.stat().st_size / 1e6:.1f} MB, write "
            f"{write_seconds:.3f} s, read {read_seconds:.3f} s (best of 3)"
        )
    append_run(LEDGER, "engine-serve-mix", record)


def test_batched_sweep_vs_independent_calls(benchmark):
    def independent_sweep():
        values = []
        for t in TIME_POINTS:
            model = ftwc_direct.build_ctmdp(4)
            values.append(
                timed_reachability(model.ctmdp, model.goal_mask, t).value(
                    model.ctmdp.initial
                )
            )
        return values

    started = time.perf_counter()
    independent = independent_sweep()
    independent_seconds = time.perf_counter() - started

    def batched_sweep():
        engine = QueryEngine()
        batch = engine.run([Query(model=SPEC, t=t) for t in TIME_POINTS])
        assert engine.metrics.counter("models_built") == 1
        return batch.values()

    batched = benchmark.pedantic(batched_sweep, rounds=3, iterations=1)
    assert batched == independent  # bitwise, not approx

    benchmark.extra_info["independent_seconds"] = independent_seconds
    benchmark.extra_info["speedup"] = independent_seconds / benchmark.stats.stats.mean
    print(
        f"\n{len(TIME_POINTS)}-point sweep: independent {independent_seconds:.3f} s, "
        f"batched {benchmark.stats.stats.mean:.3f} s "
        f"({independent_seconds / benchmark.stats.stats.mean:.1f}x)"
    )


MIX_SIZES = (4, 8, 16)
MIX_STRATA = 16
MIX_PAIRS = [(o, g) for o in ("max", "min") for g in ("no_premium", "premium")]


def _serve_mix(seed: int = 901) -> list[Query]:
    """One ``warm-serve``-shaped round: per n, one log-uniform draw on
    [1, 2000] h per stratum, with the (objective, goal) pairs shuffled
    over the strata in equal numbers."""
    rng = random.Random(f"engine-serve-mix:{seed}")
    queries = []
    for n in MIX_SIZES:
        pairs = MIX_PAIRS * (MIX_STRATA // len(MIX_PAIRS))
        rng.shuffle(pairs)
        for k, (objective, goal) in enumerate(pairs):
            t = 2000.0 ** ((k + rng.random()) / MIX_STRATA)
            queries.append(
                Query(model={"family": "ftwc", "n": n}, t=t, objective=objective, goal=goal)
            )
    return queries


def test_serve_mix_ledger(monkeypatch):
    engine = QueryEngine()
    for n in MIX_SIZES:  # built up front, like a server's set-up
        engine.model({"family": "ftwc", "n": n})
    prepares = []
    real_prepare = BuiltModel.prepare

    def counting_prepare(self, *args, **kwargs):
        prepares.append(self.key)
        return real_prepare(self, *args, **kwargs)

    monkeypatch.setattr(BuiltModel, "prepare", counting_prepare)
    queries = _serve_mix()
    results = [engine.run([query]).results[0] for query in queries]

    per_goal = {goal: {"queries": 0, "solve_seconds": 0.0} for goal in ("no_premium", "premium")}
    trivial = 0
    for query, result in zip(queries, results):
        assert result.ok, result.error
        built = engine.model(query.model)
        reference = timed_reachability(
            built.model, built.goal(query.goal), query.t, objective=query.objective
        ).value(built.model.initial)
        assert result.value.hex() == reference.hex()
        per_goal[query.goal]["queries"] += 1
        per_goal[query.goal]["solve_seconds"] += result.seconds
        trivial += result.iterations == 0
    assert len(prepares) == len(set(prepares)) * 2 == len(MIX_SIZES) * 2
    assert trivial == per_goal["premium"]["queries"]

    record = {
        "workload": {"ns": list(MIX_SIZES), "strata": MIX_STRATA, "t_hours": [1.0, 2000.0]},
        "queries": len(queries),
        "prepares": len(prepares),
        "trivial_queries": trivial,
        **{
            goal: {"queries": entry["queries"], "solve_seconds": round(entry["solve_seconds"], 6)}
            for goal, entry in per_goal.items()
        },
    }
    append_run(LEDGER, "engine-serve-mix", record)
    print(
        f"\n{len(queries)} queries: no_premium "
        f"{per_goal['no_premium']['solve_seconds']:.3f} s, premium "
        f"{per_goal['premium']['solve_seconds'] * 1e3:.2f} ms, "
        f"{len(prepares)} prepares, {trivial} answered without a sweep"
    )


def test_table1_sweep_ledger():
    record = {"kind": "table1-sweep"}
    for n in TABLE1_SIZES:
        model = ftwc_direct.build_ctmdp(n)
        ctmdp, goal = model.ctmdp, model.goal_mask
        solver = PreparedTimedReachability(ctmdp, goal)
        result, seconds = _best_of_3(solver.solve, 100.0)
        counts = np.diff(ctmdp.choice_ptr)
        active_rows = np.repeat(~goal & (counts > 0), counts)
        step_seconds = seconds / result.iterations
        iterations = poisson_right_truncation(solver.rate * 30000.0, 1e-6)
        record[f"n{n}"] = {
            "active_rows": int(active_rows.sum()),
            "nonzeros": int(np.diff(solver.prob.indptr)[active_rows].sum()),
            "step_seconds": round(step_seconds, 9),
            "iterations_30000h": iterations,
            "cell_30000h_seconds": round(iterations * step_seconds, 3),
        }
        print(
            f"\nTable 1 N={n}: {int(active_rows.sum())} active rows, "
            f"{step_seconds * 1e9:,.0f} ns per step, 30000 h cell "
            f"{iterations:,} steps ~ {iterations * step_seconds:.1f} s"
        )
    append_run(LEDGER, "engine-serve-mix", record)
