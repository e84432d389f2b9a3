"""Benchmark: the compositional route (Section 5 "Technicalities").

The paper builds the FTWC compositionally with CADP up to N=14 (with a
5e6-state intermediate space) and reports that composition plus
minimisation dominates the cost.  This benchmark exercises our pure-
Python version of that trajectory -- elapse constraints, station-first
parallel composition, per-kind hiding, pruning, stochastic branching
bisimulation minimisation, strictly-alternating transformation -- and
verifies that it agrees with the direct generator.

``test_compositional_build`` times the build at N=3 and N=8 (best of
three) and appends the build time, the peak product, the final IMC and
the CTMDP size per N to the ``BENCH_compositional.json`` ledger in the
repository root (git commit + UTC timestamp), so ``repro bench trend``
gates the build across commits.

Run it from the repository root as ``python -m pytest
benchmarks/test_bench_compositional.py``.
"""

import time
from pathlib import Path

import pytest
from _ledger import append_run

from repro.core.reachability import timed_reachability
from repro.models.ftwc import build_compositional
from repro.models.ftwc_direct import build_ctmdp

NS = (3, 8)
REPEATS = 3


def _p100(ctmdp, goal_mask):
    return timed_reachability(ctmdp, goal_mask, 100.0, epsilon=1e-8).value(ctmdp.initial)


def test_compositional_build():
    per_n = {}
    for n in NS:
        best = float("inf")
        for _ in range(REPEATS):
            started = time.perf_counter()
            model = build_compositional(n)
            best = min(best, time.perf_counter() - started)
        assert model.ctmdp.is_uniform(tol=1e-6)
        direct = build_ctmdp(n)
        assert _p100(model.ctmdp, model.goal_mask) == pytest.approx(
            _p100(direct.ctmdp, direct.goal_mask), rel=1e-12, abs=0.0
        )
        per_n[f"n{n}"] = {
            "build_seconds": round(best, 6),
            "peak_states": model.system.peak_states,
            "final_imc_states": model.system.imc.num_states,
            "ctmdp_states": model.ctmdp.num_states,
        }

    out = Path(__file__).resolve().parent.parent / "BENCH_compositional.json"
    append_run(
        out,
        "compositional-build",
        {
            "workload": {"family": "ftwc-compositional", "ns": list(NS), "repeats": REPEATS},
            **per_n,
        },
    )
    for key, row in per_n.items():
        print(
            f"\nFTWC {key} compositional build: {row['build_seconds']:.3f} s, "
            f"peak product {row['peak_states']}, final IMC {row['final_imc_states']}, "
            f"CTMDP {row['ctmdp_states']} states"
        )


def test_minimisation_ablation(benchmark):
    """Without intermediate minimisation the intermediate state spaces
    are larger and the final signature-refinement fixpoint may end up
    finer (it is a valid bisimulation either way); the analysis results
    agree exactly."""

    def build_fat():
        return build_compositional(1, minimize_intermediate=False)

    fat = benchmark.pedantic(build_fat, rounds=1, iterations=1)
    slim = build_compositional(1, minimize_intermediate=True)
    assert fat.ctmdp.num_states >= slim.ctmdp.num_states
    value_fat = timed_reachability(fat.ctmdp, fat.goal_mask, 100.0, epsilon=1e-8).value(
        fat.ctmdp.initial
    )
    value_slim = timed_reachability(
        slim.ctmdp, slim.goal_mask, 100.0, epsilon=1e-8
    ).value(slim.ctmdp.initial)
    assert value_fat == pytest.approx(value_slim, rel=1e-6)
    benchmark.extra_info["states_without_intermediate_min"] = fat.ctmdp.num_states
    benchmark.extra_info["states_with_intermediate_min"] = slim.ctmdp.num_states
