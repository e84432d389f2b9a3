"""Benchmark: worklist vs naive branching-bisimulation refinement.

The compositional FTWC route spends most of its time in repeated
branching-bisimulation quotients (``repro profile`` attributed ~80% of
the build to the naive signature refinement before the worklist engine
existed).  This benchmark replays exactly that workload: it records
every ``(model, labels)`` pair the N=3 compositional build passes to
the refinement, then times the worklist engine and the naive test
oracle over the recorded sequence -- isolating refinement from
composition and quotient construction.

Every run appends wall times and the speedup to the
``BENCH_bisim.json`` ledger in the repository root (git commit + UTC
timestamp), so the series shows regressions rather than one snapshot.
The two partitions are asserted equal on every recorded model.

Run it from the repository root as ``python -m pytest
benchmarks/test_bench_bisim.py`` so that ``tests.oracles`` is importable.
"""

import time
from pathlib import Path

import numpy as np
from _ledger import append_run

from repro.bisim.branching import branching_bisimulation
from tests.oracles.bisim import naive_branching_bisimulation, record_minimisation_workload

N = 3
WORKLIST_REPEATS = 3
NAIVE_REPEATS = 2
#: Soft floor asserted here; the acceptance series in the ledger shows
#: the actual ratio (>= 3x on this workload).
MIN_SPEEDUP = 2.0


def _time_engine(workload, refine, repeats):
    best = float("inf")
    partitions = None
    for _ in range(repeats):
        started = time.perf_counter()
        partitions = [refine(imc, labels) for imc, labels in workload]
        best = min(best, time.perf_counter() - started)
    return best, partitions


def test_worklist_speedup_on_ftwc_minimisation():
    workload = record_minimisation_workload(N)
    sizes = [imc.num_states for imc, _ in workload]

    worklist_seconds, worklist_parts = _time_engine(
        workload, branching_bisimulation, WORKLIST_REPEATS
    )
    naive_seconds, naive_parts = _time_engine(
        workload, naive_branching_bisimulation, NAIVE_REPEATS
    )

    # Correctness first: engine and oracle compute identical partitions.
    for left, right in zip(worklist_parts, naive_parts):
        np.testing.assert_array_equal(left.block_of, right.block_of)

    speedup = naive_seconds / worklist_seconds if worklist_seconds else float("inf")
    out = Path(__file__).resolve().parent.parent / "BENCH_bisim.json"
    append_run(
        out,
        "bisim-worklist-refinement",
        {
            "workload": {
                "family": "ftwc-compositional",
                "n": N,
                "minimisations": len(workload),
                "model_sizes": sizes,
            },
            "worklist_seconds": round(worklist_seconds, 6),
            "naive_seconds": round(naive_seconds, 6),
            "speedup": round(speedup, 3),
            "partitions_equal": True,
        },
    )
    print(
        f"\nFTWC N={N} compositional minimisation ({len(workload)} quotients, "
        f"largest {max(sizes)} states): worklist {worklist_seconds:.3f} s, "
        f"naive {naive_seconds:.3f} s ({speedup:.2f}x)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"worklist engine only {speedup:.2f}x faster than the naive oracle "
        f"(expected >= {MIN_SPEEDUP}x on the FTWC minimisation workload)"
    )
