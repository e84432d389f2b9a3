"""Benchmark: qualitative precomputation in the timed solver.

On the FTWC N=4 uCTMDP (819 states, 692 of them goal states) the
Prob0 sets are empty, so ``precompute=True`` sweeps the same 127
undecided states as the plain solve -- every timed sweep leaves the
goal states out -- and adds only the Prob0 pass.  The claim under test:

* the precomputed solve returns the plain solve's ``values`` bit for
  bit (the Prob0 states are exactly 0 in the plain sweep too);
* it reports the eliminated states and is not slower (the ``speedup``
  series sits near 1x since the plain sweep skips the goal states).

Every run appends wall times, the eliminated-state count and the
speedup to the ``BENCH_qual.json`` ledger in the repository root (git
commit + timestamp), so the series shows regressions rather than one
snapshot.
"""

import time
from pathlib import Path

import numpy as np

from _ledger import append_run
from repro.core.reachability import PreparedTimedReachability
from repro.graph import analyze_model
from repro.models import ftwc_direct

N = 4
T = 100.0
EPSILON = 1e-6
REPEATS = 5


def _best_of(fn, repeats=REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_precompute_speedup_on_ftwc():
    model = ftwc_direct.build_ctmdp(N)
    num_states = model.ctmdp.num_states

    plain_solver = PreparedTimedReachability(model.ctmdp, model.goal_mask)
    clamped_solver = PreparedTimedReachability(
        model.ctmdp, model.goal_mask, precompute=True
    )
    plain_seconds, plain = _best_of(
        lambda: plain_solver.solve(T, epsilon=EPSILON)
    )
    clamped_seconds, clamped = _best_of(
        lambda: clamped_solver.solve(T, epsilon=EPSILON)
    )

    analysis_started = time.perf_counter()
    analysis = analyze_model(model.ctmdp, goal=model.goal_mask)
    analysis_seconds = time.perf_counter() - analysis_started

    # Correctness: the same bits, most of the model leaves the sweep.
    initial = model.ctmdp.initial
    np.testing.assert_array_equal(clamped.values, plain.values)
    assert clamped.iterations == plain.iterations
    assert clamped.states_eliminated == int(model.goal_mask.sum())
    assert clamped.states_eliminated >= num_states // 2
    assert clamped.certificate.healthy

    # Performance: the Prob0 pass must not make the solve cost more
    # (generous bound; the ledger tracks the actual series).
    assert clamped_seconds <= plain_seconds * 1.5 + 0.05

    speedup = plain_seconds / clamped_seconds if clamped_seconds else float("inf")
    out = Path(__file__).resolve().parent.parent / "BENCH_qual.json"
    append_run(
        out,
        "qualitative-precompute",
        {
            "model": {"family": "ftwc", "n": N},
            "t": T,
            "epsilon": EPSILON,
            "states": num_states,
            "states_eliminated": int(clamped.states_eliminated),
            "iterations": int(clamped.iterations),
            "value": clamped.value(initial),
            "plain_seconds": round(plain_seconds, 6),
            "precompute_seconds": round(clamped_seconds, 6),
            "speedup": round(speedup, 3),
            "graph_analysis_seconds": round(analysis_seconds, 6),
            "qualitative": analysis.qualitative.counts(),
        },
    )
    print(
        f"\nFTWC N={N} t={T}: plain {plain_seconds*1e3:.1f} ms, "
        f"precompute {clamped_seconds*1e3:.1f} ms ({speedup:.2f}x, "
        f"{clamped.states_eliminated}/{num_states} states eliminated)"
    )
