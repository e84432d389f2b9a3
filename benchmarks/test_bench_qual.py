"""Benchmark: unbounded reachability with pinned qualitative sets.

Every FTWC state reaches ``no_premium`` almost surely under every
scheduler, so the Prob1 set of either objective is the whole state
space.  Plain value iteration never converges there (at N=2 it ends its
1,000,000-step budget at 0.99238); the solver pins the Prob0/Prob1
sets first.  The claims under test, on FTWC N=4 and N=16:

* ``unbounded_reachability`` returns exactly 1.0 at every state, for
  both objectives;
* its best-of-5 wall time per objective, the whole-model graph analysis
  time and the qualitative counts go to the ``BENCH_qual.json`` ledger
  in the repository root (git commit + timestamp) under
  ``kind: "unbounded"``, so ``repro bench trend`` follows them as their
  own series.  The ledger's earlier entries, without a kind, time the
  retired timed precomputation and stay as history.
"""

import time
from pathlib import Path

from _ledger import append_run
from repro.core.reachability import unbounded_reachability
from repro.graph import analyze_model
from repro.models import ftwc_direct

SIZES = (4, 16)
REPEATS = 5


def _best_of(fn, repeats=REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_unbounded_reachability_on_ftwc():
    record = {"kind": "unbounded", "goal": "no_premium"}
    for n in SIZES:
        model = ftwc_direct.build_ctmdp(n)
        entry = {"states": model.ctmdp.num_states}
        for objective in ("max", "min"):
            seconds, values = _best_of(
                lambda: unbounded_reachability(
                    model.ctmdp, model.goal_mask, objective=objective
                )
            )
            assert (values == 1.0).all()
            entry[objective] = {"unbounded_seconds": round(seconds, 6)}

        analysis_started = time.perf_counter()
        analysis = analyze_model(model.ctmdp, goal=model.goal_mask)
        entry["graph_analysis_seconds"] = round(time.perf_counter() - analysis_started, 6)
        entry["qualitative"] = analysis.qualitative.counts()
        record[f"n{n}"] = entry
        print(
            f"\nFTWC N={n} ({entry['states']} states): unbounded max "
            f"{entry['max']['unbounded_seconds'] * 1e3:.1f} ms, min "
            f"{entry['min']['unbounded_seconds'] * 1e3:.1f} ms"
        )

    out = Path(__file__).resolve().parent.parent / "BENCH_qual.json"
    append_run(out, "qualitative-precompute", record)
