"""Benchmark: the policy subsystem's three claims.

* **Compression** -- the streaming run-length/delta store must hold the
  FTWC N=4, t=100 scheduler (and a synthetic ~62k-step policy) at least
  10x smaller than the dense ``iterations x states`` int32 matrix.
* **Streaming overhead** -- recording through the compressed writer
  must add less than 10% wall time over the dense recorder it replaced
  (the test oracle :class:`tests.oracles.policy.DenseWriter`; computing
  the per-step argbest is the cost of extraction itself and is paid by
  both formats; the ledger records the plain-solve overhead too, for
  the series).
* **Replay fidelity** -- fixing the stored scheduler and replaying the
  induced chain must reproduce the solver's probability within the
  solver's epsilon, under a healthy certificate.

Every run appends compression ratios and replay throughput to the
``BENCH_policy.json`` ledger in the repository root (git commit +
timestamp), so the series shows regressions rather than one snapshot.

Run it from the repository root as ``python -m pytest
benchmarks/test_bench_policy.py`` so that ``tests.oracles`` is importable.
"""

import time
from pathlib import Path

import numpy as np

from _ledger import append_run
from repro.core.reachability import (
    PreparedTimedReachability,
    replay_step_scheduler,
)
from repro.models import ftwc_direct
from repro.policy.store import PolicyWriter
from tests.oracles.policy import dense_recording

N = 4
T = 100.0
EPSILON = 1e-6
MIN_RATIO = 10.0
RELATIVE_BUDGET = 0.10  # recording may cost at most 10% wall time
ABSOLUTE_SLACK = 0.05  # seconds, absorbs timer noise on tiny solves
REPEATS = 3

SYNTHETIC_ROWS = 62_000
SYNTHETIC_STATES = 96


def _best_of(fn, repeats=REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _prepared():
    model = ftwc_direct.build_ctmdp(N)
    return model, PreparedTimedReachability(model.ctmdp, model.goal_mask)


def test_policy_pipeline_end_to_end(monkeypatch):
    model, prepared = _prepared()

    plain_seconds, plain = _best_of(lambda: prepared.solve(T, epsilon=EPSILON))
    with dense_recording(monkeypatch):
        dense_seconds, dense = _best_of(
            lambda: prepared.solve(T, epsilon=EPSILON, record_scheduler=True)
        )
    recorded_seconds, recorded = _best_of(
        lambda: prepared.solve(T, epsilon=EPSILON, record_scheduler=True)
    )
    assert np.array_equal(plain.values, recorded.values)
    assert np.array_equal(recorded.decisions.dense(), dense.decisions)

    # --- Compression: FTWC N=4, t=100. ---------------------------------
    decisions = recorded.decisions
    ftwc_ratio = decisions.compression_ratio
    assert ftwc_ratio >= MIN_RATIO, (
        f"FTWC compression ratio {ftwc_ratio:.1f} below {MIN_RATIO}"
    )

    # --- Streaming overhead vs the dense recorder. ---------------------
    overhead = recorded_seconds / dense_seconds if dense_seconds > 0 else 1.0
    extraction_overhead = recorded_seconds / plain_seconds if plain_seconds > 0 else 1.0
    assert recorded_seconds <= dense_seconds * (1.0 + RELATIVE_BUDGET) + ABSOLUTE_SLACK, (
        f"streaming overhead {overhead - 1.0:+.1%} over the dense recorder "
        f"exceeds {RELATIVE_BUDGET:.0%}"
    )

    # --- Replay fidelity (induced chain). ------------------------------
    replay_seconds, replay = _best_of(
        lambda: replay_step_scheduler(
            model.ctmdp, model.goal_mask, T, decisions, epsilon=EPSILON
        ),
        repeats=1,
    )
    deviation = abs(
        replay.value(model.ctmdp.initial) - recorded.value(model.ctmdp.initial)
    )
    assert deviation <= EPSILON
    assert replay.certificate is not None and replay.certificate.healthy
    rows, states = decisions.shape
    replay_cells_per_second = (rows * states) / replay_seconds

    # --- Synthetic ~62k-step policy through the streaming writer. ------
    writer = PolicyWriter(num_states=SYNTHETIC_STATES)
    row = np.zeros(SYNTHETIC_STATES, dtype=np.int32)
    started = time.perf_counter()
    for index in range(SYNTHETIC_ROWS):
        if index % 500 == 0:  # sparse decision switches, like real policies
            row[(index // 500) % SYNTHETIC_STATES] += 1
        writer.append(row)
    write_seconds = time.perf_counter() - started
    synthetic = writer.finish()
    synthetic_ratio = synthetic.compression_ratio
    assert synthetic_ratio >= MIN_RATIO
    assert len(synthetic) == SYNTHETIC_ROWS
    write_cells_per_second = (SYNTHETIC_ROWS * SYNTHETIC_STATES) / write_seconds

    out = Path(__file__).resolve().parent.parent / "BENCH_policy.json"
    payload = {
        "workload": {
            "family": "ftwc",
            "n": N,
            "t_hours": T,
            "epsilon": EPSILON,
            "states": prepared.num_states,
            "iterations": int(recorded.iterations),
        },
        "ftwc": {
            "compression_ratio": ftwc_ratio,
            "compressed_bytes": decisions.nbytes,
            "dense_bytes": decisions.dense_nbytes,
            "plain_solve_seconds": plain_seconds,
            "dense_recorded_seconds": dense_seconds,
            "recorded_solve_seconds": recorded_seconds,
            "streaming_vs_dense_ratio": overhead,
            "extraction_vs_plain_ratio": extraction_overhead,
            "replay_seconds": replay_seconds,
            "replay_cells_per_second": replay_cells_per_second,
            "replay_deviation": deviation,
            "replay_certificate_status": replay.certificate.status,
        },
        "synthetic": {
            "rows": SYNTHETIC_ROWS,
            "states": SYNTHETIC_STATES,
            "compression_ratio": synthetic_ratio,
            "compressed_bytes": synthetic.nbytes,
            "dense_bytes": synthetic.dense_nbytes,
            "write_seconds": write_seconds,
            "write_cells_per_second": write_cells_per_second,
        },
        "budget": {
            "min_compression_ratio": MIN_RATIO,
            "relative_overhead": RELATIVE_BUDGET,
            "absolute_slack": ABSOLUTE_SLACK,
        },
        "repeats": REPEATS,
        "timing": "min over repeats",
    }
    append_run(out, "policy-artifacts", payload)
    print(
        f"\nFTWC N={N} t={T:g}: ratio {ftwc_ratio:.1f}x "
        f"({decisions.nbytes} vs {decisions.dense_nbytes} B), "
        f"streaming vs dense {overhead - 1.0:+.1%}, "
        f"extraction vs plain {extraction_overhead - 1.0:+.1%}, "
        f"replay {replay_cells_per_second:,.0f} cells/s, "
        f"deviation {deviation:.2e}; "
        f"synthetic {SYNTHETIC_ROWS} rows: ratio {synthetic_ratio:.1f}x"
    )
