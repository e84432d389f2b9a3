"""Overhead budget of the observability layer.

The tracing instrumentation sits inside the hottest loop of the library
(the backward iteration of Algorithm 1), so its *disabled* cost must be
negligible.  This module measures an instrumented Table-1-sized solve
(FTWC N=4, t=100 h: ~2000 states, ~300 sweeps) against a reference
reimplementation of the pre-instrumentation loop running on the same
prepared arrays, asserts the overhead stays within ~5%, and appends the
measurements to the ``BENCH_obs.json`` ledger in the repository root
(one entry per run, keyed by commit and timestamp; see ``_ledger``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_bench_obs.py``.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse._sparsetools import csr_matvec

from _ledger import append_run

from repro.core.reachability import PreparedTimedReachability
from repro.models.ftwc_direct import build_ctmdp
from repro.numerics.foxglynn import fox_glynn
from repro.obs import current_tracer, tracing

N = 4
T = 100.0
EPSILON = 1e-6
REPEATS = 5

#: Multiplicative budget for the disabled-tracer overhead, plus a small
#: absolute allowance for scheduler jitter on a CI box.
RELATIVE_BUDGET = 1.05
ABSOLUTE_SLACK = 2e-3


def _reference_solve(prepared: PreparedTimedReachability, t: float) -> np.ndarray:
    """The pre-instrumentation backward loop, byte-for-byte the same
    active-set arithmetic as ``PreparedTimedReachability.solve`` without
    any tracing hooks -- the baseline the overhead is measured against."""
    active = prepared._active
    fg = fox_glynn(prepared.rate * t, EPSILON)
    psi, left = fg.probabilities().tolist(), fg.left
    num_active = len(active.states)
    num_multi = active.num_multi
    multi_rows = int(active.row_ptr[num_multi])
    n_rows, n_cols = active.matrix.shape
    indptr, indices, data = active.matrix.indptr, active.matrix.indices, active.matrix.data
    q = np.zeros(n_cols)
    transition_values = np.empty(n_rows)
    num_wide = active.num_wide
    wide_rows = transition_values[: active.row_ptr[num_wide]]
    wide_starts, wide = active.multi.starts[:num_wide], q[:num_wide]
    best_calls = active.best_calls(transition_values, q)
    g = 0.0
    for i in range(fg.right, 0, -1):
        psi_i = psi[i - left] if i >= left else 0.0
        transition_values.fill(0.0)
        q[-1] = psi_i
        csr_matvec(n_rows, n_cols, indptr, indices, data, q, transition_values)
        if num_wide:
            np.maximum.reduceat(wide_rows, wide_starts, out=wide)
        for a, b, out in best_calls:
            np.maximum(a, b, out=out)
        q[num_multi:num_active] = transition_values[multi_rows:]
        g = psi_i + g
        q[num_active:-1].fill(g)
    values = np.zeros(prepared.num_states)
    values[active.states] = q[:num_active]
    values[prepared.mask] = 1.0
    np.clip(values, 0.0, 1.0, out=values)
    return values


def _best_of(fn, repeats: int = REPEATS) -> tuple[float, object]:
    """Minimum wall time over ``repeats`` runs (robust against noise)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


@pytest.fixture(scope="module")
def prepared():
    model = build_ctmdp(N)
    return PreparedTimedReachability(model.ctmdp, model.goal_mask)


def test_disabled_tracer_overhead_within_budget(prepared):
    """The headline budget: with no tracer active, the instrumented
    solve must stay within ~5% of the uninstrumented loop."""
    assert current_tracer() is None

    # Warm-up: JIT-free Python, but caches, allocator pools etc. settle.
    _reference_solve(prepared, T)
    prepared.solve(T, epsilon=EPSILON)

    ref_seconds, ref_values = _best_of(lambda: _reference_solve(prepared, T))
    solve_seconds, result = _best_of(lambda: prepared.solve(T, epsilon=EPSILON))

    # Instrumentation must not change the arithmetic.
    np.testing.assert_array_equal(result.values, ref_values)

    budget = ref_seconds * RELATIVE_BUDGET + ABSOLUTE_SLACK
    assert solve_seconds <= budget, (
        f"instrumented solve {solve_seconds * 1e3:.2f} ms exceeds budget "
        f"{budget * 1e3:.2f} ms (reference {ref_seconds * 1e3:.2f} ms)"
    )

    _record_datapoints(prepared, ref_seconds, solve_seconds, result.iterations)


def test_enabled_tracer_still_usable(prepared):
    """Tracing on: the per-step duration collection costs something,
    but the solve must stay within a small factor -- profiling must not
    distort the workload it measures beyond recognition."""
    ref_seconds, _ = _best_of(lambda: _reference_solve(prepared, T), repeats=3)

    def traced():
        with tracing():
            return prepared.solve(T, epsilon=EPSILON)

    traced_seconds, _ = _best_of(traced, repeats=3)
    assert traced_seconds <= ref_seconds * 2.0 + ABSOLUTE_SLACK


def _record_datapoints(prepared, ref_seconds, solve_seconds, iterations):
    out = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
    payload = {
        "workload": {
            "family": "ftwc",
            "n": N,
            "t_hours": T,
            "epsilon": EPSILON,
            "states": prepared.num_states,
            "transitions": prepared.ctmdp.num_transitions,
            "iterations": int(iterations),
        },
        "reference_seconds": ref_seconds,
        "instrumented_disabled_seconds": solve_seconds,
        "overhead_ratio": solve_seconds / ref_seconds if ref_seconds > 0 else None,
        "budget": {"relative": RELATIVE_BUDGET, "absolute_slack": ABSOLUTE_SLACK},
        "repeats": REPEATS,
        "timing": "min over repeats",
    }
    append_run(out, "obs-overhead", payload)
