"""Benchmark: Table 1 -- model generation, transformation and analysis.

Regenerates the measured columns of Table 1: state/transition counts and
memory of the strictly alternating representation, generation time per
``N``, and timed-reachability runtime and iteration counts per time
bound at precision 1e-6.

The paper's most expensive cell (N=128, t=30000 h) took 20867 s on the
authors' Java prototype; here it takes about 26 s (77,323 steps on a
2-vCPU VM) after a 2.5 s model build, too long for the default benchmark
run -- the iteration count it would take is still reported exactly (it
only depends on ``E * t``), see ``repro.analysis.experiments.table1_row``.
Pass larger ``N`` through the CLI (``repro table1 --ns 64 128 --solve
100 30000``) for the full-size columns.
"""

import pytest

from repro.analysis.stats import ctmdp_alternating_statistics
from repro.analysis.experiments import PAPER_TABLE1
from repro.core.reachability import timed_reachability
from repro.models.ftwc_direct import build_ctmdp
from repro.numerics.foxglynn import poisson_right_truncation

GENERATION_SIZES = (1, 2, 4, 8, 16, 32)
ANALYSIS_SIZES = (1, 4, 16)


@pytest.mark.parametrize("n", GENERATION_SIZES)
def test_generate_ftwc_ctmdp(benchmark, n):
    """Column 'Transf. time': building the uCTMDP for each N."""
    model = benchmark(build_ctmdp, n)
    stats = ctmdp_alternating_statistics(model.ctmdp)
    # Structural reproduction check against the paper's Table 1.
    if n in PAPER_TABLE1:
        assert stats.markov_states == PAPER_TABLE1[n][1]
        assert abs(stats.interactive_states - PAPER_TABLE1[n][0]) <= 1
    benchmark.extra_info.update(stats.as_row())


@pytest.mark.parametrize("n", ANALYSIS_SIZES)
def test_reachability_100h(benchmark, n):
    """Column 'Runtime 100 h': Algorithm 1 at the short horizon."""
    model = build_ctmdp(n)

    def solve():
        return timed_reachability(model.ctmdp, model.goal_mask, 100.0, epsilon=1e-6)

    result = benchmark(solve)
    assert 0.0 < result.value(model.ctmdp.initial) < 1.0
    benchmark.extra_info["iterations"] = result.iterations
    benchmark.extra_info["probability"] = result.value(model.ctmdp.initial)


@pytest.mark.parametrize("n", (1, 4))
def test_reachability_1000h(benchmark, n):
    """Longer horizon: runtime scales linearly in the iteration count."""
    model = build_ctmdp(n)

    def solve():
        return timed_reachability(model.ctmdp, model.goal_mask, 1000.0, epsilon=1e-6)

    result = benchmark.pedantic(solve, rounds=3, iterations=1)
    benchmark.extra_info["iterations"] = result.iterations


def test_iteration_counts_30000h_reported():
    """Column '# Iterations 30000 h': exact predictions for every N.

    These agree with the paper's numbers up to the difference in the
    Fox-Glynn truncation bound (ours is a few hundred iterations
    tighter at lambda ~ 6e4).
    """
    for n, paper in PAPER_TABLE1.items():
        model_rate = 2.0 + 2 * n * 0.002 + 2 * 0.00025 + 0.0002
        ours = poisson_right_truncation(model_rate * 30000.0, 1e-6)
        assert abs(ours - paper[5]) / paper[5] < 0.02  # within 2 percent
