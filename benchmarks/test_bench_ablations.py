"""Ablation benchmarks for the design choices called out in DESIGN.md.

* sparse versus dense value iteration (the paper stores the transition
  relation "as sparse matrices"; this quantifies why);
* uniform-by-construction versus uniformization after the fact (a larger
  uniform rate costs proportionally more iterations -- the reason the
  shared rate-2 repair clock matters: per-component always-on repair
  clocks would inflate E(128) from ~2.6 to ~514);
* Fox-Glynn versus naive Poisson summation.
"""

import numpy as np
import pytest

from repro.core.reachability import timed_reachability
from repro.models.ftwc_direct import build_ctmdp
from repro.numerics.foxglynn import fox_glynn, poisson_pmf
from tests.oracles.uniformity import uniformize_ctmdp


class TestSparseVsDense:
    N = 8
    T = 100.0

    def _dense_solve(self, model):
        """Reference dense implementation of Algorithm 1 (max)."""
        ctmdp = model.ctmdp
        rate = ctmdp.uniform_rate()
        fg = fox_glynn(rate * self.T, 1e-6)
        psi = fg.probabilities()
        prob = np.asarray(ctmdp.probability_matrix().todense())
        mask = model.goal_mask
        goal_vec = mask.astype(float)
        prob_goal = prob @ goal_vec
        counts = np.diff(ctmdp.choice_ptr)
        nonempty = counts > 0
        starts = ctmdp.choice_ptr[:-1][nonempty]
        q = np.zeros(ctmdp.num_states)
        for i in range(fg.right, 0, -1):
            psi_i = psi[i - fg.left] if i >= fg.left else 0.0
            values = psi_i * prob_goal + prob @ q
            new_q = np.zeros(ctmdp.num_states)
            new_q[nonempty] = np.maximum.reduceat(values, starts)
            new_q[mask] = psi_i + q[mask]
            q = new_q
        q[mask] = 1.0
        return q

    def test_sparse(self, benchmark):
        model = build_ctmdp(self.N)
        result = benchmark(
            timed_reachability, model.ctmdp, model.goal_mask, self.T, 1e-6
        )
        benchmark.extra_info["value"] = result.value(0)

    def test_dense(self, benchmark):
        model = build_ctmdp(self.N)
        values = benchmark(self._dense_solve, model)
        sparse = timed_reachability(model.ctmdp, model.goal_mask, self.T, epsilon=1e-6)
        np.testing.assert_allclose(values, sparse.values, atol=1e-9)


class TestUniformizationPadding:
    """Uniform-by-construction (E ~ 2) versus a padded clock (E ~ 20)."""

    def test_native_rate(self, benchmark):
        model = build_ctmdp(2)
        result = benchmark(
            timed_reachability, model.ctmdp, model.goal_mask, 100.0, 1e-6
        )
        benchmark.extra_info["iterations"] = result.iterations

    def test_padded_rate_10x(self, benchmark):
        model = build_ctmdp(2)
        padded = uniformize_ctmdp(model.ctmdp, rate=10.0 * model.ctmdp.uniform_rate())
        result = benchmark(timed_reachability, padded, model.goal_mask, 100.0, 1e-6)
        # Same probabilities, ~10x the iterations: the price of a big E.
        reference = timed_reachability(model.ctmdp, model.goal_mask, 100.0, epsilon=1e-6)
        np.testing.assert_allclose(result.values, reference.values, atol=1e-7)
        # The Poisson window scales with E t plus an O(sqrt(E t)) margin,
        # so 10x the rate gives clearly more -- but less than 10x more --
        # iterations at this small lambda.
        assert result.iterations > 4 * reference.iterations
        benchmark.extra_info["iterations"] = result.iterations


class TestFoxGlynn:
    LAM = 60_000.0  # the paper's 30000 h horizon at E ~ 2

    def test_fox_glynn(self, benchmark):
        fg = benchmark(fox_glynn, self.LAM, 1e-6)
        benchmark.extra_info["window"] = len(fg)

    def test_naive_summation(self, benchmark):
        """Direct pmf evaluation per index over the same window."""
        fg = fox_glynn(self.LAM, 1e-6)

        def naive():
            return [poisson_pmf(i, self.LAM) for i in range(fg.left, fg.right + 1)]

        values = benchmark.pedantic(naive, rounds=1, iterations=1)
        # Direct lgamma evaluation cancels ~6e5-sized exponents at this
        # lambda, so it is several digits less accurate than the
        # recurrence-based weighter -- part of why Fox-Glynn exists.
        np.testing.assert_allclose(values, fg.probabilities(), rtol=1e-4, atol=1e-12)
