"""Tests for CTMDP uniformization."""

import numpy as np
import pytest

from repro.core.ctmdp import CTMDP
from repro.core.reachability import timed_reachability
from repro.errors import ModelError
from repro.models.zoo import two_phase_race_ctmdp
from tests.oracles.uniformity import uniformize_ctmdp


class TestUniformize:
    def test_pads_to_max_exit_rate(self):
        ctmdp = CTMDP.from_transitions(
            2, [(0, "a", {1: 1.0}), (1, "b", {0: 4.0})]
        )
        uniform = uniformize_ctmdp(ctmdp)
        assert uniform.is_uniform()
        assert uniform.uniform_rate() == pytest.approx(4.0)
        # The padded transition self-loops with the deficit.
        assert uniform.rate_matrix[0, 0] == pytest.approx(3.0)

    def test_explicit_rate(self):
        ctmdp, _ = two_phase_race_ctmdp()
        padded = uniformize_ctmdp(ctmdp, rate=33.0)
        assert padded.uniform_rate() == pytest.approx(33.0)

    def test_rate_below_max_rejected(self):
        ctmdp, _ = two_phase_race_ctmdp()
        with pytest.raises(ModelError):
            uniformize_ctmdp(ctmdp, rate=1.0)

    def test_nonpositive_rate_rejected(self):
        ctmdp, _ = two_phase_race_ctmdp()
        with pytest.raises(ModelError):
            uniformize_ctmdp(ctmdp, rate=0.0)

    def test_already_uniform_unchanged_at_own_rate(self):
        ctmdp, _ = two_phase_race_ctmdp()
        same = uniformize_ctmdp(ctmdp)
        np.testing.assert_allclose(
            same.rate_matrix.toarray(), ctmdp.rate_matrix.toarray()
        )

    def test_padding_preserves_timed_reachability(self):
        """For already-uniform models, padding only refines the Poisson
        clock: the reachability values are unchanged while the iteration
        count grows proportionally to the rate."""
        ctmdp, goal = two_phase_race_ctmdp()
        padded = uniformize_ctmdp(ctmdp, rate=3.0 * ctmdp.uniform_rate())
        for t in (0.2, 1.0):
            base = timed_reachability(ctmdp, goal, t, epsilon=1e-10)
            more = timed_reachability(padded, goal, t, epsilon=1e-10)
            np.testing.assert_allclose(more.values, base.values, atol=1e-8)
            assert more.iterations > base.iterations
