"""Tests for CTMC expected hitting times."""

import numpy as np
import pytest

from repro.ctmc.hitting import expected_hitting_time
from repro.ctmc.model import CTMC
from repro.ctmc.uniformization import uniformize
from repro.errors import ModelError


class TestAnalytic:
    def test_single_step(self):
        chain = CTMC.from_transitions(2, [(0, 1, 4.0)])
        times = expected_hitting_time(chain, [1])
        np.testing.assert_allclose(times, [0.25, 0.0])

    def test_erlang_chain(self):
        chain = CTMC.from_transitions(3, [(0, 1, 2.0), (1, 2, 2.0)])
        times = expected_hitting_time(chain, [2])
        np.testing.assert_allclose(times, [1.0, 0.5, 0.0])

    def test_birth_death_cycle(self):
        # 0 <-> 1 -> 2: from 0, h0 = 1/2 + h1; h1 = 1/(1+3) + (3/4) h0
        # + (1/4)*0 with rates 1->0 at 3, 1->2 at 1.
        chain = CTMC.from_transitions(
            3, [(0, 1, 2.0), (1, 0, 3.0), (1, 2, 1.0)]
        )
        times = expected_hitting_time(chain, [2])
        h1 = times[1]
        h0 = times[0]
        assert h0 == pytest.approx(0.5 + h1)
        assert h1 == pytest.approx(0.25 + 0.75 * h0)

    def test_self_loops_do_not_matter(self):
        plain = CTMC.from_transitions(2, [(0, 1, 4.0)])
        looped = uniformize(plain, rate=100.0)
        np.testing.assert_allclose(
            expected_hitting_time(looped, [1]),
            expected_hitting_time(plain, [1]),
            atol=1e-10,
        )


class TestInfinite:
    def test_unreachable(self):
        chain = CTMC.from_transitions(3, [(0, 1, 1.0), (1, 0, 1.0)])
        times = expected_hitting_time(chain, [2])
        assert np.isinf(times[0]) and np.isinf(times[1])
        assert times[2] == 0.0

    def test_possible_absorption_elsewhere(self):
        # 0 can fall into absorbing trap 2 before reaching 1.
        chain = CTMC.from_transitions(3, [(0, 1, 1.0), (0, 2, 1.0)])
        times = expected_hitting_time(chain, [1])
        assert np.isinf(times[0])

    def test_empty_goal(self):
        chain = CTMC.from_transitions(2, [(0, 1, 1.0)])
        assert np.isinf(expected_hitting_time(chain, [])).all()

    def test_bad_mask_shape(self):
        chain = CTMC.from_transitions(2, [(0, 1, 1.0)])
        with pytest.raises(ModelError):
            expected_hitting_time(chain, np.array([True]))


class TestConsistency:
    def test_matches_ctmdp_solver_on_induced_chain(self):
        from repro.core.expected_time import expected_time_analysis
        from repro.models.ftwc_direct import build_ctmdp

        model = build_ctmdp(1)
        # Fix a stationary scheduler (first choice everywhere) and
        # compare the chain solver against the MDP solver's bracketing.
        chain = model.ctmdp.induced_ctmc(np.zeros(model.ctmdp.num_states, dtype=int))
        chain_time = expected_hitting_time(chain, model.goal_mask)[model.ctmdp.initial]
        best = expected_time_analysis(model.ctmdp, model.goal_mask, "min").values
        worst = expected_time_analysis(model.ctmdp, model.goal_mask, "max").values
        assert best[model.ctmdp.initial] - 1e-6 <= chain_time
        assert chain_time <= worst[model.ctmdp.initial] + 1e-6
