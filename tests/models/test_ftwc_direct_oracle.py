"""The integer-coded FTWC generator against the ``Config``-object reference.

:mod:`repro.models.ftwc_direct` builds both FTWC variants from
mixed-radix configuration codes; :mod:`tests.oracles.ftwc_direct` is
the generator it replaced.  For every drawn size and parameter set the
two must agree bit for bit: the CSR arrays with their dtypes, the row
sources and labels, the initial state, the state names, the goal mask
and the configuration of every state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.models.ftwc_direct import Config, FTWCParameters, build_ctmc, build_ctmdp
from tests.oracles import ftwc_direct as oracle
from tests.oracles.tra import assert_same_model

#: Rates with ties and with every kind of repair as the fastest one
#: (``mu_max``), so the self-loop padding changes between kinds.
RATES = st.sampled_from([0.125, 0.25, 2.0]) | st.floats(1e-3, 10.0)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 6))
    params = FTWCParameters(
        n=n,
        ws_fail=draw(st.floats(1e-4, 1.0)),
        sw_fail=draw(st.floats(1e-4, 1.0)),
        bb_fail=draw(st.floats(1e-4, 1.0)),
        ws_repair=draw(RATES),
        sw_repair=draw(RATES),
        bb_repair=draw(RATES),
    )
    threshold = draw(st.none() | st.integers(1, 2 * n))
    gamma = draw(st.floats(0.1, 100.0))
    return params, threshold, gamma


def assert_same_goal(goal, expected):
    assert goal.dtype == expected.dtype
    np.testing.assert_array_equal(goal, expected)


def assert_same_ctmdp(params, threshold=None):
    model = build_ctmdp(params.n, params, quality_threshold=threshold)
    reference, configs, goal = oracle.build_ctmdp(params.n, params, quality_threshold=threshold)
    assert_same_model(model.ctmdp, reference)
    assert model.ctmdp.state_names == reference.state_names
    assert list(model.configs) == configs
    assert_same_goal(model.goal_mask, goal)
    assert model.params is params


def assert_same_ctmc(params, threshold=None, gamma=10.0):
    chain, configs, goal = build_ctmc(params.n, params, gamma=gamma, quality_threshold=threshold)
    reference, expected_configs, expected_goal = oracle.build_ctmc(
        params.n, params, gamma=gamma, quality_threshold=threshold
    )
    assert_same_model(chain, reference)
    assert chain.state_names == reference.state_names
    assert list(configs) == expected_configs
    assert_same_goal(goal, expected_goal)


class TestDrawnParameters:
    @given(case=cases())
    @settings(max_examples=40, deadline=None)
    def test_ctmdp(self, case):
        params, threshold, _gamma = case
        assert_same_ctmdp(params, threshold)

    @given(case=cases())
    @settings(max_examples=40, deadline=None)
    def test_ctmc(self, case):
        params, threshold, gamma = case
        assert_same_ctmc(params, threshold, gamma)


class TestFixedSizes:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_ctmdp_defaults(self, n):
        assert_same_ctmdp(FTWCParameters(n=n))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ctmc_defaults(self, n):
        assert_same_ctmc(FTWCParameters(n=n))

    @pytest.mark.parametrize("fastest", ["sw_repair", "bb_repair"])
    def test_padding_of_a_slower_workstation_repair(self, fastest):
        params = FTWCParameters(n=3, **{fastest: 4.0})
        assert params.mu_max == 4.0
        assert_same_ctmdp(params)
        assert_same_ctmc(params)

    def test_races_without_padding(self):
        # Failure rates below the float resolution of E(N): the races of
        # repairing configurations sum to E(N) exactly, with no self-loop.
        params = FTWCParameters(n=2, ws_fail=1e-20, sw_fail=1e-20, bb_fail=1e-20)
        assert_same_ctmdp(params)

    @pytest.mark.slow
    def test_ctmdp_n32(self):
        assert_same_ctmdp(FTWCParameters(n=32))


class TestGrabbedStatesWithoutPadding:
    """The reference CTMC build fails (``KeyError``) when a grabbed
    configuration's race needs no padding: it discovers that
    configuration only through its self-loop.  The chain has no
    self-loops, and the grabbed configuration is its state all the same."""

    PARAMS = FTWCParameters(n=1, ws_fail=1e-20, sw_fail=1e-20, bb_fail=1e-20)

    def test_reference_fails(self):
        with pytest.raises(KeyError):
            oracle.build_ctmc(1, self.PARAMS)

    def test_every_grab_reaches_a_state(self):
        chain, configs, _goal = build_ctmc(1, self.PARAMS, gamma=10.0)
        rates = chain.rates
        assert rates.indices.min() >= 0
        assert rates.indices.max() < chain.num_states
        states = {config: state for state, config in enumerate(configs)}
        for state, config in enumerate(configs):
            if config.is_decision_point():
                row = rates.getrow(state)
                out = dict(zip(row.indices.tolist(), row.data.tolist()))
                for kind in config.failed_kinds():
                    grabbed = Config(
                        config.failed_left,
                        config.failed_right,
                        config.sw_left_down,
                        config.sw_right_down,
                        config.bb_down,
                        kind,
                    )
                    assert out[states[grabbed]] == 10.0


class TestInterface:
    @pytest.mark.parametrize("threshold", [0, 5, -1])
    def test_threshold_outside_range(self, threshold):
        for build in (build_ctmdp, build_ctmc):
            with pytest.raises(ModelError, match=r"must lie in 1\.\.4, got"):
                build(2, quality_threshold=threshold)

    def test_configs_decode_on_access(self):
        model = build_ctmdp(2)
        configs = model.configs
        assert len(configs) == model.ctmdp.num_states
        assert configs[0] == Config(0, 0, False, False, False)
        assert configs[-1] == list(configs)[-1]
        assert configs[1:3] == [configs[1], configs[2]]
        with pytest.raises(IndexError):
            configs[len(configs)]

    def test_describe(self):
        model = build_ctmdp(3)
        names = [oracle.describe(config) for config in model.configs]
        assert [config.describe() for config in model.configs] == names
        assert Config(1, 2, True, False, True, "swL").describe() == (
            "fL=1,fR=2,swL=down,swR=up,bb=down,ru=swL"
        )
