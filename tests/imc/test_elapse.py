"""Tests for the elapse operator (phase-type time constraints)."""

import math

import pytest

from repro.core.reachability import timed_reachability
from repro.ctmc.phase_type import PhaseType
from repro.errors import CompositionError
from repro.imc.composition import hide_all_but, parallel
from repro.imc.elapse import elapse
from repro.imc.lts import lts
from repro.imc.model import TAU
from repro.imc.transform import imc_to_ctmdp


class TestStructure:
    def test_uniform_by_construction(self):
        constraint = elapse(PhaseType.erlang(3, 2.0), fire="f", reset="r")
        assert constraint.is_uniform()
        assert constraint.uniform_rate() == pytest.approx(2.0)

    def test_fire_only_enabled_in_expired_state(self):
        constraint = elapse(PhaseType.exponential(1.0), fire="f", reset="r")
        fire_sources = {src for src, action, _ in constraint.interactive if action == "f"}
        expired = constraint.state_names.index("expired")
        assert fire_sources == {expired}

    def test_reset_enabled_everywhere_but_armed(self):
        constraint = elapse(PhaseType.erlang(2, 1.0), fire="f", reset="r")
        reset_sources = {src for src, action, _ in constraint.interactive if action == "r"}
        armed = constraint.state_names.index("armed")
        assert reset_sources == set(range(constraint.num_states)) - {armed}

    def test_reset_leads_to_armed_state(self):
        constraint = elapse(PhaseType.exponential(1.0), fire="f", reset="r")
        armed = constraint.state_names.index("armed")
        for _src, action, dst in constraint.interactive:
            if action == "r":
                assert dst == armed

    def test_started_flag_controls_initial_state(self):
        armed = elapse(PhaseType.exponential(1.0), fire="f", reset="r", started=True)
        waiting = elapse(PhaseType.exponential(1.0), fire="f", reset="r", started=False)
        assert armed.state_names[armed.initial] == "armed"
        assert waiting.state_names[waiting.initial] == "expired"

    def test_explicit_uniform_rate(self):
        constraint = elapse(
            PhaseType.exponential(1.0), fire="f", reset="r", uniform_rate=5.0
        )
        assert constraint.uniform_rate() == pytest.approx(5.0)

    def test_tau_actions_rejected(self):
        ph = PhaseType.exponential(1.0)
        with pytest.raises(CompositionError):
            elapse(ph, fire=TAU, reset="r")
        with pytest.raises(CompositionError):
            elapse(ph, fire="f", reset=TAU)

    def test_equal_actions_rejected(self):
        with pytest.raises(CompositionError):
            elapse(PhaseType.exponential(1.0), fire="x", reset="x")


class TestBehaviour:
    @pytest.mark.parametrize(
        "ph, cdf",
        [
            (PhaseType.exponential(2.0), lambda t: 1.0 - math.exp(-2.0 * t)),
            (
                PhaseType.erlang(2, 2.0),
                lambda t: 1.0 - math.exp(-2.0 * t) * (1.0 + 2.0 * t),
            ),
        ],
    )
    def test_constrained_event_has_phase_type_delay(self, ph, cdf):
        """Composing ``El(ph, f, r)`` with an LTS that wants to do ``f``
        delays ``f`` exactly by ``ph``: the probability of having seen
        ``f`` by time ``t`` equals the cdf."""
        behaviour = lts(2, [(0, "f", 1)], state_names=["waiting", "done"])
        constraint = elapse(ph, fire="f", reset="r")
        system = hide_all_but(parallel(behaviour, constraint, sync=["f", "r"]))
        result = imc_to_ctmdp(system)
        behaviour_done = result.goal_mask_from_predicate(
            lambda s: system.name_of(s).split("|")[0] == "done", via="markov"
        )
        for t in (0.2, 0.5, 1.5):
            value = timed_reachability(result.ctmdp, behaviour_done, t, epsilon=1e-10)
            assert value.value(result.ctmdp.initial) == pytest.approx(cdf(t), abs=1e-8)

    def test_reset_rearms_the_clock(self):
        """fire, reset, fire again: the second fire needs a fresh delay,
        so seeing both fires takes an Erlang(2) distributed time."""
        behaviour = lts(
            4,
            [(0, "f", 1), (1, "r", 2), (2, "f", 3)],
            state_names=["w1", "mid", "w2", "end"],
        )
        constraint = elapse(PhaseType.exponential(1.0), fire="f", reset="r")
        system = hide_all_but(parallel(behaviour, constraint, sync=["f", "r"]))
        result = imc_to_ctmdp(system)
        finished = result.goal_mask_from_predicate(
            lambda s: system.name_of(s).split("|")[0] == "end", via="markov"
        )
        t = 2.0
        expected = 1.0 - math.exp(-t) * (1.0 + t)  # Erlang(2, 1) cdf
        value = timed_reachability(result.ctmdp, finished, t, epsilon=1e-10)
        assert value.value(result.ctmdp.initial) == pytest.approx(expected, abs=1e-8)
