"""Tests for the per-model-class analyzers."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.ctmdp import CTMDP
from repro.ctmc.model import CTMC
from repro.imc.model import IMC, TAU
from repro.imc.transform import imc_to_ctmdp
from repro.io.json_io import save_model
from repro.lint import (
    Severity,
    lint_ctmc,
    lint_ctmdp,
    lint_dtmdp,
    lint_imc,
    lint_lts,
    lint_model,
    lint_path,
    lint_strict_alternation,
)
from repro.mdp.model import DTMDP


def codes(findings, severity=None):
    return {
        f.code for f in findings if severity is None or f.severity is severity
    }


class TestLintCtmc:
    def test_clean_chain(self):
        chain = CTMC.from_transitions(2, [(0, 1, 1.0), (1, 0, 1.0)])
        assert lint_ctmc(chain) == []

    def test_nan_rate_injected_after_construction(self):
        chain = CTMC.from_transitions(2, [(0, 1, 1.0), (1, 0, 1.0)])
        chain.rates.data[0] = np.nan
        findings = lint_ctmc(chain)
        assert "N002" in codes(findings, Severity.ERROR)
        nan = next(f for f in findings if f.code == "N002")
        assert nan.states == (0,)

    def test_negative_rate_injected(self):
        chain = CTMC.from_transitions(2, [(0, 1, 1.0), (1, 0, 1.0)])
        chain.rates.data[1] = -3.0
        assert "N002" in codes(lint_ctmc(chain), Severity.ERROR)

    def test_non_uniform_flagged_only_on_request(self):
        chain = CTMC.from_transitions(2, [(0, 1, 1.0), (1, 0, 5.0)])
        assert "U001" not in codes(lint_ctmc(chain))
        assert "U001" in codes(
            lint_ctmc(chain, expect_uniform=True), Severity.ERROR
        )

    def test_unreachable_states_warned(self):
        chain = CTMC.from_transitions(3, [(0, 0, 1.0), (2, 2, 1.0)])
        findings = lint_ctmc(chain)
        warning = next(f for f in findings if f.code == "S001")
        assert set(warning.states) == {1, 2}

    def test_goal_checks(self):
        chain = CTMC.from_transitions(2, [(0, 1, 1.0), (1, 0, 1.0)])
        empty = np.zeros(2, dtype=bool)
        assert "G001" in codes(lint_ctmc(chain, goal=empty))
        misshapen = np.zeros(3, dtype=bool)
        assert "G002" in codes(
            lint_ctmc(chain, goal=misshapen), Severity.ERROR
        )
        leaky = np.array([False, True])
        assert "G003" in codes(lint_ctmc(chain, goal=leaky))

    def test_absorbing_goal_not_flagged(self):
        chain = CTMC.from_transitions(2, [(0, 1, 1.0)])
        goal = np.array([False, True])
        assert "G003" not in codes(lint_ctmc(chain, goal=goal))

    def test_dangling_target_injected(self):
        chain = CTMC.from_transitions(2, [(0, 1, 1.0), (1, 0, 1.0)])
        chain.rates.indices[0] = 7
        assert "S002" in codes(lint_ctmc(chain), Severity.ERROR)


class TestLintCtmdp:
    def uniform(self) -> CTMDP:
        return CTMDP.from_transitions(
            2, [(0, "a", {1: 2.0}), (1, "a", {0: 2.0})]
        )

    def test_clean_model(self):
        assert lint_ctmdp(self.uniform()) == []

    def test_non_uniform_rates(self):
        model = CTMDP.from_transitions(
            2, [(0, "a", {1: 1.0}), (1, "a", {0: 5.0})]
        )
        findings = lint_ctmdp(model)
        offender = next(f for f in findings if f.code == "U001")
        assert offender.severity is Severity.ERROR
        assert len(offender.states) >= 1

    def test_uniformity_check_can_be_disabled(self):
        model = CTMDP.from_transitions(
            2, [(0, "a", {1: 1.0}), (1, "a", {0: 5.0})]
        )
        assert "U001" not in codes(lint_ctmdp(model, expect_uniform=False))

    def test_nan_injected_in_csr_data(self):
        model = self.uniform()
        model.rate_matrix.data[0] = np.nan
        assert "N002" in codes(lint_ctmdp(model), Severity.ERROR)

    def test_empty_rate_function(self):
        # from_transitions rejects empty rate functions up front, so the
        # defect is assembled through the raw constructor.
        import scipy.sparse as sp

        matrix = sp.csr_matrix(
            (np.array([2.0, 2.0]), np.array([1, 0]), np.array([0, 0, 1, 2])),
            shape=(3, 2),
        )
        model = CTMDP(
            num_states=2,
            sources=np.array([0, 0, 1]),
            labels=["a", "b", "a"],
            rate_matrix=matrix,
        )
        findings = lint_ctmdp(model)
        assert "S004" in codes(findings, Severity.ERROR)

    def test_choiceless_reachable_state(self):
        model = CTMDP.from_transitions(2, [(0, "a", {1: 2.0})])
        assert "S006" in codes(lint_ctmdp(model, expect_uniform=False))

    def test_goal_mask_shape(self):
        assert "G002" in codes(
            lint_ctmdp(self.uniform(), goal=np.zeros(5, dtype=bool))
        )

    def test_dangling_target_injected(self):
        model = self.uniform()
        model.rate_matrix.indices[0] = 7
        assert "S002" in codes(lint_ctmdp(model), Severity.ERROR)


class TestLintDtmdp:
    def test_clean(self):
        mdp = DTMDP.from_transitions(
            2, [(0, "a", {1: 1.0}), (1, "a", {0: 1.0})]
        )
        assert lint_dtmdp(mdp) == []

    def test_mass_drift_injected(self):
        mdp = DTMDP.from_transitions(
            2, [(0, "a", {1: 1.0}), (1, "a", {0: 1.0})]
        )
        mdp.probabilities.data[0] = 0.7
        findings = lint_dtmdp(mdp)
        drift = next(f for f in findings if f.code == "N001")
        assert drift.states == (0,)

    def test_drift_names_the_source_state(self):
        # Row 1 is state 0's second choice: the finding names state 0.
        mdp = DTMDP.from_transitions(
            2, [(0, "a", {1: 1.0}), (0, "b", {0: 1.0}), (1, "a", {0: 1.0})]
        )
        mdp.probabilities.data[1] = 0.5
        (drift,) = lint_dtmdp(mdp)
        assert (drift.code, drift.states) == ("N001", (0,))

    def test_negative_entry_injected(self):
        mdp = DTMDP.from_transitions(
            2, [(0, "a", {1: 1.0}), (1, "a", {0: 1.0})]
        )
        mdp.probabilities.data[1] = -1.0
        negative = next(f for f in lint_dtmdp(mdp) if f.code == "N002")
        assert negative.severity is Severity.ERROR
        assert negative.states == (1,)

    def test_non_finite_entry_injected(self):
        # The mass check is skipped: a NaN row sum says nothing more.
        mdp = DTMDP.from_transitions(
            2, [(0, "a", {1: 1.0}), (1, "a", {0: 1.0})]
        )
        mdp.probabilities.data[0] = np.inf
        assert codes(lint_dtmdp(mdp)) == {"N002"}

    def test_dangling_target_injected(self):
        mdp = DTMDP.from_transitions(
            2, [(0, "a", {1: 1.0}), (1, "a", {0: 1.0})]
        )
        mdp.probabilities.indices[0] = 7
        assert "S002" in codes(lint_dtmdp(mdp), Severity.ERROR)

    def test_explicitly_stored_zero(self):
        matrix = sp.csr_matrix(
            (np.array([1.0, 0.0, 1.0]), (np.array([0, 0, 1]), np.array([1, 0, 0]))),
            shape=(2, 2),
        )
        mdp = DTMDP(2, np.array([0, 1]), ["a", "a"], matrix)
        assert codes(lint_dtmdp(mdp), Severity.WARNING) == {"N003"}
        assert codes(lint_dtmdp(mdp), Severity.ERROR) == set()


class TestLintLts:
    def test_clean_lts(self):
        lts = IMC(num_states=2, interactive=[(0, "a", 1), (1, "b", 0)])
        assert lint_lts(lts) == []

    def test_markov_transitions_flagged(self):
        hybrid = IMC(
            num_states=2,
            interactive=[(0, "a", 1), (1, "b", 0)],
            markov=[(0, 1.0, 1)],
        )
        assert "A003" in codes(lint_lts(hybrid), Severity.ERROR)

    def test_deadlock_is_warning_only(self):
        lts = IMC(num_states=2, interactive=[(0, "a", 1)])
        findings = lint_lts(lts)
        assert "S006" in codes(findings, Severity.WARNING)
        assert codes(findings, Severity.ERROR) == set()


class TestStrictAlternation:
    def test_transform_output_is_alternating(self):
        imc = IMC(
            num_states=3,
            interactive=[(0, TAU, 1)],
            markov=[(1, 2.0, 2), (2, 2.0, 1)],
        )
        result = imc_to_ctmdp(imc)
        assert lint_strict_alternation(result.alternation.imc) == []

    def test_hybrid_state_flagged(self):
        hybrid = IMC(
            num_states=2,
            interactive=[(0, TAU, 1)],
            markov=[(0, 1.0, 1), (1, 1.0, 0)],
        )
        findings = lint_strict_alternation(hybrid)
        assert "A003" in codes(findings, Severity.ERROR)

    def test_markov_to_markov_flagged(self):
        chain_like = IMC(num_states=2, markov=[(0, 1.0, 1), (1, 1.0, 0)])
        messages = " ".join(
            f.message for f in lint_strict_alternation(chain_like)
        )
        assert "Markov alternation" in messages


class TestLintImcEdgeCases:
    def test_nan_rate_injected_in_transition_list(self):
        imc = IMC(num_states=2, markov=[(0, 2.0, 1), (1, 2.0, 0)])
        imc.markov[0] = (0, float("nan"), 1)
        assert "N002" in codes(lint_imc(imc), Severity.ERROR)

    def test_dangling_index_injected(self):
        imc = IMC(num_states=2, markov=[(0, 2.0, 1), (1, 2.0, 0)])
        imc.markov[0] = (0, 2.0, 7)
        findings = lint_imc(imc)
        assert "S002" in codes(findings, Severity.ERROR)

    #: Longer than the interpreter's default recursion limit.
    LONG = 5_000

    def test_long_interactive_chain(self, tmp_path):
        n = self.LONG
        chain = IMC(
            num_states=n,
            interactive=[(s, "a", s + 1) for s in range(n - 1)],
            markov=[(n - 1, 1.0, 0)],
        )
        path = tmp_path / "chain.json"
        save_model(chain, path)
        assert lint_path(path).codes() == {"U001", "S003"}

    def test_long_tau_cycle_named_in_full(self):
        n = self.LONG
        cycle = IMC(num_states=n, interactive=[(s, TAU, (s + 1) % n) for s in range(n)])
        (zeno,) = [f for f in lint_imc(cycle) if f.code == "A001"]
        assert zeno.states == tuple(range(n))


class TestDispatch:
    def test_dispatches_by_type(self):
        ctmdp = CTMDP.from_transitions(
            2, [(0, "a", {1: 2.0}), (1, "a", {0: 2.0})]
        )
        assert lint_model(ctmdp) == []
        chain = CTMC.from_transitions(2, [(0, 1, 1.0), (1, 0, 1.0)])
        assert lint_model(chain) == []
        lts = IMC(num_states=2, interactive=[(0, "a", 1), (1, "b", 0)])
        assert lint_model(lts) == []
        imc = IMC(num_states=2, markov=[(0, 1.0, 1), (1, 5.0, 0)])
        assert "U001" in codes(lint_model(imc))

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            lint_model(object())
