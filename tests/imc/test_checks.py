"""Tests for the IMC linter (:func:`repro.lint.lint_imc`).

Covers the deadlock, Zeno, uniformity, visibility and reachability
scenarios under their stable ``Axxx``/``Uxxx``/``Sxxx`` codes.
"""

from repro.imc.model import IMC, TAU
from repro.lint import Severity, lint_imc
from repro.models.ftwc import build_system_imc


def codes(findings, severity=None):
    return {
        f.code
        for f in findings
        if severity is None or f.severity is severity
    }


class TestLint:
    def test_clean_model(self):
        imc = IMC(num_states=2, markov=[(0, 2.0, 1), (1, 2.0, 0)])
        assert lint_imc(imc) == []

    def test_zeno_cycle_detected(self):
        imc = IMC(
            num_states=3,
            interactive=[(0, TAU, 1), (1, TAU, 0)],
            markov=[(2, 1.0, 0)],
        )
        findings = lint_imc(imc)
        assert "A001" in codes(findings, Severity.ERROR)
        cycle = next(f for f in findings if f.code == "A001")
        assert set(cycle.states) == {0, 1}

    def test_tau_self_loop_is_zeno(self):
        imc = IMC(num_states=1, interactive=[(0, TAU, 0)])
        assert "A001" in codes(lint_imc(imc), Severity.ERROR)

    def test_deadlock_detected(self):
        imc = IMC(num_states=2, markov=[(0, 1.0, 1)])
        findings = lint_imc(imc)
        assert "A002" in codes(findings, Severity.ERROR)
        dead = next(f for f in findings if f.code == "A002")
        assert dead.states == (1,)

    def test_non_uniformity_detected(self):
        imc = IMC(num_states=2, markov=[(0, 1.0, 1), (1, 5.0, 0)])
        findings = lint_imc(imc)
        assert "U001" in codes(findings, Severity.ERROR)
        offender = next(f for f in findings if f.code == "U001")
        assert offender.states == (0,)

    def test_unstable_states_not_flagged_non_uniform(self):
        imc = IMC(
            num_states=2,
            interactive=[(1, TAU, 0)],
            markov=[(0, 1.0, 1), (1, 99.0, 0)],
        )
        assert "U001" not in codes(lint_imc(imc))

    def test_visible_actions_warned_in_closed_view(self):
        imc = IMC(
            num_states=2,
            interactive=[(0, "grab", 1)],
            markov=[(1, 1.0, 0)],
        )
        findings = lint_imc(imc, closed=True)
        assert "S003" in codes(findings, Severity.WARNING)
        assert "S003" not in codes(lint_imc(imc, closed=False))

    def test_unreachable_states_warned(self):
        imc = IMC(num_states=3, markov=[(0, 1.0, 0), (2, 1.0, 2)])
        findings = lint_imc(imc)
        assert "S001" in codes(findings, Severity.WARNING)

    def test_errors_sorted_first(self):
        imc = IMC(
            num_states=4,
            interactive=[(0, "a", 1)],
            markov=[(1, 1.0, 0), (3, 9.0, 3)],
        )
        findings = lint_imc(imc)
        severities = [f.severity for f in findings]
        assert severities == sorted(
            severities, key=lambda s: s is not Severity.ERROR
        )

    def test_ftwc_system_is_clean(self):
        system = build_system_imc(1)
        findings = lint_imc(system.imc)
        assert codes(findings, Severity.ERROR) == set()
