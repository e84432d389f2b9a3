"""Tests for the pipeline invariant pass (Lemmas 1-3, Section 4.1)."""

from repro.imc.composition import parallel
from repro.imc.model import IMC, TAU
from repro.lint import check_hiding_invariant, lint_pipeline
from repro.lint.diagnostics import Diagnostic, make_diagnostic
from repro.lint.pipeline import _rates_agree
from repro.models.ftwc import build_system_imc


def codes(findings):
    return {f.code for f in findings}


def check_composition_invariant(
    left: IMC, right: IMC, sync: tuple[str, ...] = ()
) -> list[Diagnostic]:
    """Lemma 2 on the production ``parallel``: the product of two uniform
    IMCs is uniform, with the two rates added (``P005`` otherwise)."""
    if not (left.is_uniform(closed=False) and right.is_uniform(closed=False)):
        return []
    expected = left.uniform_rate(closed=False) + right.uniform_rate(closed=False)
    product = parallel(left, right, sync=sync)
    if not product.is_uniform(closed=False):
        return [
            make_diagnostic(
                "P005",
                "the parallel product of two uniform IMCs is not uniform "
                "although Lemma 2 guarantees it",
                location="composition",
            )
        ]
    actual = product.uniform_rate(closed=False)
    if not _rates_agree(expected, actual):
        return [
            make_diagnostic(
                "P005",
                f"product uniform rate is {actual:g}, expected "
                f"E_left + E_right = {expected:g} (Lemma 2)",
                location="composition",
            )
        ]
    return []


def uniform_imc(rate: float = 2.0) -> IMC:
    return IMC(
        num_states=3,
        interactive=[(0, TAU, 1)],
        markov=[(1, rate, 2), (2, rate, 0)],
    )


class TestInvariantChecks:
    def test_hiding_preserves_uniformity(self):
        imc = IMC(
            num_states=2,
            interactive=[(0, "go", 1)],
            markov=[(1, 3.0, 0)],
        )
        assert check_hiding_invariant(imc) == []

    def test_hiding_skipped_for_non_uniform_input(self):
        non_uniform = IMC(num_states=2, markov=[(0, 1.0, 1), (1, 5.0, 0)])
        assert check_hiding_invariant(non_uniform) == []

    def test_composition_adds_rates(self):
        left = uniform_imc(2.0)
        right = uniform_imc(3.0)
        assert check_composition_invariant(left, right) == []

    def test_composition_with_sync(self):
        left = IMC(
            num_states=2, interactive=[(0, "go", 1)], markov=[(1, 2.0, 0)]
        )
        right = IMC(
            num_states=2, interactive=[(0, "go", 1)], markov=[(1, 1.0, 0)]
        )
        assert check_composition_invariant(left, right, sync=("go",)) == []


class TestLintPipeline:
    def test_clean_uniform_input(self):
        findings = lint_pipeline(uniform_imc())
        assert {f.code for f in findings if f.severity.value == "error"} == set()

    def test_non_uniform_input_skips_transform_stages(self):
        non_uniform = IMC(num_states=2, markov=[(0, 1.0, 1), (1, 5.0, 0)])
        findings = lint_pipeline(non_uniform)
        found = codes(findings)
        assert "U001" in found
        # Fatal input defects gate the downstream stages entirely.
        assert not any(code.startswith("P") for code in found)
        assert not any(f.location in ("bisim", "alternating", "ctmdp") for f in findings)

    def test_zeno_input_reported_not_crashed(self):
        zeno = IMC(
            num_states=2,
            interactive=[(0, TAU, 1), (1, TAU, 0)],
            markov=[],
        )
        findings = lint_pipeline(zeno)
        assert "A001" in codes(findings)

    def test_ftwc_pipeline_is_invariant_clean(self):
        system = build_system_imc(1)
        findings = lint_pipeline(system.imc)
        errors = [f for f in findings if f.severity.value == "error"]
        assert errors == []

    def test_stage_locations_are_tagged(self):
        findings = lint_pipeline(uniform_imc())
        for finding in findings:
            assert finding.location in (
                "input",
                "hiding",
                "composition",
                "bisim",
                "alternating",
                "ctmdp",
            )
