"""Tests for the diagnostic vocabulary and report rendering."""

import json
import re
from pathlib import Path

import pytest

from repro.lint import (
    CODES,
    Diagnostic,
    LintReport,
    Severity,
    code_title,
    make_diagnostic,
    render_code_table,
    sort_diagnostics,
)


class TestCodes:
    def test_registry_shape(self):
        for code, (severity, title) in CODES.items():
            assert len(code) == 4 and code[0] in "UANSGPQT", code
            assert isinstance(severity, Severity)
            assert title

    def test_issue_anchor_codes_present(self):
        # The codes the diagnostic framework was specified around.
        assert code_title("U001") == "non-uniform exit rates"
        assert "alternation" in code_title("A003")
        assert "NaN" in code_title("N002")

    def test_self_lint_codes_present(self):
        assert "without its lock" in code_title("T001")
        assert "nested lock" in code_title("T002")
        assert "_guarded_by" in code_title("T003")
        assert "float equality" in code_title("T004")
        assert "sum()" in code_title("T005")

    def test_make_diagnostic_defaults_severity(self):
        d = make_diagnostic("U001", "rates differ")
        assert d.severity is Severity.ERROR
        w = make_diagnostic("S001", "unreachable")
        assert w.severity is Severity.WARNING

    def test_make_diagnostic_rejects_unknown_code(self):
        with pytest.raises(KeyError):
            make_diagnostic("X999", "nope")

    def test_severity_override(self):
        d = make_diagnostic("S001", "meh", severity=Severity.ERROR)
        assert d.severity is Severity.ERROR

    def test_docs_table_in_sync_with_registry(self):
        # docs/lint.md embeds the output of render_code_table() between
        # the codes:begin/codes:end markers; regenerate with
        # ``python -m repro.lint.diagnostics``.
        docs = Path(__file__).parents[2] / "docs" / "lint.md"
        text = docs.read_text(encoding="utf-8")
        match = re.search(
            r"<!-- codes:begin -->\n(.*?)<!-- codes:end -->",
            text,
            flags=re.DOTALL,
        )
        assert match is not None, "docs/lint.md lost its codes:begin/end markers"
        assert match.group(1).strip() == render_code_table().strip(), (
            "docs/lint.md code table is stale; regenerate with "
            "`python -m repro.lint.diagnostics`"
        )

    def test_render_code_table_covers_registry(self):
        table = render_code_table()
        rows = re.findall(
            r"^\| ([A-Z]\d{3}) \| (error|warning) \| (.+?) \|$",
            table,
            flags=re.MULTILINE,
        )
        assert {code for code, _, _ in rows} == set(CODES)
        for code, severity, title in rows:
            assert CODES[code][0].value == severity, code
            assert CODES[code][1] == title, code


class TestDiagnostic:
    def test_str_contains_code_and_location(self):
        d = make_diagnostic("N002", "NaN rate", states=[3], location="input")
        assert "[error] N002 [input]: NaN rate" == str(d)

    def test_as_dict_round_trips_through_json(self):
        d = make_diagnostic("A001", "cycle", states=[0, 1])
        loaded = json.loads(json.dumps(d.as_dict()))
        assert loaded["code"] == "A001"
        assert loaded["severity"] == "error"
        assert loaded["states"] == [0, 1]
        assert loaded["title"] == code_title("A001")

    def test_frozen(self):
        d = make_diagnostic("A001", "cycle")
        with pytest.raises(AttributeError):
            d.code = "A002"


class TestSorting:
    def test_errors_before_warnings_then_code(self):
        warning = make_diagnostic("S001", "w")
        error_b = make_diagnostic("U001", "e2")
        error_a = make_diagnostic("A001", "e1")
        assert sort_diagnostics([warning, error_b, error_a]) == [
            error_a,
            error_b,
            warning,
        ]


class TestLintReport:
    def make_report(self, *diagnostics: Diagnostic) -> LintReport:
        report = LintReport(target="t", kind="imc")
        report.extend(diagnostics)
        return report

    def test_clean_report(self):
        report = self.make_report()
        assert not report.has_errors
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 0
        assert "clean" in report.render_text()

    def test_errors_drive_exit_code(self):
        report = self.make_report(make_diagnostic("U001", "boom"))
        assert report.has_errors
        assert report.exit_code() == 1

    def test_strict_promotes_warnings(self):
        report = self.make_report(make_diagnostic("S001", "meh"))
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def test_summary_and_codes(self):
        report = self.make_report(
            make_diagnostic("U001", "e"), make_diagnostic("S001", "w")
        )
        assert report.summary() == {"errors": 1, "warnings": 1}
        assert report.codes() == {"U001", "S001"}

    def test_render_text_lists_findings_sorted(self):
        report = self.make_report(
            make_diagnostic("S001", "warn"), make_diagnostic("U001", "err")
        )
        text = report.render_text()
        assert text.index("U001") < text.index("S001")
        assert "1 error(s), 1 warning(s)" in text

    def test_render_json_is_valid_json(self):
        report = self.make_report(make_diagnostic("N002", "NaN", states=[2]))
        document = json.loads(report.render_json())
        assert document["target"] == "t"
        assert document["summary"] == {"errors": 1, "warnings": 0}
        assert document["diagnostics"][0]["code"] == "N002"
