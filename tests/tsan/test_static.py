"""Tests for the AST self-lint (``repro lint --self``, the ``Txxx`` codes)."""

from pathlib import Path

import pytest

from repro.errors import ModelError
from repro.lint import lint_path
from repro.tsan import guarded_by, guards_of, held_by_caller, holds_lock
from repro.tsan.static import lint_self, lint_source, source_root

FIXTURES = Path(__file__).parents[1] / "fixtures" / "tsan"


def codes_of(path: Path) -> set[str]:
    return {d.code for d in lint_source([path])}


class TestRegistry:
    def test_guarded_by_records_discipline(self):
        @guarded_by("_lock", "a", "b")
        class Guarded:
            pass

        assert guards_of(Guarded) == {"_lock": frozenset({"a", "b"})}

    def test_guarded_by_merges_multiple_locks(self):
        @guarded_by("_lock_x", "x")
        @guarded_by("_lock_y", "y")
        class TwoLocks:
            pass

        assert guards_of(TwoLocks) == {
            "_lock_x": frozenset({"x"}),
            "_lock_y": frozenset({"y"}),
        }

    def test_subclass_extends_without_mutating_parent(self):
        @guarded_by("_lock", "a")
        class Parent:
            pass

        @guarded_by("_lock", "b")
        class Child(Parent):
            pass

        assert guards_of(Parent) == {"_lock": frozenset({"a"})}
        assert guards_of(Child) == {"_lock": frozenset({"a", "b"})}

    def test_guarded_by_rejects_non_identifiers(self):
        with pytest.raises(ValueError):
            guarded_by("not an identifier", "a")

    def test_holds_lock_is_queryable(self):
        class Store:
            @holds_lock("_lock")
            def _unsafe(self):
                pass

            def safe(self):
                pass

        assert held_by_caller(Store._unsafe) == "_lock"
        assert held_by_caller(Store.safe) is None


class TestPlantedFixtures:
    def test_unguarded_write_is_t001(self):
        diagnostics = lint_source([FIXTURES / "defect_unguarded_write.py"])
        assert {d.code for d in diagnostics} == {"T001"}
        # Both the read and the write of the read-modify-write window.
        messages = "\n".join(d.message for d in diagnostics)
        assert "_count" in messages and "RacyEventLog._lock" in messages

    def test_lock_cycle_is_t002(self):
        diagnostics = lint_source([FIXTURES / "defect_lock_cycle.py"])
        assert {d.code for d in diagnostics} == {"T002"}
        [cycle] = diagnostics
        assert "_journal_lock" in cycle.message
        assert "_ledger_lock" in cycle.message

    def test_undeclared_lock_is_t003(self):
        assert codes_of(FIXTURES / "defect_undeclared_lock.py") == {"T003"}

    def test_float_equality_is_t004(self):
        diagnostics = lint_source([FIXTURES / "defect_float_eq.py"])
        assert [d.code for d in diagnostics] == ["T004", "T004"]

    def test_rate_sum_is_t005(self):
        diagnostics = lint_source([FIXTURES / "defect_rate_sum.py"])
        assert [d.code for d in diagnostics] == ["T005", "T005"]

    def test_locations_are_file_line(self):
        for diagnostic in lint_source([FIXTURES / "defect_float_eq.py"]):
            name, _, line = diagnostic.location.partition(":")
            assert name.endswith("defect_float_eq.py")
            assert line.isdigit()


class TestSuppression:
    def test_targeted_ignore_silences_one_code(self, tmp_path):
        path = tmp_path / "suppressed.py"
        path.write_text(
            "def check(rate: float) -> bool:\n"
            "    return rate == 0.3  # tsan: ignore[T004]\n"
        )
        assert lint_source([path]) == []

    def test_targeted_ignore_keeps_other_codes(self, tmp_path):
        path = tmp_path / "wrong_code.py"
        path.write_text(
            "def check(rate: float) -> bool:\n"
            "    return rate == 0.3  # tsan: ignore[T001]\n"
        )
        assert [d.code for d in lint_source([path])] == ["T004"]

    def test_blanket_ignore(self, tmp_path):
        path = tmp_path / "blanket.py"
        path.write_text(
            "def total(rates: list) -> float:\n"
            "    return sum(rates)  # tsan: ignore\n"
        )
        assert lint_source([path]) == []


class TestNumericRules:
    def test_integral_float_comparison_is_clean(self, tmp_path):
        path = tmp_path / "integral.py"
        path.write_text(
            "def empty(rate: float) -> bool:\n"
            "    return rate == 0.0\n"
        )
        assert lint_source([path]) == []

    def test_signature_module_is_exempt(self):
        # The quantised-signature module owns the one place where raw
        # float comparison over rates is the point.
        base = source_root() / "repro" / "bisim" / "signatures.py"
        assert base.exists()
        assert {
            d.code for d in lint_source([base])
        }.isdisjoint({"T004", "T005"})

    def test_sum_over_non_rates_is_clean(self, tmp_path):
        path = tmp_path / "generated.py"
        path.write_text(
            "def count(generated: list, operate: list) -> float:\n"
            "    return sum(generated) + sum(operate)\n"
        )
        assert lint_source([path]) == []


class TestSelfLint:
    def test_shipped_tree_is_clean(self):
        report = lint_self()
        assert report.exit_code() == 0, report.render_text()

    def test_report_identifies_target(self):
        report = lint_self()
        assert report.kind == "python"
        assert "(self)" in report.target


class TestLintPathRouting:
    def test_py_paths_route_to_self_lint(self):
        report = lint_path(FIXTURES / "defect_float_eq.py")
        assert report.kind == "python"
        assert report.codes() == {"T004"}
        assert report.exit_code() == 1

    def test_unknown_suffix_mentions_py(self, tmp_path):
        stray = tmp_path / "model.yaml"
        stray.write_text("")
        with pytest.raises(ModelError, match=r"\.py"):
            lint_path(stray)
