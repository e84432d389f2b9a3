"""Tests for the AST self-lint (``repro lint --self``, the ``Txxx`` codes)."""

from pathlib import Path

import pytest

from repro.errors import ModelError
from repro.lint import lint_path
from repro.lint.source import lint_self, lint_source, source_root

FIXTURES = Path(__file__).parents[1] / "fixtures" / "tsan"


def codes_of(path: Path) -> set[str]:
    return {d.code for d in lint_source([path])}


def write_source(path: Path, *lines: str) -> Path:
    path.write_text("\n".join(lines) + "\n")
    return path


class TestRegistry:
    """The ``_guarded_by`` class attribute, as the static pass reads it."""

    def test_guarded_by_records_discipline(self, tmp_path):
        path = write_source(
            tmp_path / "declared.py",
            "import threading",
            "class Guarded:",
            "    _guarded_by = {'_lock': ('a', 'b')}",
            "    def __init__(self):",
            "        self._lock = threading.Lock()",
            "        self.a = self.b = 0",
            "    def safe(self):",
            "        with self._lock:",
            "            self.a += 1",
            "    def unsafe(self):",
            "        self.b = 1",
        )
        [finding] = lint_source([path])
        assert finding.code == "T001"
        assert "Guarded.b" in finding.message and "Guarded._lock" in finding.message

    def test_guarded_by_merges_multiple_locks(self, tmp_path):
        path = write_source(
            tmp_path / "two_locks.py",
            "import threading",
            "class TwoLocks:",
            "    _guarded_by = {'_lock_x': ('x',), '_lock_y': ('y',)}",
            "    def __init__(self):",
            "        self._lock_x = threading.Lock()",
            "        self._lock_y = threading.Lock()",
            "        self.x = self.y = 0",
            "    def wrong_lock(self):",
            "        with self._lock_y:",
            "            self.x += 1",
        )
        [finding] = lint_source([path])
        assert finding.code == "T001"
        assert "TwoLocks.x is guarded by TwoLocks._lock_x" in finding.message

    def test_subclass_extends_without_mutating_parent(self, tmp_path):
        path = write_source(
            tmp_path / "inherited.py",
            "import threading",
            "class Parent:",
            "    _guarded_by = {'_lock': ('a',)}",
            "    def __init__(self):",
            "        self._lock = threading.Lock()",
            "        self.a = 0",
            "    def touch_b(self):",
            "        self.b = 1",
            "class Child(Parent):",
            "    _guarded_by = {'_lock': ('b',)}",
            "    def touch_a(self):",
            "        self.a = 1",
            "    def touch_b_again(self):",
            "        self.b = 2",
        )
        findings = lint_source([path])
        # The child inherits the parent's lock and its guard on ``a``;
        # the parent does not learn the child's guard on ``b``.
        assert [(d.code, d.location) for d in findings] == [
            ("T001", "inherited.py:12"),
            ("T001", "inherited.py:14"),
        ]

    def test_bare_string_declaration_is_t003(self, tmp_path):
        # ``("_records")`` is a string, not a one-element tuple.
        path = write_source(
            tmp_path / "malformed.py",
            "import threading",
            "class Log:",
            "    _guarded_by = {'_lock': ('_records')}",
            "    def __init__(self):",
            "        self._lock = threading.Lock()",
        )
        assert [d.code for d in lint_source([path])] == ["T003"]


class TestPlantedFixtures:
    def test_unguarded_write_is_t001(self):
        diagnostics = lint_source([FIXTURES / "defect_unguarded_write.py"])
        assert {d.code for d in diagnostics} == {"T001"}
        # Both the read and the write of the read-modify-write window.
        messages = "\n".join(d.message for d in diagnostics)
        assert "_count" in messages and "RacyEventLog._lock" in messages

    def test_lock_cycle_is_t002(self):
        # One finding per nesting site, each naming both locks.
        diagnostics = lint_source([FIXTURES / "defect_lock_cycle.py"])
        assert [d.code for d in diagnostics] == ["T002", "T002"]
        for nesting in diagnostics:
            assert "_journal_lock" in nesting.message
            assert "_ledger_lock" in nesting.message

    def test_consistent_nesting_is_t002(self, tmp_path):
        # No cycle here -- every path takes _outer before _inner -- but
        # any nested acquisition is reported.
        path = write_source(
            tmp_path / "nested.py",
            "import threading",
            "class Pair:",
            "    _guarded_by = {'_outer': ('a',), '_inner': ('b',)}",
            "    def __init__(self):",
            "        self._outer = threading.Lock()",
            "        self._inner = threading.Lock()",
            "        self.a = self.b = 0",
            "    def bump(self):",
            "        with self._outer:",
            "            with self._inner:",
            "                self.a += 1",
            "                self.b += 1",
            "    def bump_again(self):",
            "        with self._outer, self._inner:",
            "            self.a += 1",
            "            self.b += 1",
        )
        findings = lint_source([path])
        assert [d.location for d in findings] == ["nested.py:10", "nested.py:14"]
        for finding in findings:
            assert finding.code == "T002"
            assert "Pair._inner acquired while holding Pair._outer" in finding.message

    def test_call_through_relock_is_t002(self, tmp_path):
        path = write_source(
            tmp_path / "relock.py",
            "import threading",
            "class Counter:",
            "    _guarded_by = {'_lock': ('n',)}",
            "    def __init__(self):",
            "        self._lock = threading.Lock()",
            "        self.n = 0",
            "    def count(self):",
            "        with self._lock:",
            "            self.n += 1",
            "    def count_twice(self):",
            "        with self._lock:",
            "            self.count()",
        )
        [finding] = lint_source([path])
        assert finding.code == "T002"
        assert finding.location == "relock.py:12"
        assert "Counter._lock (via count())" in finding.message

    def test_sequential_locks_are_clean(self, tmp_path):
        path = write_source(
            tmp_path / "sequential.py",
            "import threading",
            "class Pair:",
            "    _guarded_by = {'_outer': ('a',), '_inner': ('b',)}",
            "    def __init__(self):",
            "        self._outer = threading.Lock()",
            "        self._inner = threading.Lock()",
            "        self.a = self.b = 0",
            "    def bump(self):",
            "        with self._outer:",
            "            self.a += 1",
            "        with self._inner:",
            "            self.b += 1",
        )
        assert lint_source([path]) == []

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
