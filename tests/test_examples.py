"""Smoke tests: every example script must run to completion.

Examples are documentation that executes; a broken example is a bug.
The heavyweight FTWC sweep examples are marked slow and excluded from
the default run (``-m "not slow"`` has no effect by default since we do
run them; they take tens of seconds).
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: float = 300.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "uniform rate E = 4.10" in out
        assert "worst-case P" in out

    def test_scheduler_extraction(self):
        out = run_example("scheduler_extraction.py")
        assert "sup over schedulers" in out
        assert "Equal to the analytic optimum: True" in out

    def test_time_constraints(self):
        out = run_example("time_constraints.py")
        assert "quotient analyses identically (worst and best case): True" in out

    def test_job_scheduling(self):
        out = run_example("job_scheduling.py")
        assert "best schedule" in out
        assert "first decision" in out

    @pytest.mark.slow
    def test_ftwc_analysis(self):
        out = run_example("ftwc_analysis.py", timeout=600.0)
        assert "Table 1" in out
        assert "agree" in out

    @pytest.mark.slow
    def test_ftwc_sensitivity(self):
        out = run_example("ftwc_sensitivity.py", timeout=600.0)
        assert "redundancy" in out
        assert "expected time" in out
