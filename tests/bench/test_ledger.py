"""A ledger entry names the tree it measured.

``benchmarks/_ledger.py:git_sha`` stamps ``<sha>+dirty`` when a tracked
file other than a root ``BENCH_*.json`` ledger differs from HEAD.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "_ledger.py"
_spec = importlib.util.spec_from_file_location("_ledger", LEDGER)
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)


def git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
         "-c", "commit.gpgsign=false", *args],
        cwd=repo,
        check=True,
        capture_output=True,
        text=True,
    ).stdout.strip()


@pytest.fixture
def repo(tmp_path):
    git(tmp_path, "init", "-q")
    (tmp_path / "BENCH_engine.json").write_text("{}\n")
    (tmp_path / "solver.py").write_text("STEPS = 1\n")
    git(tmp_path, "add", ".")
    git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


def test_clean_tree_is_stamped_with_head(repo):
    assert ledger.git_sha(repo) == git(repo, "rev-parse", "--short", "HEAD")


def test_changed_ledger_is_still_clean(repo):
    (repo / "BENCH_engine.json").write_text('{"runs": []}\n')
    assert ledger.git_sha(repo) == git(repo, "rev-parse", "--short", "HEAD")


def test_changed_source_is_dirty(repo):
    (repo / "solver.py").write_text("STEPS = 2\n")
    assert ledger.git_sha(repo) == git(repo, "rev-parse", "--short", "HEAD") + "+dirty"
