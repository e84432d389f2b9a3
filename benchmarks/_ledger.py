"""Append-style benchmark ledgers.

The ``BENCH_*.json`` files in the repository root are growth ledgers:
every benchmark run appends one entry keyed by the git commit and a UTC
timestamp, so regressions are visible as a series rather than a single
overwritten snapshot.  :func:`append_run` is the single writer -- it
converts a legacy single-run document (the pre-ledger format) into the
first entry and bounds the series length so the files stay reviewable.
"""

import json
import subprocess
from datetime import datetime, timezone
from fnmatch import fnmatch
from pathlib import Path
from typing import Any


def _git(cwd: Path, *args: str) -> str:
    """Standard output of ``git <args>`` run in ``cwd``; empty on failure."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout if out.returncode == 0 else ""


def git_sha(cwd: Path) -> str:
    """The short commit id of the measured tree, or ``"unknown"`` outside
    a checkout.

    The id gets a ``+dirty`` suffix when a tracked file differs from the
    commit.  The root ``BENCH_*.json`` ledgers do not count: appending to
    them is what a benchmark run does.
    """
    sha = _git(cwd, "rev-parse", "--short", "HEAD").strip()
    if not sha:
        return "unknown"
    changed = _git(cwd, "diff", "--name-only", "HEAD").splitlines()
    if any("/" in name or not fnmatch(name, "BENCH_*.json") for name in changed):
        return sha + "+dirty"
    return sha


def append_run(
    path: Path, benchmark: str, payload: dict[str, Any], keep: int = 50
) -> dict[str, Any]:
    """Append one run to the ledger at ``path`` and return the entry.

    ``payload`` is the benchmark's measurement record; the ledger stamps
    it with the commit id and an ISO-8601 UTC timestamp.  The stamps are
    authoritative: ``commit``/``recorded_at`` keys in ``payload`` are
    ignored, so every appended entry carries real provenance and
    ``repro bench trend`` can order runs chronologically.  A pre-ledger
    single-run document found at ``path`` becomes the first entry (with
    unknown provenance).  Only the last ``keep`` runs are retained.
    """
    path = Path(path)
    runs: list[dict[str, Any]] = []
    if path.exists():
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            document = None
        if isinstance(document, dict):
            if isinstance(document.get("runs"), list):
                runs = [run for run in document["runs"] if isinstance(run, dict)]
            else:
                legacy = {
                    key: value for key, value in document.items() if key != "benchmark"
                }
                legacy.setdefault("commit", "unknown")
                legacy.setdefault("recorded_at", None)
                runs = [legacy]
    entry: dict[str, Any] = {
        "commit": git_sha(path.parent),
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    entry.update(
        {k: v for k, v in payload.items() if k not in ("commit", "recorded_at")}
    )
    runs.append(entry)
    runs = runs[-keep:]
    document = {"benchmark": benchmark, "runs": runs}
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return entry
