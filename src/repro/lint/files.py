"""Linting of on-disk model files (``.tra`` and ``.json``).

The strict loaders in :mod:`repro.io` *refuse* pathological input; this
module *diagnoses* it.  ``.tra`` files are scanned leniently (via
:func:`repro.io.tra.scan_tra`) so NaN rates and dangling indices become
``N002``/``S002`` diagnostics instead of a single exception, and only a
file that scans clean of errors is then constructed and run through the
full model analyzer.  ``.json`` model documents (whose schema already
guarantees shape) are loaded and linted directly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import ModelError
from repro.io.json_io import load_model
from repro.io.tra import TraScan, model_from_scan, read_labels, scan_tra
from repro.lint.analyzers import lint_model
from repro.lint.diagnostics import Diagnostic, LintReport, make_diagnostic

__all__ = ["lint_path", "lint_tra_scan", "sibling_goal_mask"]


def lint_tra_scan(scan: TraScan) -> list[Diagnostic]:
    """Value-level diagnostics over a raw ``.tra`` scan.

    Emits ``N002`` for NaN/inf/non-positive rates, ``S002`` for state
    indices outside the declared range and ``S005`` for header counts or
    row metadata that contradict the body.
    """
    findings: list[Diagnostic] = []
    n = scan.num_states

    if scan.kind == "ctmc":
        entries = scan.ctmc_entries
        found = len(entries)
        what = "transitions"
    else:
        entries = scan.ctmdp_entries
        first, inverse, inconsistent = scan.row_groups()
        found = len(first)
        what = "choices"
    src, dst = entries["source"], entries["target"]

    if found != scan.declared:
        findings.append(
            make_diagnostic(
                "S005",
                f"header announced {scan.declared} {what}, found {found}",
            )
        )

    bad_rate_sources = np.unique(src[scan.bad_rates()])
    if len(bad_rate_sources):
        findings.append(
            make_diagnostic(
                "N002",
                f"{len(bad_rate_sources)} state(s) carry NaN/inf/non-positive "
                "rates",
                states=_in_range(bad_rate_sources, n),
            )
        )

    dangling = np.unique(src[(src < 0) | (src >= n) | (dst < 0) | (dst >= n)])
    if len(dangling):
        findings.append(
            make_diagnostic(
                "S002",
                f"transitions reference states outside 1..{n} (1-based)",
                states=_in_range(dangling, n),
            )
        )

    if scan.kind == "ctmdp":
        if not 0 <= scan.initial < n:
            findings.append(
                make_diagnostic(
                    "S002",
                    f"initial state {scan.initial + 1} outside 1..{n} (1-based)",
                )
            )
        if inconsistent.any():
            findings.append(
                make_diagnostic(
                    "S005",
                    f"{len(np.unique(inverse[inconsistent]))} transition row(s) carry "
                    "inconsistent source/action metadata",
                )
            )
    return findings


def _in_range(states: np.ndarray, n: int) -> list[int]:
    return states[(states >= 0) & (states < n)].tolist()


def sibling_goal_mask(path: str | Path, num_states: int) -> np.ndarray | None:
    """The goal mask of the ``.lab`` file next to a model file, if any.

    Prefers a proposition literally named ``"goal"``; otherwise the
    first declared proposition serves.  Returns ``None`` when no
    sibling ``.lab`` exists or it declares nothing.
    """
    lab = Path(path).with_suffix(".lab")
    if not lab.exists():
        return None
    masks = read_labels(lab, num_states)
    if not masks:
        return None
    if "goal" in masks:
        return masks["goal"]
    first = next(iter(masks))
    return masks[first]


def lint_path(path: str | Path, graph: bool = False, **options: bool) -> LintReport:
    """Lint one model file; returns a report tagged with the file path.

    With ``graph=True`` the whole-model graph pass
    (:func:`repro.lint.graph.lint_graph`, the ``Qxxx`` codes) runs as
    well; its goal set is resolved from a sibling ``.lab`` file when
    one exists (proposition ``"goal"`` preferred, else the first
    declared one).

    Raises
    ------
    ModelError
        When the file cannot be parsed at all (missing headers, wrong
        field counts, invalid Python, unknown suffix) -- a usage error,
        not a finding.
    OSError
        When the file cannot be read.
    """
    path = Path(path)
    if path.suffix == ".py":
        # Source files route to the concurrency/numerics self-lint
        # (``Txxx`` codes) -- this is how the planted defect fixtures
        # under ``tests/fixtures/tsan/`` are linted individually.  Imported
        # here so model-only callers never load the AST pass.
        from repro.lint.source import lint_source

        try:
            diagnostics = lint_source([path])
        except SyntaxError as exc:
            raise ModelError(f"not valid Python: {exc}") from None
        report = LintReport(target=str(path), kind="python")
        report.extend(diagnostics)
        return report
    if path.suffix == ".tra":
        scan = scan_tra(path)
        report = LintReport(target=str(path), kind=scan.kind)
        report.extend(lint_tra_scan(scan))
        if not report.has_errors:
            model = model_from_scan(scan)
            report.extend(lint_model(model, **options))
            if graph:
                report.extend(_graph_findings(model, path))
        return report
    if path.suffix == ".json":
        model = load_model(path)
        report = LintReport(
            target=str(path), kind=type(model).__name__.lower()
        )
        report.extend(lint_model(model, **options))
        if graph:
            report.extend(_graph_findings(model, path))
        return report
    raise ModelError(
        f"cannot lint {path}: unknown suffix {path.suffix!r} "
        "(expected .tra, .json or .py)"
    )


def _graph_findings(model, path: Path) -> list[Diagnostic]:
    from repro.lint.graph import lint_graph

    goal = sibling_goal_mask(path, model.num_states)
    return lint_graph(model, goal=goal)
