"""The unified diagnostic vocabulary of the ``repro.lint`` subsystem.

Every analyzer in this package reports problems as :class:`Diagnostic`
records carrying a *stable code* (``U001``, ``A003``, ``N002``, ...), a
severity, a human-readable message and the offending state indices.
Stable codes make findings machine-checkable: CI can assert "the FTWC
lints clean", a test can assert "this defect fixture yields exactly
``U001`` and ``N002``", and suppression lists survive message rewording.

The code space is partitioned by concern:

* ``Uxxx`` -- uniformity (the paper's central invariant, Definition 4);
* ``Axxx`` -- alternation and interactive structure (Zeno cycles,
  deadlocks, strict-alternation violations of Section 4.1);
* ``Nxxx`` -- numerics (NaN/inf/negative rates, distribution mass and
  generator row-sum drift, sparse-storage anomalies);
* ``Sxxx`` -- structure (dangling indices, unreachable states, empty
  rate functions, inconsistent internal storage);
* ``Gxxx`` -- goal-set plumbing (empty or ill-shaped goal masks);
* ``Pxxx`` -- pipeline invariants (Lemmas 1-3 and the strictly
  alternating transform);
* ``Qxxx`` -- whole-model graph analysis (qualitative reachability,
  end-component traps, deadlocks, vanishing-state cycles; see
  :mod:`repro.lint.graph` and :mod:`repro.graph`).

:class:`LintReport` aggregates diagnostics across several targets (a
model, a file, a pipeline stage) and renders them as text or JSON; its
:meth:`LintReport.exit_code` implements the CLI contract (0 clean,
1 findings, callers map load failures to 2).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

__all__ = [
    "Severity",
    "Diagnostic",
    "LintReport",
    "CODES",
    "code_title",
    "make_diagnostic",
    "render_code_table",
    "sort_diagnostics",
]


class Severity(enum.Enum):
    """How bad a finding is."""

    ERROR = "error"  #: the transformation/analysis will fail or be unsound
    WARNING = "warning"  #: suspicious but well-defined

    @property
    def rank(self) -> int:
        """Sort key: errors first."""
        return 0 if self is Severity.ERROR else 1


#: The registry of stable diagnostic codes: code -> (default severity, title).
#: ``docs/lint.md`` renders this table; tests assert the two stay in sync.
CODES: dict[str, tuple[Severity, str]] = {
    # --- Uniformity -----------------------------------------------------
    "U001": (Severity.ERROR, "non-uniform exit rates"),
    "U002": (Severity.WARNING, "uniform rate undefined (no rate-bearing states)"),
    # --- Alternation / interactive structure ----------------------------
    "A001": (Severity.ERROR, "interactive cycle (Zeno under urgency)"),
    "A002": (Severity.ERROR, "interactive deadlock (reachable absorbing state)"),
    "A003": (Severity.ERROR, "strict-alternation violation"),
    # --- Numerics -------------------------------------------------------
    "N001": (Severity.ERROR, "distribution mass / generator row-sum drift"),
    "N002": (Severity.ERROR, "NaN/inf/negative rate"),
    "N003": (Severity.WARNING, "sparse-storage anomaly (duplicates, explicit zeros)"),
    # --- Structure ------------------------------------------------------
    "S001": (Severity.WARNING, "unreachable states"),
    "S002": (Severity.ERROR, "dangling state index"),
    "S003": (Severity.WARNING, "visible actions in a closed model"),
    "S004": (Severity.ERROR, "empty rate function"),
    "S005": (Severity.ERROR, "inconsistent internal storage"),
    "S006": (Severity.WARNING, "absorbing states"),
    # --- Goal plumbing --------------------------------------------------
    "G001": (Severity.WARNING, "empty goal set"),
    "G002": (Severity.ERROR, "goal mask shape mismatch"),
    "G003": (Severity.WARNING, "goal states are not absorbing"),
    # --- Pipeline invariants (Lemmas 1-3, Section 4.1) ------------------
    "P001": (Severity.ERROR, "transformation to strictly alternating form failed"),
    "P002": (Severity.ERROR, "uniform rate not preserved by the transformation"),
    "P003": (Severity.ERROR, "bisimulation quotient broke uniformity (Lemma 3)"),
    "P004": (Severity.ERROR, "hiding broke uniformity (Lemma 1)"),
    "P005": (Severity.ERROR, "parallel composition broke rate additivity (Lemma 2)"),
    "P006": (Severity.ERROR, "quotient block members disagree on cumulative rates"),
    # --- Whole-model graph analysis --------------------------------------
    "Q001": (Severity.ERROR, "goal unreachable from the initial state"),
    "Q002": (Severity.WARNING, "goal-free absorbing end component (probability trap)"),
    "Q003": (Severity.ERROR, "reachable deadlock state"),
    "Q004": (Severity.ERROR, "vanishing-state cycle (interactive SCC)"),
    # --- Concurrency / numeric self-lint (repro.lint.source) --------------
    "T001": (Severity.ERROR, "guarded attribute accessed without its lock"),
    "T002": (Severity.ERROR, "nested lock acquisition (potential deadlock)"),
    "T003": (Severity.ERROR, "lock attribute without _guarded_by declaration"),
    "T004": (Severity.ERROR, "bare float equality comparison"),
    "T005": (Severity.ERROR, "order-dependent sum() over rates"),
}


def code_title(code: str) -> str:
    """The registered one-line title of ``code``."""
    return CODES[code][1]


def render_code_table() -> str:
    """The :data:`CODES` registry as a GitHub-flavoured markdown table.

    ``docs/lint.md`` embeds exactly this rendering between the
    ``<!-- codes:begin -->`` / ``<!-- codes:end -->`` markers; the drift
    test in ``tests/lint/test_diagnostics.py`` regenerates the table and
    fails when a code is added without refreshing the docs (run
    ``python -m repro.lint.diagnostics`` to print a fresh table).
    """
    lines = [
        "| code | severity | meaning |",
        "|------|----------|---------|",
    ]
    for code in sorted(CODES):
        severity, title = CODES[code]
        lines.append(f"| {code} | {severity.value} | {title} |")
    return "\n".join(lines)


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static analyzer.

    Attributes
    ----------
    code:
        Stable diagnostic code from :data:`CODES` (e.g. ``"U001"``).
    severity:
        :class:`Severity` of this occurrence (usually the code's default).
    message:
        Human-readable explanation with concrete numbers and names.
    states:
        Offending state indices, if localisable.
    location:
        Which target or pipeline stage produced the finding (e.g.
        ``"imc"``, ``"transform"``, ``"registry:disk"``); empty for
        single-model lints.
    """

    code: str
    severity: Severity
    message: str
    states: tuple[int, ...] = ()
    location: str = ""

    @property
    def title(self) -> str:
        """The registered title of this diagnostic's code."""
        return code_title(self.code)

    def as_dict(self) -> dict[str, Any]:
        """JSON-compatible record."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "title": self.title,
            "message": self.message,
            "states": list(self.states),
            "location": self.location,
        }

    def __str__(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        return f"[{self.severity.value}] {self.code}{where}: {self.message}"


def make_diagnostic(
    code: str,
    message: str,
    states: Iterable[int] = (),
    location: str = "",
    severity: Severity | None = None,
) -> Diagnostic:
    """Build a :class:`Diagnostic`, defaulting severity from :data:`CODES`.

    Unknown codes are rejected so analyzers cannot silently invent
    undocumented codes.
    """
    if code not in CODES:
        raise KeyError(f"unregistered diagnostic code {code!r}")
    return Diagnostic(
        code=code,
        severity=severity if severity is not None else CODES[code][0],
        message=message,
        states=tuple(int(s) for s in states),
        location=location,
    )


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    """Deterministic order: errors first, then by code, location, states."""
    return sorted(
        diagnostics,
        key=lambda d: (d.severity.rank, d.code, d.location, d.states),
    )


@dataclass
class LintReport:
    """Diagnostics for one lint run, possibly spanning several targets.

    ``target`` names what was linted (a file path, a builtin model spec,
    a pipeline description); ``kind`` its model class where known.
    """

    target: str = ""
    kind: str = ""
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        """Append findings (re-sorted lazily at render time)."""
        self.diagnostics.extend(diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(sort_diagnostics(self.diagnostics))

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        """Error-level findings."""
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        """Warning-level findings."""
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    def codes(self) -> set[str]:
        """The set of distinct codes present."""
        return {d.code for d in self.diagnostics}

    def exit_code(self, strict: bool = False) -> int:
        """CLI exit code: 0 clean, 1 errors (or warnings under ``strict``)."""
        if self.has_errors or (strict and self.warnings):
            return 1
        return 0

    def summary(self) -> dict[str, int]:
        """Finding counts by severity."""
        return {"errors": len(self.errors), "warnings": len(self.warnings)}

    def as_dict(self) -> dict[str, Any]:
        """JSON document: the shape ``repro lint --format json`` emits."""
        return {
            "target": self.target,
            "kind": self.kind,
            "diagnostics": [d.as_dict() for d in self],
            "summary": self.summary(),
        }

    def render_text(self) -> str:
        """Human-readable rendering, one finding per line."""
        header = self.target if self.target else "<model>"
        if self.kind:
            header = f"{header} ({self.kind})"
        lines = [f"{header}: {self._verdict()}"]
        for diagnostic in self:
            lines.append(f"  {diagnostic}")
        return "\n".join(lines)

    def render_json(self) -> str:
        """JSON rendering (stable field order, indented)."""
        return json.dumps(self.as_dict(), indent=1)

    def _verdict(self) -> str:
        counts = self.summary()
        if not self.diagnostics:
            return "clean"
        parts = []
        if counts["errors"]:
            parts.append(f"{counts['errors']} error(s)")
        if counts["warnings"]:
            parts.append(f"{counts['warnings']} warning(s)")
        return ", ".join(parts)


if __name__ == "__main__":  # pragma: no cover - doc regeneration helper
    print(render_code_table())
