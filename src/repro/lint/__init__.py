"""Static analysis for stochastic models (``repro.lint``).

A unified diagnostic framework over all model classes of the library:

* :mod:`repro.lint.diagnostics` -- the vocabulary: stable codes
  (``U001`` non-uniform exit rates, ``A003`` alternation violation,
  ``N002`` NaN/inf/negative rate, ...), :class:`Severity`,
  :class:`Diagnostic` and :class:`LintReport` with text/JSON renderers;
* :mod:`repro.lint.analyzers` -- per-model-class analyzers for LTS, IMC,
  CTMC, generator matrices, MDP and CTMDP, plus the :func:`lint_model`
  dispatcher;
* :mod:`repro.lint.pipeline` -- the invariant pass checking Lemmas 1-3
  and strict alternation across the composition -> transform ->
  bisimulation -> uCTMDP pipeline;
* :mod:`repro.lint.files` -- linting of on-disk ``.tra`` / ``.json``
  model files;
* :mod:`repro.lint.graph` -- the whole-model graph pass (``Qxxx``):
  goal reachability, end-component traps, deadlocks and vanishing
  cycles, computed with :mod:`repro.graph` (``repro lint --graph``);
* :mod:`repro.lint.sanitize` -- opt-in sanitizer hooks (the
  ``REPRO_SANITIZE=1`` environment variable or the :func:`sanitizing`
  context manager) that re-lint models at engine trust boundaries;
* :mod:`repro.lint.source` -- the AST self-lint of the package's own
  sources (``Txxx``: declared lock guards, nested lock acquisition,
  float equality, order-dependent rate sums), behind
  ``repro lint --self``.

The command-line entry point is ``repro lint`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

from repro.lint.analyzers import (
    lint_ctmc,
    lint_ctmdp,
    lint_dtmdp,
    lint_generator,
    lint_imc,
    lint_lts,
    lint_model,
    lint_strict_alternation,
)
from repro.lint.diagnostics import (
    CODES,
    Diagnostic,
    LintReport,
    Severity,
    code_title,
    make_diagnostic,
    render_code_table,
    sort_diagnostics,
)
from repro.lint.files import lint_path, lint_tra_scan, sibling_goal_mask
from repro.lint.graph import lint_graph
from repro.lint.pipeline import (
    check_composition_invariant,
    check_hiding_invariant,
    lint_pipeline,
)
from repro.lint.sanitize import env_flag, sanitize_enabled, sanitize_model, sanitizing

__all__ = [
    "CODES",
    "Diagnostic",
    "LintReport",
    "Severity",
    "code_title",
    "make_diagnostic",
    "render_code_table",
    "sort_diagnostics",
    "lint_ctmc",
    "lint_ctmdp",
    "lint_dtmdp",
    "lint_generator",
    "lint_imc",
    "lint_lts",
    "lint_model",
    "lint_strict_alternation",
    "lint_graph",
    "lint_path",
    "lint_tra_scan",
    "sibling_goal_mask",
    "lint_pipeline",
    "check_composition_invariant",
    "check_hiding_invariant",
    "env_flag",
    "sanitize_enabled",
    "sanitize_model",
    "sanitizing",
]
