"""The pipeline invariant pass: Lemmas 1 and 3 and strict alternation, checked.

The paper's analysis trajectory -- compose, hide, minimise, transform --
is correct because each step *preserves uniformity* (Lemmas 1-3) and the
Section 4.1 transform establishes *strict alternation*.  The library
maintains these invariants by construction; this module re-derives the
ones that apply to a single closed model (hiding, minimisation,
transform) and reports any drift as ``Pxxx`` diagnostics.  Use
it when touching :mod:`repro.imc.composition`,
:mod:`repro.imc.transform` or :mod:`repro.bisim`, or when a cached model
round-trips through disk and "still uniform, still alternating" should
be a checked fact rather than an assumption.

Stages are tagged via the ``location`` field: ``input``, ``hiding``,
``bisim``, ``alternating``, ``ctmdp``.
"""

from __future__ import annotations

from repro.bisim.branching import branching_minimize
from repro.errors import ReproError
from repro.imc.composition import hide_all_but
from repro.imc.model import IMC
from repro.imc.transform import imc_to_ctmdp
from repro.lint.analyzers import (
    _UNIFORM_TOL,
    lint_ctmdp,
    lint_imc,
    lint_strict_alternation,
)
from repro.lint.diagnostics import Diagnostic, make_diagnostic, sort_diagnostics

__all__ = ["lint_pipeline", "check_hiding_invariant"]


def _rates_agree(left: float, right: float) -> bool:
    return abs(left - right) <= _UNIFORM_TOL * max(1.0, abs(left), abs(right))


def check_hiding_invariant(imc: IMC, keep: tuple[str, ...] = ()) -> list[Diagnostic]:
    """Lemma 1: hiding preserves uniformity.

    Hides every visible action of ``imc`` except ``keep`` and verifies
    the result is still uniform with the same rate.  A ``P004`` finding
    means the hiding operator (or the uniformity judgement) has drifted
    from the paper's semantics.
    """
    if not imc.is_uniform(closed=False):
        return []  # the lemma presupposes a uniform input
    rate = imc.uniform_rate(closed=False)
    hidden = hide_all_but(imc, keep)
    if not hidden.is_uniform(closed=False):
        return [
            make_diagnostic(
                "P004",
                "hiding the alphabet broke uniformity although Lemma 1 "
                "guarantees preservation",
                location="hiding",
            )
        ]
    hidden_rate = hidden.uniform_rate(closed=False)
    if not _rates_agree(rate, hidden_rate):
        return [
            make_diagnostic(
                "P004",
                f"hiding changed the uniform rate from {rate:g} to "
                f"{hidden_rate:g}",
                location="hiding",
            )
        ]
    return []


def lint_pipeline(imc: IMC, max_words_per_state: int = 1_000_000) -> list[Diagnostic]:
    """Check the invariant chain on a closed IMC, end to end.

    Runs, in order:

    1. the IMC analyzer on the input (``location="input"``);
    2. Lemma 1 on the input's alphabet (``hiding``);
    3. Lemma 3 via the branching-bisimulation quotient (``bisim``);
    4. the Section 4.1 transform, checking that its output is strictly
       alternating and uniformity-preserving (``alternating``) and that
       the resulting CTMDP lints clean with the same uniform rate
       (``ctmdp``).

    Stages that presuppose properties the input lacks (a non-uniform or
    Zeno input cannot be transformed) are skipped; the input findings
    already explain why.
    """
    findings = list(lint_imc(imc, closed=True, location="input"))
    fatal = {f.code for f in findings} & {"A001", "A002", "U001", "N002", "S002"}

    findings.extend(check_hiding_invariant(imc))

    uniform_input = imc.is_uniform(closed=True)
    rate = imc.uniform_rate(closed=True) if uniform_input else None

    # --- Lemma 3: the quotient stays uniform with the same rate. -------
    if not fatal:
        try:
            quotient, _partition = branching_minimize(imc)
        except ReproError as exc:
            findings.append(
                make_diagnostic(
                    "P003",
                    f"branching minimisation failed: {exc}",
                    location="bisim",
                )
            )
        else:
            if uniform_input and not quotient.is_uniform(closed=True):
                findings.append(
                    make_diagnostic(
                        "P003",
                        "the branching-bisimulation quotient of a uniform "
                        "IMC is not uniform although Lemma 3 guarantees it",
                        location="bisim",
                    )
                )
            elif uniform_input and rate is not None:
                quotient_rate = quotient.uniform_rate(closed=True)
                if not _rates_agree(rate, quotient_rate):
                    findings.append(
                        make_diagnostic(
                            "P003",
                            f"minimisation changed the uniform rate from "
                            f"{rate:g} to {quotient_rate:g}",
                            location="bisim",
                        )
                    )

    # --- Section 4.1: strictly alternating form and the uCTMDP. --------
    if not fatal:
        try:
            result = imc_to_ctmdp(imc, max_words_per_state=max_words_per_state)
        except ReproError as exc:
            findings.append(
                make_diagnostic(
                    "P001",
                    f"transformation failed: {exc}",
                    location="alternating",
                )
            )
        else:
            findings.extend(
                lint_strict_alternation(result.alternation.imc, location="alternating")
            )
            if uniform_input and rate is not None:
                alt_rate = (
                    result.alternation.imc.uniform_rate(closed=True)
                    if result.alternation.imc.is_uniform(closed=True)
                    else None
                )
                if alt_rate is None or not _rates_agree(rate, alt_rate):
                    findings.append(
                        make_diagnostic(
                            "P002",
                            "the strictly alternating IMC is not uniform at "
                            f"the input rate {rate:g}",
                            location="alternating",
                        )
                    )
            ctmdp = result.ctmdp
            findings.extend(
                lint_ctmdp(ctmdp, expect_uniform=uniform_input, location="ctmdp")
            )
            if uniform_input and rate is not None and ctmdp.is_uniform():
                ctmdp_rate = ctmdp.uniform_rate()
                if not _rates_agree(rate, ctmdp_rate):
                    findings.append(
                        make_diagnostic(
                            "P002",
                            f"the CTMDP's uniform rate is {ctmdp_rate:g}, the "
                            f"input IMC's is {rate:g}; Theorem 1 preserves it",
                            location="ctmdp",
                        )
                    )
    return sort_diagnostics(findings)
