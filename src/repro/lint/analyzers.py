"""Per-model-class static analyzers.

Each ``lint_*`` function collects *all* problems of one model in one
pass -- unlike the constructors, which reject bad models with exceptions
at the point of failure -- and returns them as sorted
:class:`~repro.lint.diagnostics.Diagnostic` lists (errors first).  The
analyzers are deliberately defensive: they re-check properties the
constructors already enforce (index ranges, positivity), because models
reach them through mutation, pickling and on-disk round trips, not only
through the constructors.

The IMC analyzer replaced an earlier slug-coded IMC linter; the
legacy slug codes map onto the stable code space as

====================  ======
legacy slug           code
====================  ======
``zeno-cycle``        A001
``deadlock``          A002
``non-uniform``       U001
``visible-actions``   S003
``unreachable``       S001
====================  ======
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from repro.core.ctmdp import CTMDP
from repro.ctmc.model import CTMC
from repro.graph.structure import TransitionGraph
from repro.imc.model import IMC, TAU, StateClass
from repro.lint.diagnostics import Diagnostic, make_diagnostic, sort_diagnostics
from repro.mdp.model import DTMDP

__all__ = [
    "lint_imc",
    "lint_lts",
    "lint_ctmc",
    "lint_ctmdp",
    "lint_dtmdp",
    "lint_strict_alternation",
    "lint_model",
]

#: Relative tolerance for uniformity comparisons (matches the models').
_UNIFORM_TOL = 1e-9


def _bad_rate(rate: float) -> bool:
    """True for rates no model may carry: NaN, inf, zero or negative."""
    return not (math.isfinite(rate) and rate > 0.0)


def _csr_numeric_findings(
    matrix: sp.csr_matrix, what: str, location: str = ""
) -> list[Diagnostic]:
    """N002/N003 findings over raw CSR data (shared by CTMC/CTMDP/DTMDP)."""
    findings: list[Diagnostic] = []
    data = matrix.data
    if data.size:
        finite = np.isfinite(data)
        if not finite.all():
            bad_rows = np.unique(_rows_of(matrix, np.flatnonzero(~finite)))
            findings.append(
                make_diagnostic(
                    "N002",
                    f"{int((~finite).sum())} non-finite entr(y/ies) in {what}",
                    states=bad_rows,
                    location=location,
                )
            )
        negative = finite & (data < 0.0)
        if negative.any():
            bad_rows = np.unique(_rows_of(matrix, np.flatnonzero(negative)))
            findings.append(
                make_diagnostic(
                    "N002",
                    f"{int(negative.sum())} negative entr(y/ies) in {what}",
                    states=bad_rows,
                    location=location,
                )
            )
        explicit_zero = finite & (data == 0.0)
        if explicit_zero.any():
            findings.append(
                make_diagnostic(
                    "N003",
                    f"{int(explicit_zero.sum())} explicitly stored zero(s) in "
                    f"{what}; call eliminate_zeros()",
                    location=location,
                )
            )
    if matrix.nnz and not matrix.has_canonical_format:
        findings.append(
            make_diagnostic(
                "N003",
                f"{what} is not in canonical CSR form (unsorted or duplicate "
                "column indices); call sum_duplicates()",
                location=location,
            )
        )
    if matrix.nnz:
        indices = matrix.indices
        out = (indices < 0) | (indices >= matrix.shape[1])
        if out.any():
            findings.append(
                make_diagnostic(
                    "S002",
                    f"{int(out.sum())} column ind(ex/ices) of {what} outside "
                    f"0..{matrix.shape[1] - 1}",
                    location=location,
                )
            )
    return findings


def _rows_of(matrix: sp.csr_matrix, data_positions: np.ndarray) -> np.ndarray:
    """Map positions in ``matrix.data`` to their CSR row indices."""
    return np.searchsorted(matrix.indptr, data_positions, side="right") - 1


# ---------------------------------------------------------------------------
# IMC (and LTS)
# ---------------------------------------------------------------------------
def _interactive_cycle(imc: IMC, reachable: set[int]) -> tuple[int, ...] | None:
    """Find a cycle of interactive transitions among reachable states.

    Depth-first from each reachable state in index order, successors in
    listed order; the first edge back onto the current path closes the
    cycle.  The path is an explicit stack, so chains of any length fit.
    """
    colour: dict[int, int] = {}
    path: list[int] = []
    for root in sorted(reachable):
        if colour.get(root, 0):
            continue
        colour[root] = 1
        path.append(root)
        pending = [iter(imc.interactive_successors(root))]
        while pending:
            for _action, target in pending[-1]:
                if target not in reachable:
                    continue
                mark = colour.get(target, 0)
                if mark == 1:
                    return tuple(path[path.index(target):])
                if mark == 0:
                    colour[target] = 1
                    path.append(target)
                    pending.append(iter(imc.interactive_successors(target)))
                    break
            else:
                colour[path.pop()] = 2
                pending.pop()
    return None


def _imc_numeric_findings(imc: IMC, location: str = "") -> list[Diagnostic]:
    """N002/S002 findings over the raw transition lists of an IMC."""
    findings: list[Diagnostic] = []
    bad_rates = sorted(
        {src for src, rate, _dst in imc.markov if _bad_rate(rate)}
    )
    if bad_rates:
        findings.append(
            make_diagnostic(
                "N002",
                f"{len(bad_rates)} state(s) carry NaN/inf/non-positive Markov "
                "rates",
                states=bad_rates,
                location=location,
            )
        )
    dangling = sorted(
        {
            src
            for src, _a, dst in imc.interactive
            if not (0 <= src < imc.num_states and 0 <= dst < imc.num_states)
        }
        | {
            src
            for src, _r, dst in imc.markov
            if not (0 <= src < imc.num_states and 0 <= dst < imc.num_states)
        }
    )
    if dangling:
        findings.append(
            make_diagnostic(
                "S002",
                f"transitions reference states outside 0..{imc.num_states - 1}",
                states=[s for s in dangling if 0 <= s < imc.num_states],
                location=location,
            )
        )
    return findings


def lint_imc(imc: IMC, closed: bool = True, location: str = "") -> list[Diagnostic]:
    """Collect diagnostics for an IMC.

    Parameters
    ----------
    imc:
        The model to check.
    closed:
        Analyse under the closed-system view (urgency); this is the view
        of the transformation pipeline.
    location:
        Optional location tag attached to every finding.

    Returns
    -------
    list[Diagnostic]
        All findings, errors first.
    """
    findings = _imc_numeric_findings(imc, location)
    if any(f.code == "S002" for f in findings):
        # Dangling indices make reachability undefined; report what we
        # have rather than crash on out-of-range successors.
        return sort_diagnostics(findings)
    reachable = set(imc.reachable_states(closed=closed))

    cycle = _interactive_cycle(imc, reachable)
    if cycle is not None:
        names = " -> ".join(imc.name_of(s) for s in cycle)
        findings.append(
            make_diagnostic(
                "A001",
                f"interactive cycle ({names}): Zeno under urgency",
                states=cycle,
                location=location,
            )
        )

    dead = tuple(
        s for s in sorted(reachable) if imc.state_class(s) is StateClass.ABSORBING
    )
    if dead:
        findings.append(
            make_diagnostic(
                "A002",
                f"{len(dead)} reachable state(s) without outgoing "
                "transitions; the transformation assumes none",
                states=dead,
                location=location,
            )
        )

    stable_rates = {
        s: imc.exit_rate(s) for s in sorted(reachable) if imc.is_stable(s)
    }
    if stable_rates:
        rates = sorted(set(round(r, 9) for r in stable_rates.values()))
        if len(rates) > 1:
            offenders = tuple(
                s for s, r in stable_rates.items() if round(r, 9) != rates[-1]
            )
            findings.append(
                make_diagnostic(
                    "U001",
                    f"stable exit rates span {rates[0]:g}..{rates[-1]:g}; "
                    "Algorithm 1 requires a uniform model",
                    states=offenders,
                    location=location,
                )
            )

    if closed:
        visible = sorted(
            {
                action
                for s in reachable
                for action, _t in imc.interactive_successors(s)
                if action != TAU
            }
        )
        if visible:
            findings.append(
                make_diagnostic(
                    "S003",
                    f"visible actions remain ({', '.join(visible[:5])}"
                    f"{', ...' if len(visible) > 5 else ''}); under the "
                    "closed view they are urgent like tau",
                    location=location,
                )
            )

    unreachable = tuple(s for s in range(imc.num_states) if s not in reachable)
    if unreachable:
        findings.append(
            make_diagnostic(
                "S001",
                f"{len(unreachable)} state(s) unreachable; they are ignored",
                states=unreachable,
                location=location,
            )
        )

    return sort_diagnostics(findings)


def lint_lts(imc: IMC, location: str = "") -> list[Diagnostic]:
    """Diagnostics for an LTS (an IMC expected to carry no Markov part).

    Open LTSs legitimately contain action cycles (every FTWC component
    is one), so no Zeno finding is emitted; deadlocks are reported at
    warning level because composition may still resolve them.
    """
    findings = _imc_numeric_findings(imc, location)
    if imc.markov:
        findings.append(
            make_diagnostic(
                "A003",
                f"{len(imc.markov)} Markov transition(s) in a supposed LTS",
                states=sorted({src for src, _r, _d in imc.markov}),
                location=location,
            )
        )
    if any(f.code == "S002" for f in findings):
        return sort_diagnostics(findings)
    reachable = set(imc.reachable_states(closed=False))
    dead = tuple(
        s for s in sorted(reachable) if not imc.interactive_successors(s)
    )
    if dead:
        findings.append(
            make_diagnostic(
                "S006",
                f"{len(dead)} reachable deadlock state(s); composition may "
                "still unblock them",
                states=dead,
                location=location,
            )
        )
    unreachable = tuple(s for s in range(imc.num_states) if s not in reachable)
    if unreachable:
        findings.append(
            make_diagnostic(
                "S001",
                f"{len(unreachable)} state(s) unreachable; they are ignored",
                states=unreachable,
                location=location,
            )
        )
    return sort_diagnostics(findings)


def lint_strict_alternation(imc: IMC, location: str = "") -> list[Diagnostic]:
    """A003 findings: is ``imc`` strictly alternating (Section 4.1)?

    Strict alternation requires: no hybrid states, every Markov
    transition ends in an interactive state, every interactive
    transition ends in a Markov state, and no absorbing states.
    """
    findings: list[Diagnostic] = []
    classes = [imc.state_class(s) for s in range(imc.num_states)]

    hybrid = [s for s, c in enumerate(classes) if c is StateClass.HYBRID]
    if hybrid:
        findings.append(
            make_diagnostic(
                "A003",
                f"{len(hybrid)} hybrid state(s); step 1 (urgency cut) was "
                "not applied",
                states=hybrid,
                location=location,
            )
        )
    markov_to_markov = sorted(
        {
            src
            for src, _rate, dst in imc.markov
            if classes[dst] in (StateClass.MARKOV, StateClass.HYBRID)
        }
    )
    if markov_to_markov:
        findings.append(
            make_diagnostic(
                "A003",
                "Markov transitions lead into Markov states; step 2 "
                "(Markov alternation) was not applied",
                states=markov_to_markov,
                location=location,
            )
        )
    inter_to_inter = sorted(
        {
            src
            for src, _a, dst in imc.interactive
            if classes[dst] is not StateClass.MARKOV
        }
    )
    if inter_to_inter:
        findings.append(
            make_diagnostic(
                "A003",
                "interactive transitions do not end in Markov states; step 3 "
                "(word compression) was not applied",
                states=inter_to_inter,
                location=location,
            )
        )
    absorbing = [s for s, c in enumerate(classes) if c is StateClass.ABSORBING]
    if absorbing:
        findings.append(
            make_diagnostic(
                "A003",
                f"{len(absorbing)} absorbing state(s) in a strictly "
                "alternating IMC",
                states=absorbing,
                location=location,
            )
        )
    return sort_diagnostics(findings)


# ---------------------------------------------------------------------------
# CTMC
# ---------------------------------------------------------------------------
def lint_ctmc(
    ctmc: CTMC,
    goal: np.ndarray | None = None,
    expect_uniform: bool = False,
    location: str = "",
) -> list[Diagnostic]:
    """Collect diagnostics for a CTMC.

    Parameters
    ----------
    ctmc:
        The chain to check.
    goal:
        Optional boolean goal mask; enables the goal-set checks
        (``G001``/``G002``/``G003``).
    expect_uniform:
        Check uniformity of exit rates (``U001``); off by default since
        uniformization handles arbitrary chains.
    location:
        Optional location tag attached to every finding.
    """
    findings = _csr_numeric_findings(ctmc.rates, "the rate matrix", location)
    if any(f.code == "S002" for f in findings):
        # Dangling indices make reachability undefined.
        return sort_diagnostics(findings)

    n = ctmc.num_states
    exits = ctmc.exit_rates()
    if expect_uniform and np.isfinite(exits).all():
        positive = exits[exits > 0.0]
        if positive.size == 0:
            findings.append(
                make_diagnostic(
                    "U002",
                    "no state carries outgoing rate mass; the uniform rate "
                    "is undefined",
                    location=location,
                )
            )
        else:
            reference = float(positive.max())
            off = np.flatnonzero(
                np.abs(exits - reference) > _UNIFORM_TOL * max(1.0, reference)
            )
            if off.size:
                findings.append(
                    make_diagnostic(
                        "U001",
                        f"exit rates span {float(exits.min()):g}.."
                        f"{float(exits.max()):g}; a uniform chain was expected",
                        states=off,
                        location=location,
                    )
                )

    reachable = TransitionGraph.from_ctmc(ctmc).reachable_from()
    unreachable = np.flatnonzero(~reachable)
    if unreachable.size:
        findings.append(
            make_diagnostic(
                "S001",
                f"{unreachable.size} state(s) unreachable; they are ignored",
                states=unreachable,
                location=location,
            )
        )

    if goal is not None:
        mask = np.asarray(goal, dtype=bool)
        if mask.shape != (n,):
            findings.append(
                make_diagnostic(
                    "G002",
                    f"goal mask has shape {mask.shape}, expected ({n},)",
                    location=location,
                )
            )
        elif not mask.any():
            findings.append(
                make_diagnostic(
                    "G001",
                    "the goal set is empty; every reachability probability "
                    "is zero",
                    location=location,
                )
            )
        else:
            leaky = [
                s
                for s in np.flatnonzero(mask)
                if any(not mask[t] for t, _r in ctmc.successors(int(s)))
            ]
            if leaky:
                findings.append(
                    make_diagnostic(
                        "G003",
                        f"{len(leaky)} goal state(s) carry rates back into "
                        "non-goal states; reachability analyses treat goal "
                        "hits as absorbing",
                        states=leaky,
                        location=location,
                    )
                )
    return sort_diagnostics(findings)


# ---------------------------------------------------------------------------
# CTMDP
# ---------------------------------------------------------------------------
def lint_ctmdp(
    ctmdp: CTMDP,
    goal: np.ndarray | None = None,
    expect_uniform: bool = True,
    location: str = "",
) -> list[Diagnostic]:
    """Collect diagnostics for a CTMDP.

    Checks the CSR storage (``N002``/``N003``/``S002``), the hyperedge
    well-formedness (``S004`` empty rate functions, ``S005`` source/
    choice-pointer inconsistencies), uniformity (``U001``/``U002``,
    Algorithm 1's precondition, on by default), reachability (``S001``)
    and optionally the goal mask (``G001``/``G002``).
    """
    findings = _csr_numeric_findings(ctmdp.rate_matrix, "the rate matrix", location)
    if any(f.code == "S002" for f in findings):
        # Dangling indices make reachability undefined.
        return sort_diagnostics(findings)

    n, t = ctmdp.num_states, ctmdp.num_transitions
    sources = ctmdp.sources
    if sources.shape != (t,):
        findings.append(
            make_diagnostic(
                "S005",
                f"{t} transitions but {sources.shape[0]} source entries",
                location=location,
            )
        )
        return sort_diagnostics(findings)
    out_of_range = (sources < 0) | (sources >= n)
    if out_of_range.any():
        findings.append(
            make_diagnostic(
                "S002",
                f"{int(out_of_range.sum())} transition source(s) outside "
                f"0..{n - 1}",
                location=location,
            )
        )
        return sort_diagnostics(findings)
    if t and (np.diff(sources) < 0).any():
        findings.append(
            make_diagnostic(
                "S005",
                "transitions are not sorted by source state; per-state "
                "maximisation would read wrong segments",
                location=location,
            )
        )

    empty_rows = np.flatnonzero(np.diff(ctmdp.rate_matrix.indptr) == 0)
    if empty_rows.size:
        findings.append(
            make_diagnostic(
                "S004",
                f"{empty_rows.size} transition(s) have an empty rate "
                "function (a transition must lead somewhere)",
                states=np.unique(sources[empty_rows]),
                location=location,
            )
        )

    exits = ctmdp.exit_rates()
    if expect_uniform and t == 0:
        findings.append(
            make_diagnostic(
                "U002",
                "CTMDP has no transitions; the uniform rate is undefined",
                location=location,
            )
        )
    elif expect_uniform and np.isfinite(exits).all() and not empty_rows.size:
        reference = float(exits[0])
        off = np.flatnonzero(
            np.abs(exits - reference) > _UNIFORM_TOL * max(1.0, abs(reference))
        )
        if off.size:
            findings.append(
                make_diagnostic(
                    "U001",
                    f"transition exit rates span {float(exits.min()):g}.."
                    f"{float(exits.max()):g}; Algorithm 1 requires a uniform "
                    "CTMDP",
                    states=np.unique(sources[off]),
                    location=location,
                )
            )

    absorbing = ctmdp.states_without_choices()
    reachable = TransitionGraph.from_ctmdp(ctmdp).reachable_from()
    unreachable = np.flatnonzero(~reachable)
    if unreachable.size:
        findings.append(
            make_diagnostic(
                "S001",
                f"{unreachable.size} state(s) unreachable; they are ignored",
                states=unreachable,
                location=location,
            )
        )
    reachable_absorbing = [int(s) for s in absorbing if reachable[s]]
    if reachable_absorbing:
        findings.append(
            make_diagnostic(
                "S006",
                f"{len(reachable_absorbing)} reachable state(s) offer no "
                "choice; the uIMC transformation never produces such states",
                states=reachable_absorbing,
                location=location,
            )
        )

    if goal is not None:
        mask = np.asarray(goal, dtype=bool)
        if mask.shape != (n,):
            findings.append(
                make_diagnostic(
                    "G002",
                    f"goal mask has shape {mask.shape}, expected ({n},)",
                    location=location,
                )
            )
        elif not mask.any():
            findings.append(
                make_diagnostic(
                    "G001",
                    "the goal set is empty; every reachability probability "
                    "is zero",
                    location=location,
                )
            )
    return sort_diagnostics(findings)


# ---------------------------------------------------------------------------
# DTMDP
# ---------------------------------------------------------------------------
def lint_dtmdp(dtmdp: DTMDP, location: str = "") -> list[Diagnostic]:
    """Collect diagnostics for a discrete-time MDP.

    The probabilistic analogue of :func:`lint_ctmdp`: CSR sanity plus
    per-row distribution mass (``N001``), the check that matters for the
    Poisson-weighted value iteration built on top.
    """
    findings = _csr_numeric_findings(
        dtmdp.probabilities, "the probability matrix", location
    )
    data = dtmdp.probabilities.data
    if data.size and np.isfinite(data).all():
        row_sums = np.asarray(dtmdp.probabilities.sum(axis=1)).ravel()
        drifting = np.flatnonzero(np.abs(row_sums - 1.0) > 1e-9)
        if drifting.size:
            worst = float(np.abs(row_sums - 1.0).max())
            findings.append(
                make_diagnostic(
                    "N001",
                    f"{drifting.size} transition row(s) do not sum to one "
                    f"(worst drift {worst:.3g})",
                    states=np.unique(dtmdp.sources[drifting]),
                    location=location,
                )
            )
    return sort_diagnostics(findings)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------
def lint_model(
    model: IMC | CTMC | CTMDP | DTMDP,
    goal: np.ndarray | None = None,
    location: str = "",
    **options: bool,
) -> list[Diagnostic]:
    """Dispatch to the analyzer matching the model's class.

    ``options`` are forwarded (e.g. ``closed=False`` for IMCs,
    ``expect_uniform=True`` for CTMCs).  LTSs -- IMCs without Markov
    transitions -- are linted with :func:`lint_lts`.
    """
    if isinstance(model, CTMDP):
        return lint_ctmdp(model, goal=goal, location=location, **options)
    if isinstance(model, CTMC):
        return lint_ctmc(model, goal=goal, location=location, **options)
    if isinstance(model, DTMDP):
        return lint_dtmdp(model, location=location)
    if isinstance(model, IMC):
        if model.is_lts():
            return lint_lts(model, location=location)
        return lint_imc(model, location=location, **options)
    raise TypeError(f"no analyzer for {type(model).__name__}")
