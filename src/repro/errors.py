"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause
while still being able to distinguish model-construction problems from
numerical ones.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ModelError",
    "NonUniformError",
    "LintError",
    "TransformationError",
    "NumericalError",
    "ConvergenceError",
    "CompositionError",
    "SchedulerError",
]


class ReproError(Exception):
    """Base class of all errors raised by the ``repro`` library."""


class ModelError(ReproError):
    """A model (LTS, CTMC, IMC, CTMDP, ...) is structurally invalid.

    Examples: transitions referring to states outside the state space,
    non-positive rates, an empty state space, or a distribution that does
    not sum to one.
    """


class NonUniformError(ModelError):
    """An operation that requires a *uniform* model received a non-uniform one.

    The timed-reachability algorithm of Baier et al. (Algorithm 1 in the
    paper) is only correct for uniform CTMDPs; this error signals that the
    precondition was violated rather than silently producing wrong numbers.
    """


class LintError(ModelError):
    """A model failed static analysis at a sanitizer boundary.

    Raised by :func:`repro.lint.sanitize_model` when a model crossing a
    trust boundary (engine-registry resolution, solver preparation)
    carries error-level diagnostics.  The message lists the findings.
    """


class TransformationError(ReproError):
    """The uIMC-to-uCTMDP transformation cannot be applied.

    Raised for Zeno models (cycles of interactive transitions under the
    closed-system view), for interactive deadlocks reachable through
    Markov transitions, and for word-label enumeration blow-ups.
    """


class NumericalError(ReproError):
    """A numerical routine failed to reach its accuracy contract.

    For instance the Fox-Glynn weighter may underflow for extreme
    truncation-point / precision combinations.
    """


class ConvergenceError(ReproError):
    """An iterative fixpoint computation exhausted its round budget.

    Raised by :func:`repro.bisim.partition.refine_to_fixpoint` when a
    caller-supplied ``max_rounds`` bound is hit before the signature
    fixpoint: the partial partition is *not* a bisimulation, so
    quotienting by it would be unsound.  Callers that genuinely want the
    partial result pass ``allow_unconverged=True`` instead.

    Also raised by unbounded value iteration
    (:func:`repro.core.reachability.unbounded_reachability`,
    :func:`repro.mdp.value_iteration.unbounded_reachability`) when
    ``max_iterations`` steps end with the last change still at or above
    ``tol``: the current vector is not the fixpoint, so it is never
    returned as one.
    """


class CompositionError(ReproError):
    """Parallel composition / hiding / relabelling received invalid input."""


class SchedulerError(ReproError):
    """A scheduler object is inconsistent with the model it is applied to."""
