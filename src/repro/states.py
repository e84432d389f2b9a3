"""State-set arguments: index lists and boolean masks.

Every analysis takes its goal, safe and initial states either as an
iterable of state indices or as a boolean mask over the state space.
This module is the one place both forms are checked and normalised.  It
depends on numpy and :mod:`repro.errors` only, so every model package
(core, ctmc, mdp, graph) can import it without a cycle.

Negative indices are rejected rather than wrapped around: ``[-1]`` is a
caller error, not a name for the last state.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ModelError

__all__ = ["state_mask", "state_index"]


def state_mask(
    num_states: int, states: Iterable[int] | np.ndarray, what: str = "state"
) -> np.ndarray:
    """A fresh boolean mask from an index iterable or a boolean mask.

    Raises :class:`~repro.errors.ModelError` for a mask of the wrong
    shape and for indices outside ``0 .. num_states - 1``.
    """
    if isinstance(states, np.ndarray) and states.dtype == bool:
        if states.shape != (num_states,):
            raise ModelError(
                f"{what} mask has shape {states.shape}, expected ({num_states},)"
            )
        return states.copy()
    indices = np.asarray(
        states if isinstance(states, np.ndarray) else list(states), dtype=np.int64
    ).ravel()
    bad = indices[(indices < 0) | (indices >= num_states)]
    if len(bad):
        raise ModelError(f"{what} {int(bad[0])} out of range 0..{num_states - 1}")
    mask = np.zeros(num_states, dtype=bool)
    mask[indices] = True
    return mask


def state_index(num_states: int, state: int, what: str = "initial state") -> int:
    """``state`` as a plain ``int``, checked to lie in ``0 .. num_states - 1``."""
    index = int(state)
    if not 0 <= index < num_states:
        raise ModelError(f"{what} {index} out of range 0..{num_states - 1}")
    return index
