"""Labelled transition systems as the Markov-free special case of IMCs.

The paper treats LTSs as IMCs whose Markov transition relation is empty;
by definition they are uniform with rate ``E = 0``.  :func:`lts` builds
the behavioural skeletons (workstations, switches, repair units, ...)
that are later composed with time constraints.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.imc.model import IMC

__all__ = ["lts"]


def lts(
    num_states: int,
    transitions: Iterable[tuple[int, str, int]],
    initial: int = 0,
    state_names: Sequence[str] | None = None,
) -> IMC:
    """Build an LTS (an IMC without Markov transitions).

    Parameters
    ----------
    num_states:
        Number of states.
    transitions:
        Interactive transitions as ``(source, action, target)`` triples.
    initial:
        Initial state index.
    state_names:
        Optional state names.
    """
    return IMC(
        num_states=num_states,
        interactive=list(transitions),
        markov=[],
        initial=initial,
        state_names=list(state_names) if state_names is not None else None,
    )
