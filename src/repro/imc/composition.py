"""Compositional operators on IMCs: hiding, relabelling, parallel composition.

These implement the structural operational semantics of Section 3 of the
paper.  The central formal results -- Lemma 1 (hiding preserves
uniformity) and Lemma 2 (parallel composition preserves uniformity, the
uniform rates adding up) -- are consequences of these rules and are
exercised as executable properties in the test suite.

Parallel composition explores the product state space on the fly from
the pair of initial states, so unreachable product states are never
materialised; this matters because the intermediate state spaces of
compositional construction are the dominant cost (cf. the
"Technicalities" paragraph of Section 5).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping

from repro.errors import CompositionError
from repro.imc.model import IMC, TAU
from repro.obs import span

__all__ = ["hide", "hide_all_but", "relabel", "parallel", "parallel_with_map"]


def hide(imc: IMC, actions: Iterable[str]) -> IMC:
    """Internalise ``actions``: each becomes the internal action ``tau``.

    Markov transitions are untouched (third SOS rule of the hiding
    operator).  Hiding preserves uniformity (Lemma 1): it never creates
    new stable states, it only makes states unstable.
    """
    hidden = set(actions)
    if TAU in hidden:
        raise CompositionError("tau cannot be hidden; it is already internal")
    with span("imc.hide", states=imc.num_states):
        return IMC(
            num_states=imc.num_states,
            interactive=[
                (src, TAU if action in hidden else action, dst)
                for src, action, dst in imc.interactive
            ],
            markov=list(imc.markov),
            initial=imc.initial,
            state_names=list(imc.state_names) if imc.state_names else None,
        )


def hide_all_but(imc: IMC, keep: Iterable[str] = ()) -> IMC:
    """Hide every visible action except those in ``keep``.

    Convenience for the *closed system view*: complete models are closed
    for interaction by hiding their entire alphabet.
    """
    keep_set = set(keep)
    return hide(imc, imc.visible_actions() - keep_set)


def relabel(imc: IMC, mapping: Mapping[str, str]) -> IMC:
    """Process-algebraic relabelling of visible actions.

    Used in the FTWC construction to instantiate the generic component
    (actions ``g``, ``r``) for a concrete component (``g_wsL``,
    ``r_wsL``).  Relabelling ``tau`` or onto ``tau`` is rejected; use
    :func:`hide` for internalisation.
    """
    if TAU in mapping:
        raise CompositionError("tau cannot be relabelled")
    if TAU in mapping.values():
        raise CompositionError("relabelling onto tau is hiding; use hide()")
    return IMC(
        num_states=imc.num_states,
        interactive=[
            (src, mapping.get(action, action), dst) for src, action, dst in imc.interactive
        ],
        markov=list(imc.markov),
        initial=imc.initial,
        state_names=list(imc.state_names) if imc.state_names else None,
    )


def parallel(left: IMC, right: IMC, sync: Iterable[str] = ()) -> IMC:
    """CSP/LOTOS-style parallel composition ``left |[sync]| right``.

    Interactive transitions with actions in ``sync`` require both
    partners to move together; all other interactive transitions and all
    Markov transitions are interleaved (the latter justified by the
    memorylessness of exponential distributions).  Only the product
    states reachable from ``(left.initial, right.initial)`` are built.

    Uniformity is preserved and the uniform rates add up (Lemma 2):
    every stable product state combines a stable left state (rate
    ``E_left``) with a stable right state (rate ``E_right``).
    """
    product, _pairs = parallel_with_map(left, right, sync)
    return product


def parallel_with_map(
    left: IMC, right: IMC, sync: Iterable[str] = ()
) -> tuple[IMC, list[tuple[int, int]]]:
    """Like :func:`parallel`, additionally returning the product-state map.

    The second component lists, per product state, the contributing
    ``(left state, right state)`` pair -- needed to combine per-state
    annotations (e.g. the FTWC observation labels) through composition.
    """
    sync_set = set(sync)
    if TAU in sync_set:
        raise CompositionError("tau cannot synchronise")

    with span("imc.parallel", left=left.num_states, right=right.num_states) as sp:
        index: dict[tuple[int, int], int] = {}
        names: list[str] = []
        pairs: list[tuple[int, int]] = []

        def state_id(pair: tuple[int, int]) -> int:
            if pair not in index:
                index[pair] = len(index)
                pairs.append(pair)
                names.append(f"{left.name_of(pair[0])}|{right.name_of(pair[1])}")
            return index[pair]

        start = (left.initial, right.initial)
        state_id(start)
        queue: deque[tuple[int, int]] = deque([start])
        explored: set[tuple[int, int]] = {start}

        interactive: list[tuple[int, str, int]] = []
        markov: list[tuple[int, float, int]] = []

        while queue:
            pair = queue.popleft()
            s, v = pair
            src = state_id(pair)
            successors: list[tuple[int, int]] = []

            # Interactive moves of the left component.
            for action, s2 in left.interactive_successors(s):
                if action in sync_set:
                    for other_action, v2 in right.interactive_successors(v):
                        if other_action == action:
                            target = (s2, v2)
                            interactive.append((src, action, state_id(target)))
                            successors.append(target)
                else:
                    target = (s2, v)
                    interactive.append((src, action, state_id(target)))
                    successors.append(target)

            # Independent interactive moves of the right component.
            for action, v2 in right.interactive_successors(v):
                if action not in sync_set:
                    target = (s, v2)
                    interactive.append((src, action, state_id(target)))
                    successors.append(target)

            # Markov transitions interleave on both sides.
            for rate, s2 in left.markov_successors(s):
                target = (s2, v)
                markov.append((src, rate, state_id(target)))
                successors.append(target)
            for rate, v2 in right.markov_successors(v):
                target = (s, v2)
                markov.append((src, rate, state_id(target)))
                successors.append(target)

            for target in successors:
                if target not in explored:
                    explored.add(target)
                    queue.append(target)

        product = IMC(
            num_states=len(index),
            interactive=interactive,
            markov=markov,
            initial=0,
            state_names=names,
        )
        if sp is not None:
            sp.annotate(states=product.num_states)
    return product, pairs
