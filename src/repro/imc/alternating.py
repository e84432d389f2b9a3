"""The three transformation steps from closed IMCs to strictly alternating form.

Section 4.1 of the paper turns a closed (u)IMC into a *strictly
alternating* (u)IMC -- one in which interactive and Markov states occur
strictly alternatingly and hybrid states are absent -- via three steps:

1. **Alternating** (:func:`make_alternating`): under the closed-system
   *urgency* assumption, interactive transitions preempt Markov
   transitions; hybrid states therefore lose their Markov transitions
   and become interactive states.
2. **Markov alternating** (:func:`make_markov_alternating`): sequences
   of Markov transitions are broken by inserting, per pair ``(s, s')``
   of Markov states connected by a transition, a fresh interactive state
   reached with the original rate and leaving via ``tau`` to ``s'``.
3. **Interactive alternating** (:func:`make_interactive_alternating`):
   sequences of interactive transitions are compressed into single
   transitions labelled with *words* over ``Act+ \\ {tau} + {tau}``;
   only interactive states that are the initial state or have a Markov
   predecessor survive.

Each step preserves the timed probabilistic behaviour (Theorem 1) and
uniformity.  Zeno behaviour (cycles of interactive transitions, which
under the closed view could fire infinitely fast) and interactive
deadlocks are rejected.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.errors import TransformationError
from repro.imc.model import IMC, TAU, StateClass

__all__ = [
    "make_alternating",
    "make_markov_alternating",
    "make_interactive_alternating",
    "strictly_alternating",
    "word_label",
    "AlternationResult",
]


def word_label(word: tuple[str, ...]) -> str:
    """Render a word over visible actions; the empty word is ``tau``."""
    return ".".join(word) if word else TAU


def make_alternating(imc: IMC) -> IMC:
    """Step (1): cut Markov transitions of hybrid states (urgency).

    The closed-system view makes every interactive transition urgent, so
    Markov transitions of hybrid states can never fire; removing them
    moves each hybrid state into ``S_I``.
    """
    markov = [
        (src, rate, dst)
        for src, rate, dst in imc.markov
        if not imc.interactive_successors(src)
    ]
    return IMC(
        num_states=imc.num_states,
        interactive=list(imc.interactive),
        markov=markov,
        initial=imc.initial,
        state_names=list(imc.state_names) if imc.state_names else None,
    )


def make_markov_alternating(imc: IMC) -> tuple[IMC, dict[int, int]]:
    """Step (2): make every Markov transition end in an interactive state.

    For each pair of Markov states ``s --lambda--> s'`` a fresh
    interactive state ``(s, s')`` is inserted with ``s --lambda--> (s,
    s') --tau--> s'``.  Returns the new IMC together with a map sending
    each fresh state to the state ``s'`` it stutters into (used to
    evaluate state predicates on synthetic states).

    Precondition: ``imc`` is alternating (no hybrid states).
    """
    classes = [imc.state_class(s) for s in range(imc.num_states)]
    if StateClass.HYBRID in classes:
        raise TransformationError("make_markov_alternating requires an alternating IMC")

    fresh_index: dict[tuple[int, int], int] = {}
    fresh_target: dict[int, int] = {}
    next_id = imc.num_states
    names = list(imc.state_names) if imc.state_names else [str(s) for s in range(imc.num_states)]

    interactive = list(imc.interactive)
    markov: list[tuple[int, float, int]] = []
    for src, rate, dst in imc.markov:
        if classes[dst] is StateClass.MARKOV:
            pair = (src, dst)
            if pair not in fresh_index:
                fresh_index[pair] = next_id
                fresh_target[next_id] = dst
                names.append(f"({names[src]},{names[dst]})")
                interactive.append((next_id, TAU, dst))
                next_id += 1
            markov.append((src, rate, fresh_index[pair]))
        else:
            markov.append((src, rate, dst))

    result = IMC(
        num_states=next_id,
        interactive=interactive,
        markov=markov,
        initial=imc.initial,
        state_names=names,
    )
    return result, fresh_target


def _interactive_closures(
    imc: IMC, roots: list[int], max_words_per_state: int
) -> dict[int, set[tuple[tuple[str, ...], int]]]:
    """Compute, per interactive state, the set of ``(word, markov_state)`` pairs.

    ``s ==W==> t`` holds iff a sequence of interactive transitions leads
    from ``s`` through interactive states to the Markov state ``t``, and
    the visible actions along the way spell ``W`` (``tau`` steps are
    dropped; the all-internal word is the empty tuple).

    Raises
    ------
    TransformationError
        On interactive cycles (Zeno behaviour under urgency), on
        interactive deadlocks, and when the number of distinct
        ``(word, target)`` pairs of one state exceeds the cap.
    """
    classes = [imc.state_class(s) for s in range(imc.num_states)]
    memo: dict[int, set[tuple[tuple[str, ...], int]]] = {}
    on_stack: set[int] = set()

    limit = max(sys.getrecursionlimit(), imc.num_states + 1000)
    sys.setrecursionlimit(limit)

    def closure(state: int) -> set[tuple[tuple[str, ...], int]]:
        if state in memo:
            return memo[state]
        if state in on_stack:
            raise TransformationError(
                f"interactive cycle through state {imc.name_of(state)}: "
                "Zeno behaviour is not allowed under the closed-system view"
            )
        on_stack.add(state)
        results: set[tuple[tuple[str, ...], int]] = set()
        for action, target in imc.interactive_successors(state):
            prefix: tuple[str, ...] = () if action == TAU else (action,)
            target_class = classes[target]
            if target_class is StateClass.MARKOV:
                results.add((prefix, target))
            elif target_class is StateClass.INTERACTIVE:
                for word, markov_state in closure(target):
                    results.add((prefix + word, markov_state))
            else:  # ABSORBING (hybrid is excluded by step 1)
                raise TransformationError(
                    f"interactive deadlock: state {imc.name_of(target)} has no "
                    "outgoing transitions; the transformation assumes S_A is empty"
                )
            if len(results) > max_words_per_state:
                raise TransformationError(
                    f"word enumeration exceeded {max_words_per_state} entries at "
                    f"state {imc.name_of(state)}; the visible branching structure "
                    "is too rich -- hide more actions or raise the cap"
                )
        on_stack.discard(state)
        memo[state] = results
        return results

    for root in roots:
        closure(root)
    return memo


@dataclass
class AlternationResult:
    """Outcome of the full strictly-alternating transformation.

    Attributes
    ----------
    imc:
        The strictly alternating IMC.  Interactive transitions carry
        word labels (rendered via :func:`word_label`).
    interactive_states:
        The surviving interactive states ``S_I'`` (initial state plus
        states with a Markov predecessor), in a fixed order.  These
        become the CTMDP states.
    markov_states:
        The Markov states, in a fixed order; these are in one-to-one
        correspondence with the CTMDP rate functions.
    original_of:
        Per strictly-alternating state, the original-IMC state whose
        configuration it represents (synthetic step-2 states map to the
        Markov state they stutter into).
    """

    imc: IMC
    interactive_states: list[int]
    markov_states: list[int]
    original_of: list[int]


def make_interactive_alternating(
    imc: IMC,
    fresh_targets: dict[int, int],
    original_states: int,
    max_words_per_state: int = 1_000_000,
) -> AlternationResult:
    """Step (3): compress interactive sequences into word-labelled transitions.

    Parameters
    ----------
    imc:
        A Markov-alternating IMC (output of step 2).
    fresh_targets:
        Map from step-2 synthetic states to the Markov state they lead
        into, used to compute ``original_of``.
    original_states:
        Number of states of the pre-transformation IMC (original state
        indices are ``0 .. original_states - 1``).
    max_words_per_state:
        Safety cap on word enumeration per state.
    """
    classes = [imc.state_class(s) for s in range(imc.num_states)]

    if classes[imc.initial] is StateClass.ABSORBING:
        raise TransformationError("the initial state is absorbing; nothing to analyse")

    # Interactive states that survive: the initial state (if interactive)
    # plus every target of a Markov transition.
    relevant: list[int] = []
    seen: set[int] = set()
    if classes[imc.initial] is StateClass.INTERACTIVE:
        relevant.append(imc.initial)
        seen.add(imc.initial)
    for _src, _rate, dst in imc.markov:
        if dst not in seen:
            if classes[dst] is StateClass.ABSORBING:
                raise TransformationError(
                    f"Markov transition into absorbing state {imc.name_of(dst)}; "
                    "the transformation assumes S_A is empty"
                )
            if classes[dst] is StateClass.MARKOV:
                raise TransformationError(
                    "Markov transition into a Markov state; run step 2 first"
                )
            seen.add(dst)
            relevant.append(dst)

    closures = _interactive_closures(imc, relevant, max_words_per_state)

    # A Markov initial state is handled by a synthetic interactive
    # initial state with a single tau word into it (keeps the CTMDP
    # definition applicable without changing the behaviour).
    synthetic_initial = classes[imc.initial] is StateClass.MARKOV

    markov_states = sorted({src for src, _rate, _dst in imc.markov})
    markov_order = {m: k for k, m in enumerate(markov_states)}

    # Assemble the strictly alternating IMC: keep original indices for
    # Markov states and surviving interactive states; prune the rest.
    kept = list(relevant) + markov_states
    if synthetic_initial:
        new_initial_old_id = imc.num_states  # virtual fresh id
        kept = [new_initial_old_id] + kept
    index = {state: i for i, state in enumerate(kept)}

    names: list[str] = []
    for state in kept:
        if synthetic_initial and state == imc.num_states:
            names.append("<init>")
        else:
            names.append(imc.name_of(state))

    interactive: list[tuple[int, str, int]] = []
    for state in relevant:
        for word, markov_state in sorted(closures[state]):
            interactive.append((index[state], word_label(word), index[markov_state]))
    if synthetic_initial:
        interactive.append((index[imc.num_states], TAU, index[imc.initial]))

    markov = [
        (index[src], rate, index[dst])
        for src, rate, dst in imc.markov
        if dst in index  # targets are always relevant by construction
    ]

    result_imc = IMC(
        num_states=len(kept),
        interactive=interactive,
        markov=markov,
        initial=index[imc.num_states] if synthetic_initial else index[imc.initial],
        state_names=names,
    )

    # Map every kept state to the original state whose configuration it
    # carries: synthetic step-2 states stutter into their Markov target;
    # the synthetic initial carries the initial configuration.
    original_of: list[int] = []
    for state in kept:
        if synthetic_initial and state == imc.num_states:
            original_of.append(imc.initial if imc.initial < original_states else 0)
        elif state < original_states:
            original_of.append(state)
        else:
            # Step-2 synthetic state (s, s'): its configuration is s',
            # which is always an original Markov state.
            original_of.append(fresh_targets[state])

    interactive_new_ids = [index[s] for s in ([imc.num_states] if synthetic_initial else []) + relevant]
    markov_new_ids = [index[m] for m in markov_states]

    return AlternationResult(
        imc=result_imc,
        interactive_states=interactive_new_ids,
        markov_states=markov_new_ids,
        original_of=original_of,
    )


def strictly_alternating(imc: IMC, max_words_per_state: int = 1_000_000) -> AlternationResult:
    """Apply steps (1)-(3) to a closed IMC.

    The input is pruned to its (closed-view) reachable states first, so
    uniformity -- which the paper defines with respect to reachable
    states -- is judged on the relevant part only.  The returned
    ``original_of`` map refers to the state indices of the *unpruned*
    input, so predicates written against the caller's IMC keep working.
    """
    order = imc.reachable_states(closed=True)
    pruned = imc.restricted_to(order)
    alternating = make_alternating(pruned)
    markov_alt, fresh_targets = make_markov_alternating(alternating)
    result = make_interactive_alternating(
        markov_alt,
        fresh_targets,
        original_states=pruned.num_states,
        max_words_per_state=max_words_per_state,
    )
    result.original_of = [order[i] for i in result.original_of]
    return result
