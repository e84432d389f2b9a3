"""Interactive Markov chains (IMCs).

An IMC (Definition 3 of the paper) orthogonally combines a labelled
transition system (interactive transitions ``s --a--> s'``) with a CTMC
(Markov transitions ``s --lambda--> s'``).  Two interpretations of the
same object are distinguished:

* the **open** view, in which the IMC may still be composed with an
  environment; here the *maximal progress* assumption applies: internal
  ``tau`` transitions preempt Markov transitions, while visible actions
  (being delayable by composition) do not;
* the **closed** view, applied to complete models only; here the
  *urgency* assumption applies: every interactive transition preempts
  Markov transitions.

Uniformity (Definition 4) constrains only the *stable* states -- those
without outgoing ``tau`` -- to share one exit rate ``E``.  LTSs are the
``E = 0`` instance, CTMCs the instance with empty interactive relation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.errors import ModelError

__all__ = ["TAU", "StateClass", "IMC", "IMCBuilder"]

#: The distinguished internal action.
TAU = "tau"


class StateClass(enum.Enum):
    """State partitioning of Section 2 of the paper."""

    MARKOV = "markov"  #: at least one Markov, no interactive transition (S_M)
    INTERACTIVE = "interactive"  #: at least one interactive, no Markov transition (S_I)
    HYBRID = "hybrid"  #: both kinds of outgoing transitions (S_H)
    ABSORBING = "absorbing"  #: no outgoing transitions at all (S_A)


@dataclass
class IMC:
    """An interactive Markov chain with explicit transition lists.

    Attributes
    ----------
    num_states:
        Size of the state space; states are ``0 .. num_states - 1``.
    interactive:
        List of interactive transitions ``(source, action, target)``.
        The action :data:`TAU` is the internal action.
    markov:
        List of Markov transitions ``(source, rate, target)``.  The list
        is a *relation with multiplicities*: several entries between the
        same pair of states are allowed and their rates accumulate in
        ``Rate(s, s')``.
    initial:
        Index of the initial state.
    state_names:
        Optional human-readable state names.
    """

    num_states: int
    interactive: list[tuple[int, str, int]] = field(default_factory=list)
    markov: list[tuple[int, float, int]] = field(default_factory=list)
    initial: int = 0
    state_names: list[str] | None = None

    def __post_init__(self) -> None:
        if self.num_states <= 0:
            raise ModelError("an IMC needs at least one state")
        if not 0 <= self.initial < self.num_states:
            raise ModelError(f"initial state {self.initial} out of range")
        if self.state_names is not None and len(self.state_names) != self.num_states:
            raise ModelError("state_names length must match the number of states")
        for src, action, dst in self.interactive:
            if not (0 <= src < self.num_states and 0 <= dst < self.num_states):
                raise ModelError(f"interactive transition ({src}, {action}, {dst}) out of range")
            if not action:
                raise ModelError("actions must be non-empty strings")
        for src, rate, dst in self.markov:
            if not (0 <= src < self.num_states and 0 <= dst < self.num_states):
                raise ModelError(f"Markov transition ({src}, {rate}, {dst}) out of range")
            if not (math.isfinite(rate) and rate > 0.0):
                raise ModelError(f"Markov rates must be positive and finite, got {rate}")
        self._inter_by_src: list[list[tuple[str, int]]] | None = None
        self._markov_by_src: list[list[tuple[float, int]]] | None = None
        self._stable_mask: np.ndarray | None = None
        self._encoded_interactive: tuple | None = None
        self._encoded_markov: tuple | None = None

    # ------------------------------------------------------------------
    # Adjacency caches
    # ------------------------------------------------------------------
    def _interactive_adj(self) -> list[list[tuple[str, int]]]:
        if self._inter_by_src is None:
            adj: list[list[tuple[str, int]]] = [[] for _ in range(self.num_states)]
            for src, action, dst in self.interactive:
                adj[src].append((action, dst))
            self._inter_by_src = adj
        return self._inter_by_src

    def _markov_adj(self) -> list[list[tuple[float, int]]]:
        if self._markov_by_src is None:
            adj: list[list[tuple[float, int]]] = [[] for _ in range(self.num_states)]
            for src, rate, dst in self.markov:
                adj[src].append((rate, dst))
            self._markov_by_src = adj
        return self._markov_by_src

    def interactive_successors(self, state: int) -> list[tuple[str, int]]:
        """All ``(action, target)`` pairs of interactive transitions from ``state``."""
        return self._interactive_adj()[state]

    def markov_successors(self, state: int) -> list[tuple[float, int]]:
        """All ``(rate, target)`` pairs of Markov transitions from ``state``."""
        return self._markov_adj()[state]

    # ------------------------------------------------------------------
    # Vectorised views (shared by the bisimulation engines)
    # ------------------------------------------------------------------
    def stable_mask(self) -> np.ndarray:
        """Boolean array: ``mask[s]`` iff ``s`` has no outgoing ``tau``."""
        if self._stable_mask is None:
            mask = np.ones(self.num_states, dtype=bool)
            for src, action, _ in self.interactive:
                if action == TAU:
                    mask[src] = False
            self._stable_mask = mask
        return self._stable_mask

    def encoded_interactive(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
        """Interactive transitions as ``(src, act, dst, actions)`` arrays.

        ``act`` holds indices into the returned ``actions`` table;
        :data:`TAU` is always action code ``0`` (present in the table
        even when the model has no internal transitions).  The arrays
        are cached on the (immutable-by-convention) model.
        """
        if self._encoded_interactive is None:
            codes: dict[str, int] = {TAU: 0}
            count = len(self.interactive)
            src = np.empty(count, dtype=np.int64)
            act = np.empty(count, dtype=np.int64)
            dst = np.empty(count, dtype=np.int64)
            for i, (s, action, t) in enumerate(self.interactive):
                src[i] = s
                dst[i] = t
                code = codes.get(action)
                if code is None:
                    code = codes[action] = len(codes)
                act[i] = code
            actions = [""] * len(codes)
            for action, code in codes.items():
                actions[code] = action
            self._encoded_interactive = (src, act, dst, actions)
        return self._encoded_interactive

    def encoded_markov(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Markov transitions as ``(src, rate, dst)`` arrays (cached)."""
        if self._encoded_markov is None:
            count = len(self.markov)
            src = np.empty(count, dtype=np.int64)
            rate = np.empty(count, dtype=np.float64)
            dst = np.empty(count, dtype=np.int64)
            for i, (s, r, t) in enumerate(self.markov):
                src[i] = s
                rate[i] = r
                dst[i] = t
            self._encoded_markov = (src, rate, dst)
        return self._encoded_markov

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def actions(self) -> set[str]:
        """The set of actions occurring on interactive transitions."""
        return {action for _, action, _ in self.interactive}

    def visible_actions(self) -> set[str]:
        """All occurring actions except :data:`TAU`."""
        return self.actions() - {TAU}

    def is_stable(self, state: int) -> bool:
        """A state is *stable* iff it has no outgoing ``tau`` transition."""
        return all(action != TAU for action, _ in self.interactive_successors(state))

    def state_class(self, state: int) -> StateClass:
        """Classify ``state`` into Markov / interactive / hybrid / absorbing."""
        has_inter = bool(self.interactive_successors(state))
        has_markov = bool(self.markov_successors(state))
        if has_inter and has_markov:
            return StateClass.HYBRID
        if has_inter:
            return StateClass.INTERACTIVE
        if has_markov:
            return StateClass.MARKOV
        return StateClass.ABSORBING

    def partition(self) -> dict[StateClass, list[int]]:
        """Partition ``S = S_M + S_I + S_H + S_A`` as in Section 2."""
        result: dict[StateClass, list[int]] = {cls: [] for cls in StateClass}
        for state in range(self.num_states):
            result[self.state_class(state)].append(state)
        return result

    def exit_rate(self, state: int) -> float:
        """The exit rate ``E_s = r(s, S)`` (order-independent ``fsum``)."""
        return math.fsum(rate for rate, _ in self.markov_successors(state))

    def rate(self, src: int, dst: int) -> float:
        """Cumulative rate ``Rate(src, dst)``."""
        return math.fsum(
            rate for rate, target in self.markov_successors(src) if target == dst
        )

    def rate_into(self, src: int, targets: Iterable[int]) -> float:
        """Cumulative rate ``r(src, C)`` into a set of states ``C``."""
        target_set = set(targets)
        return math.fsum(
            rate for rate, dst in self.markov_successors(src) if dst in target_set
        )

    # ------------------------------------------------------------------
    # Reachability and uniformity
    # ------------------------------------------------------------------
    def reachable_states(self, closed: bool = False) -> list[int]:
        """States reachable from the initial state, in exploration order.

        Under the open view (``closed=False``), Markov transitions of
        ``tau``-unstable states are not explored (maximal progress);
        under the closed view, Markov transitions of any state with an
        interactive transition are skipped (urgency).
        """
        seen = {self.initial}
        frontier = [self.initial]
        order = [self.initial]
        inter = self._interactive_adj()
        markov = self._markov_adj()
        while frontier:
            state = frontier.pop()
            successors: list[int] = [dst for _, dst in inter[state]]
            preempted = bool(inter[state]) if closed else not self.is_stable(state)
            if not preempted:
                successors.extend(dst for _, dst in markov[state])
            for dst in successors:
                if dst not in seen:
                    seen.add(dst)
                    order.append(dst)
                    frontier.append(dst)
        return order

    def is_uniform(self, tol: float = 1e-9, closed: bool = False) -> bool:
        """Uniformity check (Definition 4), restricted to reachable states.

        ``True`` iff all reachable stable states share one exit rate.
        Following the paper, unreachable states may carry arbitrary rates.
        """
        rates = [
            self.exit_rate(state)
            for state in self.reachable_states(closed=closed)
            if self.is_stable(state)
        ]
        if not rates:
            return True
        reference = rates[0]
        return all(abs(rate - reference) <= tol * max(1.0, abs(reference)) for rate in rates)

    def uniform_rate(self, tol: float = 1e-9, closed: bool = False) -> float:
        """The common exit rate ``E`` of a uniform IMC.

        Raises
        ------
        ModelError
            If the IMC is not uniform on its reachable states.
        """
        if not self.is_uniform(tol=tol, closed=closed):
            raise ModelError("IMC is not uniform on its reachable states")
        for state in self.reachable_states(closed=closed):
            if self.is_stable(state):
                return self.exit_rate(state)
        return 0.0

    # ------------------------------------------------------------------
    # Structural helpers
    # ------------------------------------------------------------------
    def restricted_to_reachable(self, closed: bool = False) -> "IMC":
        """Prune unreachable states, renumbering the survivors."""
        return self.restricted_to(self.reachable_states(closed=closed))

    def restricted_to(self, order: list[int]) -> "IMC":
        """Keep the states of ``order`` (which must hold the initial
        state), renumbered by their position in it."""
        index = {state: i for i, state in enumerate(order)}
        keep = set(order)
        names = None
        if self.state_names is not None:
            names = [self.state_names[s] for s in order]
        return IMC(
            num_states=len(order),
            interactive=[
                (index[s], a, index[t])
                for s, a, t in self.interactive
                if s in keep and t in keep
            ],
            markov=[
                (index[s], r, index[t])
                for s, r, t in self.markov
                if s in keep and t in keep
            ],
            initial=index[self.initial],
            state_names=names,
        )

    def name_of(self, state: int) -> str:
        """Readable name of ``state`` (falls back to the index)."""
        if self.state_names is not None:
            return self.state_names[state]
        return str(state)

    @property
    def num_interactive_transitions(self) -> int:
        """Number of interactive transitions."""
        return len(self.interactive)

    @property
    def num_markov_transitions(self) -> int:
        """Number of Markov transitions."""
        return len(self.markov)

    def is_lts(self) -> bool:
        """True iff the Markov transition relation is empty."""
        return not self.markov

    def is_ctmc(self) -> bool:
        """True iff the interactive transition relation is empty."""
        return not self.interactive

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IMC(states={self.num_states}, interactive={len(self.interactive)}, "
            f"markov={len(self.markov)}, initial={self.initial})"
        )


class IMCBuilder:
    """Incremental construction of IMCs with named states.

    Example
    -------
    >>> b = IMCBuilder()
    >>> up = b.state("up")
    >>> down = b.state("down")
    >>> b.interactive(up, "fail", down)
    >>> b.markov(down, 2.0, up)
    >>> imc = b.build(initial=up)
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self._interactive: list[tuple[int, str, int]] = []
        self._markov: list[tuple[int, float, int]] = []

    def state(self, name: str | None = None) -> int:
        """Create (or fetch) a state; returns its index."""
        if name is not None and name in self._index:
            return self._index[name]
        idx = len(self._names)
        if name is None:
            name = f"s{idx}"
        if name in self._index:
            raise ModelError(f"duplicate state name {name!r}")
        self._names.append(name)
        self._index[name] = idx
        return idx

    def interactive(self, src: int, action: str, dst: int) -> "IMCBuilder":
        """Add an interactive transition; returns ``self`` for chaining."""
        self._interactive.append((src, action, dst))
        return self

    def tau(self, src: int, dst: int) -> "IMCBuilder":
        """Add an internal transition."""
        return self.interactive(src, TAU, dst)

    def markov(self, src: int, rate: float, dst: int) -> "IMCBuilder":
        """Add a Markov transition; returns ``self`` for chaining."""
        self._markov.append((src, float(rate), dst))
        return self

    def build(self, initial: int = 0) -> IMC:
        """Finalise the IMC."""
        return IMC(
            num_states=len(self._names),
            interactive=list(self._interactive),
            markov=list(self._markov),
            initial=initial,
            state_names=list(self._names),
        )
