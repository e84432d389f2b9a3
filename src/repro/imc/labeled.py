"""Labelled IMCs: observations that survive composition and minimisation.

Verifying a property of a composed system requires evaluating a state
predicate on the final model -- but composition scrambles state
identities and minimisation merges states.  The pragmatic solution used
throughout the compositional-verification literature (and by the FTWC
construction here) is to attach a small *observation* to every state,
combine observations through parallel composition, and seed every
bisimulation quotient with them so no merge ever crosses an observation
boundary.

:class:`LabeledIMC` packages an IMC with one hashable observation per
state and lifts the composition operators:

* :meth:`LabeledIMC.parallel` combines observations with a supplied
  function (defaults to tuple-wise addition, the natural choice for
  counting observations);
* :meth:`LabeledIMC.hide` / :meth:`LabeledIMC.relabel` keep them;
* :meth:`LabeledIMC.restricted_to_reachable` carries them along the
  surviving states;
* :meth:`LabeledIMC.minimize` quotients by stochastic branching
  bisimulation seeded with the observations and projects them onto the
  quotient;
* :meth:`LabeledIMC.relabel_observations` post-processes observations
  (e.g. collapsing count tuples to a final boolean predicate before the
  last quotient, to maximise reduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from repro.errors import ModelError
from repro.imc.composition import hide as _hide
from repro.imc.composition import parallel_with_map
from repro.imc.composition import relabel as _relabel
from repro.imc.model import IMC
from repro.obs import span

__all__ = ["LabeledIMC", "add_tuples"]


def add_tuples(left: tuple, right: tuple) -> tuple:
    """Element-wise addition of two equally long observation tuples."""
    if len(left) != len(right):
        raise ModelError("observation tuples must have equal length")
    return tuple(a + b for a, b in zip(left, right))


@dataclass
class LabeledIMC:
    """An IMC with one observation per state."""

    imc: IMC
    observations: list

    def __post_init__(self) -> None:
        if len(self.observations) != self.imc.num_states:
            raise ModelError("one observation per state required")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, imc: IMC, observation: Hashable) -> "LabeledIMC":
        """All states share one observation (e.g. the zero tuple)."""
        return cls(imc=imc, observations=[observation] * imc.num_states)

    @classmethod
    def from_function(
        cls, imc: IMC, observe: Callable[[int], Hashable]
    ) -> "LabeledIMC":
        """Observation computed per state index."""
        return cls(imc=imc, observations=[observe(s) for s in range(imc.num_states)])

    # ------------------------------------------------------------------
    # Lifted operators
    # ------------------------------------------------------------------
    def parallel(
        self,
        other: "LabeledIMC",
        sync: Sequence[str] = (),
        combine: Callable[[Hashable, Hashable], Hashable] = add_tuples,
    ) -> "LabeledIMC":
        """Parallel composition, combining the observations pairwise."""
        product, pairs = parallel_with_map(self.imc, other.imc, sync)
        observations = [
            combine(self.observations[s], other.observations[v]) for s, v in pairs
        ]
        return LabeledIMC(imc=product, observations=observations)

    def hide(self, actions: Sequence[str]) -> "LabeledIMC":
        """Hide actions; observations unchanged."""
        return LabeledIMC(imc=_hide(self.imc, actions), observations=list(self.observations))

    def hide_all_but(self, keep: Sequence[str] = ()) -> "LabeledIMC":
        """Close the system; observations unchanged."""
        from repro.imc.composition import hide_all_but as _hide_all_but

        return LabeledIMC(
            imc=_hide_all_but(self.imc, keep), observations=list(self.observations)
        )

    def relabel(self, mapping: dict[str, str]) -> "LabeledIMC":
        """Relabel actions; observations unchanged."""
        return LabeledIMC(
            imc=_relabel(self.imc, mapping), observations=list(self.observations)
        )

    def restricted_to_reachable(self) -> "LabeledIMC":
        """Drop the states unreachable under maximal progress (open view).

        Observations follow their states; ``self`` is returned when every
        state is reachable.
        """
        with span("imc.prune", states=self.imc.num_states) as sp:
            order = self.imc.reachable_states()
            if sp is not None:
                sp.annotate(reachable=len(order))
            if len(order) == self.imc.num_states:
                return self
            return LabeledIMC(
                imc=self.imc.restricted_to(order),
                observations=[self.observations[s] for s in order],
            )

    def minimize(self) -> "LabeledIMC":
        """Branching-bisimulation quotient respecting the observations."""
        # Imported here: repro.bisim depends on repro.imc.model, so a
        # top-level import would be circular.
        from repro.bisim.branching import branching_minimize
        from repro.bisim.quotient import map_labels_through

        quotient, partition = branching_minimize(self.imc, labels=self.observations)
        return LabeledIMC(
            imc=quotient,
            observations=map_labels_through(partition, self.observations),
        )

    def relabel_observations(
        self, transform: Callable[[Hashable], Hashable]
    ) -> "LabeledIMC":
        """Apply ``transform`` to every observation (coarsening them
        before a final quotient increases the achievable reduction)."""
        return LabeledIMC(
            imc=self.imc,
            observations=[transform(obs) for obs in self.observations],
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def observation_of(self, state: int) -> Hashable:
        """Observation attached to ``state``."""
        return self.observations[state]

    def states_where(self, predicate: Callable[[Hashable], bool]) -> list[int]:
        """States whose observation satisfies ``predicate``."""
        return [s for s, obs in enumerate(self.observations) if predicate(obs)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LabeledIMC({self.imc!r}, observations={len(set(self.observations))} distinct)"
