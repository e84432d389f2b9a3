"""Query records and batch planning for the multi-query solver.

A :class:`Query` asks for one timed-reachability probability: *on this
model* (a spec for :mod:`repro.engine.registry`), *for this goal label*,
*within this time bound*, *under this objective*, *at this precision*.
:func:`plan_queries` turns a flat batch of queries into an execution
plan: queries are grouped by ``(model key, goal, objective)`` -- the
setup those queries can share -- and each group is sorted by time bound,
so a Figure-4-style sweep over one model becomes a single group answered
against one prepared solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.engine.keys import model_key, normalize_spec
from repro.errors import ModelError

__all__ = ["Query", "QueryGroup", "query_from_dict", "plan_queries"]

_OBJECTIVES = ("max", "min")

#: Fields a query dictionary may carry (``model`` may also come from the
#: batch-level defaults).
_QUERY_FIELDS = ("model", "t", "goal", "objective", "epsilon")


@dataclass(frozen=True)
class Query:
    """One timed-reachability question against a registered model.

    ``objective`` distinguishes worst-case (``"max"``) from best-case
    (``"min"``) scheduling; it is ignored for CTMC models, which have no
    scheduler.  ``goal`` names a label of the built model
    (``"no_premium"``/``"premium"`` for the FTWC families).
    """

    model: Mapping[str, Any]
    t: float
    goal: str = "no_premium"
    objective: str = "max"
    epsilon: float = 1e-6

    def __post_init__(self) -> None:
        normalized = normalize_spec(self.model)
        object.__setattr__(self, "model", normalized)
        if (
            not isinstance(self.t, (int, float))
            or isinstance(self.t, bool)
            or not math.isfinite(self.t)
            or self.t < 0.0
        ):
            raise ModelError(
                f"query time bound must be a finite non-negative number, got {self.t!r}"
            )
        object.__setattr__(self, "t", float(self.t))
        if self.objective not in _OBJECTIVES:
            raise ModelError(f"objective must be 'max' or 'min', got {self.objective!r}")
        if not isinstance(self.goal, str) or not self.goal:
            raise ModelError(f"goal must be a non-empty label, got {self.goal!r}")
        try:
            eps = float(self.epsilon)
        except (TypeError, ValueError):
            raise ModelError(f"epsilon must be a number, got {self.epsilon!r}") from None
        if not 0.0 < eps < 1.0:
            raise ModelError(f"epsilon must lie in (0, 1), got {eps}")
        object.__setattr__(self, "epsilon", eps)

    def model_key(self) -> str:
        """Content address of this query's model spec."""
        return model_key(self.model)

    def as_dict(self) -> dict[str, Any]:
        """JSON-compatible form (the normalised spec, all fields explicit)."""
        return {
            "model": dict(self.model),
            "t": self.t,
            "goal": self.goal,
            "objective": self.objective,
            "epsilon": self.epsilon,
        }


def query_from_dict(
    data: Mapping[str, Any], defaults: Mapping[str, Any] | None = None
) -> Query:
    """Parse one query dictionary, filling omitted fields from ``defaults``.

    Unknown fields are rejected so typos fail loudly rather than being
    silently ignored.
    """
    if not isinstance(data, Mapping):
        raise ModelError(f"a query must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - set(_QUERY_FIELDS)
    if unknown:
        raise ModelError(f"unknown query field(s): {', '.join(sorted(unknown))}")
    merged: dict[str, Any] = dict(defaults or {})
    merged.update(data)
    if "model" not in merged:
        raise ModelError("query needs a 'model' spec (inline or via batch defaults)")
    if "t" not in merged:
        raise ModelError("query needs a time bound 't'")
    return Query(
        model=merged["model"],
        t=merged["t"],
        goal=merged.get("goal", "no_premium"),
        objective=merged.get("objective", "max"),
        epsilon=merged.get("epsilon", 1e-6),
    )


@dataclass
class QueryGroup:
    """Queries sharing one ``(model, goal, objective)`` setup.

    ``members`` holds ``(batch index, query)`` pairs sorted by time
    bound, so the group is answered as an ascending sweep.
    """

    model_key: str
    spec: dict[str, Any]
    goal: str
    objective: str
    members: list[tuple[int, Query]] = field(default_factory=list)
    #: Record each CTMDP solve's optimal step scheduler (compressed) and
    #: attach it to the query result as a policy artifact.
    record_schedulers: bool = False

    @property
    def time_bounds(self) -> list[float]:
        """The group's time bounds in solve order."""
        return [query.t for _index, query in self.members]


def plan_queries(
    queries: Iterable[Query] | Sequence[Query],
    record_schedulers: bool = False,
) -> list[QueryGroup]:
    """Group a batch by shared setup and sort each group by time bound.

    The returned groups are ordered deterministically (by model key,
    goal, objective); each group's members are sorted ascending by
    ``(t, batch index)``.  Batch indices refer to positions in the input
    iterable, letting callers restore the original order of results.
    With ``record_schedulers`` every group asks its CTMDP solves to
    extract the optimal step scheduler alongside the probability.
    """
    groups: dict[tuple[str, str, str], QueryGroup] = {}
    for index, query in enumerate(queries):
        key = query.model_key()
        group_id = (key, query.goal, query.objective)
        group = groups.get(group_id)
        if group is None:
            group = QueryGroup(
                model_key=key,
                spec=dict(query.model),
                goal=query.goal,
                objective=query.objective,
                record_schedulers=record_schedulers,
            )
            groups[group_id] = group
        group.members.append((index, query))
    for group in groups.values():
        group.members.sort(key=lambda member: (member[1].t, member[0]))
    return [groups[group_id] for group_id in sorted(groups)]
