"""``repro profile``: one traced query, rendered as a phase breakdown.

Runs a single timed-reachability query through the full pipeline --
model construction (for the compositional family including bisimulation
minimisation and the uIMC-to-uCTMDP transformation), solver
preparation, Fox-Glynn and the backward iteration -- under an active
:class:`~repro.obs.tracer.Tracer`, and renders the result as a
flame-style breakdown: the span tree with wall/CPU/self times, a
per-phase aggregation sorted by self time, and the per-step summary of
the value-iteration sweep.

This module imports the engine, so it is *not* re-exported from
:mod:`repro.obs` (the solvers import ``repro.obs`` for :func:`span`;
pulling the engine in from there would be a cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.obs.tracer import Tracer, tracing

__all__ = ["ProfileReport", "profile_query"]


@dataclass
class ProfileReport:
    """A traced query plus its answer, renderable as text."""

    spec: dict[str, Any]
    goal: str
    t: float
    epsilon: float
    objective: str
    value: float
    iterations: int
    tracer: Tracer

    def render(self) -> str:
        """The full profile: header, span tree, aggregation, sweep stats."""
        lines = [
            f"model={self.spec}  goal={self.goal!r}  t={self.t:g}  "
            f"epsilon={self.epsilon:g}  objective={self.objective}",
            f"value={self.value:.10e}  iterations={self.iterations}  "
            f"wall={self.tracer.total_wall_seconds():.4f}s",
            "",
            self.tracer.render_tree(),
            "",
            self._render_aggregate(),
        ]
        sweep_lines = self._render_sweep()
        if sweep_lines:
            lines += ["", sweep_lines]
        return "\n".join(lines)

    def _render_aggregate(self) -> str:
        total = self.tracer.total_wall_seconds()
        rows = [f"{'phase':<28}  {'count':>5}  {'wall':>10}  {'self':>10}  {'self %':>6}"]
        for bucket in self.tracer.aggregate():
            share = 100.0 * bucket["self_seconds"] / total if total > 0.0 else 0.0
            rows.append(
                f"{bucket['name']:<28}  {bucket['count']:>5}  "
                f"{bucket['wall_seconds']:>9.4f}s  {bucket['self_seconds']:>9.4f}s  "
                f"{share:>5.1f}%"
            )
        return "\n".join(rows)

    def _render_sweep(self) -> str:
        for record in self.tracer.spans:
            steps = record.attributes.get("steps")
            if record.name.endswith(".sweep") and isinstance(steps, dict):
                parts = [f"sweep steps: {steps.get('steps', 0)}"]
                if steps.get("steps"):
                    parts.append(
                        f"rate: {steps['steps_per_second']:.0f} steps/s, "
                        f"p50 {steps['p50_seconds'] * 1e6:.1f}us, "
                        f"p90 {steps['p90_seconds'] * 1e6:.1f}us, "
                        f"p99 {steps['p99_seconds'] * 1e6:.1f}us"
                    )
                return "\n".join(parts)
        return ""


def profile_query(
    family: str = "ftwc",
    n: int = 2,
    t: float = 100.0,
    epsilon: float = 1.0e-6,
    objective: str = "max",
    goal: str = "no_premium",
    track_allocations: bool = False,
    cache_dir: str | None = None,
) -> ProfileReport:
    """Run one traced query and return the report.

    A fresh engine is used so the profile always includes the build
    phase (unless ``cache_dir`` points at a warm disk cache, in which
    case the profile shows the disk-load path instead -- itself a
    useful measurement).
    """
    from repro.engine.plan import Query
    from repro.engine.solver import QueryEngine

    engine = QueryEngine(cache_dir=cache_dir)
    spec: dict[str, Any] = {"family": family, "n": n}
    query = Query(model=spec, t=t, epsilon=epsilon, goal=goal, objective=objective)
    with tracing(track_allocations=track_allocations) as tracer:
        batch = engine.run([query])
    result = batch.results[0]
    if not result.ok:
        raise RuntimeError(f"profiled query failed: {result.error}")
    return ProfileReport(
        spec=spec,
        goal=goal,
        t=t,
        epsilon=epsilon,
        objective=objective,
        value=float(result.value),
        iterations=int(result.iterations or 0),
        tracer=tracer,
    )
