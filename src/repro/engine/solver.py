"""Batched multi-query solver over the content-addressed registry.

:func:`run_batch` answers a list of :class:`~repro.engine.plan.Query`
records.  The batch is planned (grouped by shared ``(model, goal,
objective)`` setup, each group sorted by time bound), every group's
model is resolved through the registry (so repeated batches skip
construction entirely), and each group is answered against the solver
the registry entry keeps for its goal label: prepared once, it sweeps
only the cone of the model's initial state, and each query adds one
Fox-Glynn computation for its time bound.  Answers are bitwise-identical
to independent :func:`repro.core.reachability.timed_reachability` calls
-- batching changes the cost, never the answer.

Failure isolation: a query that raises (unknown goal label, numerical
failure, per-query timeout) produces an *error record*; the rest of the
batch is unaffected.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.reachability import PreparedTimedReachability
from repro.engine.metrics import EngineMetrics
from repro.engine.plan import Query, QueryGroup, plan_queries, query_from_dict
from repro.engine.registry import BuiltModel, ModelRegistry
from repro.lint.sanitize import sanitize_enabled, sanitize_model
from repro.obs import NumericalCertificate, record_certificate, span

__all__ = [
    "QueryResult",
    "BatchResult",
    "QueryTimeout",
    "run_batch",
    "run_batch_dicts",
    "QueryEngine",
]


class QueryTimeout(Exception):
    """A single query exceeded its wall-clock budget."""


@contextmanager
def _time_limit(seconds: float | None) -> Iterator[None]:
    """Raise :class:`QueryTimeout` if the body runs longer than ``seconds``.

    Implemented with ``SIGALRM``/``setitimer``, which only works on the
    main thread of a POSIX process; elsewhere (or with no limit) the
    body runs unguarded.
    """
    usable = (
        seconds is not None
        and seconds > 0.0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):  # pragma: no cover - trivial
        raise QueryTimeout()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class QueryResult:
    """Outcome of one query, successful or failed.

    ``value`` is the probability from the model's initial state (``None``
    on failure); ``cache`` records where the model came from (``"build"``,
    ``"memory"`` or ``"disk"``); ``seconds`` is the solve wall-clock time
    of this query alone; ``certificate`` is the solver's numerical-health
    certificate (``None`` only for failed queries).
    """

    index: int
    query: Query | None
    value: float | None = None
    iterations: int | None = None
    seconds: float = 0.0
    model_key: str = ""
    cache: str | None = None
    error: str | None = None
    certificate: NumericalCertificate | None = None
    #: The extracted scheduler (a :class:`repro.policy.PolicyArtifact`)
    #: when the batch ran with ``record_schedulers``; ``None`` otherwise.
    policy: Any = None

    @property
    def ok(self) -> bool:
        """True iff the query produced a value."""
        return self.error is None

    def as_dict(self) -> dict[str, Any]:
        """JSON-compatible record (the shape ``repro batch`` emits).

        The ``policy`` key (the artifact's summary) appears only when a
        scheduler was recorded, keeping the historical record shape
        byte-stable for every other batch.
        """
        record = {
            "index": self.index,
            "query": self.query.as_dict() if self.query is not None else None,
            "value": self.value,
            "iterations": self.iterations,
            "seconds": self.seconds,
            "model_key": self.model_key,
            "cache": self.cache,
            "error": self.error,
            "certificate": (
                self.certificate.as_dict() if self.certificate is not None else None
            ),
        }
        if self.policy is not None:
            record["policy"] = self.policy.summary()
        return record


@dataclass
class BatchResult:
    """All results of one batch, in input order, plus engine metrics."""

    results: list[QueryResult]
    metrics: EngineMetrics = field(default_factory=EngineMetrics)

    def values(self) -> list[float | None]:
        """The per-query probabilities (``None`` where a query failed)."""
        return [result.value for result in self.results]

    @property
    def num_failed(self) -> int:
        return sum(not result.ok for result in self.results)

    def as_dict(self) -> dict[str, Any]:
        return {
            "results": [result.as_dict() for result in self.results],
            "metrics": self.metrics.as_dict(),
        }


def _error_results(
    group: QueryGroup, message: str, cache: str | None = None
) -> list[QueryResult]:
    return [
        QueryResult(
            index=index,
            query=query,
            model_key=group.model_key,
            cache=cache,
            error=message,
        )
        for index, query in group.members
    ]


def _policy_from_outcome(group, query, built, value, outcome, metrics):
    """Wrap a recorded scheduler into a provenance-carrying artifact.

    Also records the extraction metrics (``policies_extracted``,
    compressed/dense byte counters, the compression-ratio gauges) the
    observability glossary documents.
    """
    from repro.policy.artifact import PolicyArtifact

    decisions = outcome.decisions
    artifact = PolicyArtifact(
        decisions=decisions,
        meta={
            "model_key": group.model_key,
            "model": dict(group.spec),
            "objective": group.objective,
            "goal": group.goal,
            "t": query.t,
            "epsilon": query.epsilon,
            "value": value,
            "initial": int(built.model.initial),
        },
        certificate=outcome.certificate,
    )
    metrics.count("policies_extracted")
    nbytes = getattr(decisions, "nbytes", None)
    dense_nbytes = getattr(decisions, "dense_nbytes", None)
    if nbytes is not None and dense_nbytes is not None:
        metrics.count("policy_bytes_written", int(nbytes))
        metrics.count("policy_dense_bytes", int(dense_nbytes))
        ratio = float(decisions.compression_ratio)
        metrics.gauge("policy_last_compression_ratio", ratio)
        metrics.gauge("policy_compression_ratio_max", ratio)
    return artifact


def _solve_group(
    registry: ModelRegistry,
    group: QueryGroup,
    timeout: float | None,
) -> list[QueryResult]:
    """Answer one group against a single prepared solver.

    A group recording schedulers prepares a full solver of its own (a
    recorded policy has decisions for every state); every other group
    reuses the registry entry's solver for the initial state's cone.
    """
    metrics = registry.metrics
    try:
        built = registry.get(group.spec)
    except Exception as exc:
        return _error_results(group, f"model build failed: {exc}")
    try:
        goal = built.goal(group.goal)
        if sanitize_enabled():
            with metrics.timer("sanitize_seconds"):
                sanitize_model(built.model, goal=goal, where="solver-prepare")
            metrics.count("sanitize_checks")
        if group.record_schedulers:
            prepared = built.prepare(group.goal, metrics)
        else:
            prepared = built.solver(group.goal, metrics)
    except Exception as exc:
        return _error_results(group, f"{type(exc).__name__}: {exc}", cache=built.source)

    results = []
    for index, query in group.members:
        started = time.perf_counter()
        policy = None
        try:
            with _time_limit(timeout), span(
                "solver.solve", t=query.t, objective=group.objective, kind=built.kind
            ):
                if isinstance(prepared, PreparedTimedReachability):
                    outcome = prepared.solve(
                        query.t,
                        query.epsilon,
                        group.objective,
                        record_scheduler=group.record_schedulers,
                    )
                    value = outcome.value(built.model.initial)
                    iterations = outcome.iterations
                    certificate = outcome.certificate
                    if outcome.decisions is not None:
                        policy = _policy_from_outcome(
                            group, query, built, value, outcome, metrics
                        )
                else:
                    reach = prepared.solve(query.t, query.epsilon)
                    value = reach.value(built.model.initial)
                    iterations = reach.iterations
                    certificate = reach.certificate
            seconds = time.perf_counter() - started
            metrics.add_time("solve_seconds", seconds)
            metrics.count("foxglynn")
            metrics.count("iterations", iterations)
            if certificate is not None:
                record_certificate(metrics, certificate)
            results.append(
                QueryResult(
                    index=index,
                    query=query,
                    value=value,
                    iterations=iterations,
                    seconds=seconds,
                    model_key=group.model_key,
                    cache=built.source,
                    certificate=certificate,
                    policy=policy,
                )
            )
        except QueryTimeout:
            results.append(
                QueryResult(
                    index=index,
                    query=query,
                    seconds=time.perf_counter() - started,
                    model_key=group.model_key,
                    cache=built.source,
                    error=f"query timed out after {timeout} s",
                )
            )
        except Exception as exc:
            results.append(
                QueryResult(
                    index=index,
                    query=query,
                    seconds=time.perf_counter() - started,
                    model_key=group.model_key,
                    cache=built.source,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return results


def run_batch(
    queries: Iterable[Query],
    registry: ModelRegistry | None = None,
    timeout: float | None = None,
    record_schedulers: bool = False,
) -> BatchResult:
    """Answer a batch of queries; results come back in input order.

    Parameters
    ----------
    queries:
        The batch.  Order is preserved in ``BatchResult.results``.
    registry:
        Model cache to resolve specs through; a fresh memory-only
        registry by default.
    timeout:
        Optional per-query wall-clock budget in seconds; an overrunning
        query yields an error record, the batch continues.
    record_schedulers:
        Extract the optimal step scheduler of every CTMDP solve (in the
        compressed streaming format) and attach it to the result as a
        :class:`repro.policy.PolicyArtifact` under ``result.policy``.
    """
    batch = list(queries)
    registry = registry if registry is not None else ModelRegistry()
    metrics = registry.metrics
    groups = plan_queries(batch, record_schedulers=record_schedulers)

    slots: list[QueryResult | None] = [None] * len(batch)
    for group in groups:
        for result in _solve_group(registry, group, timeout):
            slots[result.index] = result

    results = [slot for slot in slots if slot is not None]
    metrics.count("queries_total", len(results))
    failed = sum(not result.ok for result in results)
    if failed:
        metrics.count("queries_failed", failed)
    return BatchResult(results=results, metrics=metrics)


def run_batch_dicts(
    records: Sequence[Mapping[str, Any]],
    defaults: Mapping[str, Any] | None = None,
    registry: ModelRegistry | None = None,
    timeout: float | None = None,
    record_schedulers: bool = False,
) -> BatchResult:
    """Like :func:`run_batch`, but over raw query dictionaries.

    Malformed records become error results at their batch position
    instead of aborting the batch -- the contract of the ``repro batch``
    and ``repro serve`` front-ends.
    """
    registry = registry if registry is not None else ModelRegistry()
    parsed: list[tuple[int, Query]] = []
    parse_errors: dict[int, str] = {}
    for index, record in enumerate(records):
        try:
            parsed.append((index, query_from_dict(record, defaults)))
        except Exception as exc:
            parse_errors[index] = f"invalid query: {exc}"

    inner = run_batch(
        [query for _index, query in parsed],
        registry=registry,
        timeout=timeout,
        record_schedulers=record_schedulers,
    )
    slots: list[QueryResult | None] = [None] * len(records)
    for (index, _query), result in zip(parsed, inner.results):
        result.index = index
        slots[index] = result
    for index, message in parse_errors.items():
        slots[index] = QueryResult(index=index, query=None, error=message)
    registry.metrics.count("queries_total", len(parse_errors))
    if parse_errors:
        registry.metrics.count("queries_failed", len(parse_errors))
    return BatchResult(
        results=[slot for slot in slots if slot is not None],
        metrics=registry.metrics,
    )


class QueryEngine:
    """Facade bundling a registry with batch execution defaults.

    The experiment harness and the CLI front-ends construct one engine
    and issue every query through it, so all entry points share the same
    cache and metrics stream::

        engine = QueryEngine()
        batch = engine.run([Query(model={"family": "ftwc", "n": 4}, t=100.0)])
        print(batch.results[0].value, engine.metrics.counter("cache_misses"))
    """

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        cache_dir: str | None = None,
        timeout: float | None = None,
    ) -> None:
        if registry is None:
            registry = ModelRegistry(cache_dir=cache_dir)
        self.registry = registry
        self.timeout = timeout

    @property
    def metrics(self) -> EngineMetrics:
        """The engine's shared metrics collector."""
        return self.registry.metrics

    def model(self, spec: Mapping[str, Any]) -> BuiltModel:
        """Resolve a model spec through the registry."""
        return self.registry.get(spec)

    def run(
        self, queries: Iterable[Query], record_schedulers: bool = False
    ) -> BatchResult:
        """Answer a batch of :class:`Query` records."""
        return run_batch(
            queries,
            registry=self.registry,
            timeout=self.timeout,
            record_schedulers=record_schedulers,
        )

    def run_dicts(
        self,
        records: Sequence[Mapping[str, Any]],
        defaults: Mapping[str, Any] | None = None,
        record_schedulers: bool = False,
    ) -> BatchResult:
        """Answer a batch of raw query dictionaries."""
        return run_batch_dicts(
            records,
            defaults=defaults,
            registry=self.registry,
            timeout=self.timeout,
            record_schedulers=record_schedulers,
        )
