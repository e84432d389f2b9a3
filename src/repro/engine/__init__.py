"""Query-serving analysis engine over the reproduction pipeline.

The one-shot pipeline (build the FTWC, run Algorithm 1, print a number)
is wasteful the moment two queries touch the same model: a Figure-4
sweep asks eleven time bounds of one CTMDP, a service answers thousands.
This subsystem turns the pipeline into an engine:

* :mod:`repro.engine.keys` -- content-addressed model keys: every
  construction parameter is hashed into the model's address, so equal
  specs share work and unequal specs never collide.
* :mod:`repro.engine.registry` -- two-level (memory, disk) cache of
  built models with their goal masks and transformation statistics.
* :mod:`repro.engine.plan` -- query records and batch planning: group
  by shared ``(model, goal, objective)`` setup, sort each group by time
  bound.
* :mod:`repro.engine.solver` -- batched execution against prepared
  solvers, bitwise-equal to one-shot analysis, with per-query
  timeouts and per-query error capture.
* :mod:`repro.engine.metrics` -- counters and timers surfaced on every
  batch and dumpable as JSON.
* :mod:`repro.engine.serve` -- the JSON-lines request loop behind
  ``repro serve``.

Typical usage::

    from repro.engine import Query, QueryEngine

    engine = QueryEngine()          # add cache_dir=... for a disk cache
    spec = {"family": "ftwc", "n": 4}
    batch = engine.run([Query(model=spec, t=float(t)) for t in range(0, 501, 50)])
    print(batch.values(), engine.metrics.as_dict())
"""

from repro.engine.keys import canonical_json, model_key, normalize_spec
from repro.engine.metrics import EngineMetrics
from repro.engine.plan import Query, QueryGroup, plan_queries, query_from_dict
from repro.engine.registry import BuiltModel, ModelRegistry, default_cache_dir
from repro.engine.serve import serve
from repro.engine.solver import (
    BatchResult,
    QueryEngine,
    QueryResult,
    QueryTimeout,
    run_batch,
    run_batch_dicts,
)

__all__ = [
    "BatchResult",
    "BuiltModel",
    "EngineMetrics",
    "ModelRegistry",
    "Query",
    "QueryEngine",
    "QueryGroup",
    "QueryResult",
    "QueryTimeout",
    "canonical_json",
    "default_cache_dir",
    "model_key",
    "normalize_spec",
    "plan_queries",
    "query_from_dict",
    "run_batch",
    "run_batch_dicts",
    "serve",
]
