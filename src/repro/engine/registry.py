"""Content-addressed model registry: build once, serve many queries.

The registry maps a model spec (see :mod:`repro.engine.keys`) to a
:class:`BuiltModel` carrying the constructed model, its goal mask, its
label dictionary and its transformation statistics.  Lookups resolve in
three stages:

1. **memory** -- an in-process dictionary keyed by the content address;
2. **disk** -- an optional cache directory holding a ``.tra`` round trip
   of the model (via :mod:`repro.io.tra`) plus a JSON sidecar with the
   spec, goal states and build statistics;
3. **build** -- the actual generator (:mod:`repro.models.ftwc_direct` or
   the compositional route through :func:`repro.models.ftwc.build_compositional`,
   which exercises ``imc.transform``).

Because the key is a hash of *all* construction parameters, a cache hit
is always sound: the cached model is byte-for-byte the model the spec
describes (the ``.tra`` format stores rates via ``repr`` and therefore
round-trips floats exactly), so analyses on cached and freshly built
models are bitwise-equal.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.core.ctmdp import CTMDP
from repro.core.reachability import PreparedTimedReachability
from repro.ctmc.model import CTMC
from repro.ctmc.reachability import PreparedCTMCReachability
from repro.engine.keys import model_key, normalize_spec
from repro.engine.metrics import EngineMetrics
from repro.errors import ModelError
from repro.io.tra import read_ctmc_tra, read_ctmdp_tra, write_ctmc_tra, write_ctmdp_tra
from repro.lint.sanitize import sanitize_enabled, sanitize_model
from repro.models import ftwc, ftwc_direct
from repro.obs import span

__all__ = ["BuiltModel", "ModelRegistry", "default_cache_dir"]

_META_FORMAT = "repro-engine-cache"
_META_VERSION = 1


def default_cache_dir() -> Path:
    """The default on-disk cache location.

    ``$REPRO_CACHE_DIR`` wins if set; otherwise ``$XDG_CACHE_HOME/repro``
    or ``~/.cache/repro``.
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


@dataclass
class BuiltModel:
    """A registry entry: the model plus everything queries need.

    Attributes
    ----------
    key:
        Content address of the generating spec.
    spec:
        The normalised spec the model was built from.
    kind:
        ``"ctmdp"`` or ``"ctmc"``.
    model:
        The built :class:`~repro.core.ctmdp.CTMDP` or
        :class:`~repro.ctmc.model.CTMC`.
    goal_mask:
        Boolean mask of the model's goal set (the non-premium states).
    labels:
        Named state sets queries may reference as their goal
        (``"no_premium"`` and ``"premium"`` for the FTWC families).
    stats:
        Transformation statistics: state/transition counts, the uniform
        rate where defined, and the seconds the original construction
        took (preserved across cache hits).
    source:
        Where this lookup was answered from: ``"build"``, ``"memory"``
        or ``"disk"``.

    The entry also keeps one solver per goal label (:meth:`solver`) in
    memory; solvers never go to disk.
    """

    key: str
    spec: dict[str, Any]
    kind: str
    model: CTMDP | CTMC
    goal_mask: np.ndarray
    labels: dict[str, np.ndarray] = field(default_factory=dict)
    stats: dict[str, Any] = field(default_factory=dict)
    source: str = "build"
    _solvers: dict[str, Any] = field(default_factory=dict, init=False, repr=False, compare=False)

    def goal(self, label: str) -> np.ndarray:
        """The boolean mask of goal label ``label``."""
        try:
            return self.labels[label]
        except KeyError:
            known = ", ".join(sorted(self.labels)) or "<none>"
            raise ModelError(f"unknown goal label {label!r}; known labels: {known}") from None

    def prepare(
        self, label: str, metrics: EngineMetrics, state: int | None = None
    ) -> PreparedTimedReachability | PreparedCTMCReachability:
        """A fresh solver for goal ``label``: every state, or ``state``'s cone."""
        goal = self.goal(label)
        with metrics.timer("prepare_seconds"), span(
            "solver.prepare", kind=self.kind, states=self.model.num_states
        ):
            if isinstance(self.model, CTMDP):
                return PreparedTimedReachability(self.model, goal, state=state)
            return PreparedCTMCReachability(self.model, goal, state=state)

    def solver(
        self, label: str, metrics: EngineMetrics
    ) -> PreparedTimedReachability | PreparedCTMCReachability:
        """The solver for goal ``label`` from the initial state, prepared on
        first use and kept.  Two threads racing on a first use prepare
        identical solvers; the last one is kept, as for duplicate builds."""
        solver = self._solvers.get(label)
        if solver is None:
            solver = self.prepare(label, metrics, state=self.model.initial)
            self._solvers[label] = solver
        return solver


class ModelRegistry:
    """Two-level (memory, disk) content-addressed cache of built models.

    The in-process store is shared by ``repro serve``'s stdio loop and
    the telemetry endpoints' handler threads, so ``_memory`` is guarded
    by ``_lock``.  Builds and disk loads run *outside* the lock — they
    are slow, and the key is a content address, so a concurrent
    duplicate build resolves to an identical entry (last insert wins).
    """

    _guarded_by = {"_lock": ("_memory",)}

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        metrics: EngineMetrics | None = None,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.metrics = metrics if metrics is not None else EngineMetrics()
        self._memory: dict[str, BuiltModel] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, spec: Mapping[str, Any]) -> BuiltModel:
        """Resolve ``spec``: memory, then disk, then an actual build.

        With sanitization enabled (``REPRO_SANITIZE=1`` or the
        :func:`repro.lint.sanitizing` context manager), every entry
        crossing the registry boundary is re-linted; error findings
        raise :class:`~repro.errors.LintError`.  Memory hits are exempt
        -- they were checked when they entered the store.
        """
        normalized = normalize_spec(spec)
        key = model_key(normalized)
        with span("registry.get", family=normalized.get("family"), n=normalized.get("n")) as sp:
            with self._lock:
                cached = self._memory.get(key)
            if cached is not None:
                self.metrics.count("cache_hits_memory")
                cached.source = "memory"
                if sp is not None:
                    sp.annotate(source="memory", key=key)
                return cached
            loaded = self._load_from_disk(key)
            if loaded is not None:
                self.metrics.count("cache_hits_disk")
                self._sanitize(loaded)
                with self._lock:
                    self._memory[key] = loaded
                if sp is not None:
                    sp.annotate(source="disk", key=key)
                return loaded
            self.metrics.count("cache_misses")
            built = self._build(key, normalized)
            self._sanitize(built)
            with self._lock:
                self._memory[key] = built
            self._store_to_disk(built)
            if sp is not None:
                sp.annotate(source="build", key=key, states=built.model.num_states)
        return built

    def _sanitize(self, built: BuiltModel) -> None:
        """Opt-in lint gate for models entering the registry."""
        if not sanitize_enabled():
            return
        with self.metrics.timer("sanitize_seconds"):
            sanitize_model(
                built.model,
                goal=built.goal_mask,
                where=f"registry:{built.source}",
            )
        self.metrics.count("sanitize_checks")

    def __contains__(self, spec: Mapping[str, Any]) -> bool:
        key = model_key(spec)
        with self._lock:
            return key in self._memory

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def clear_memory(self) -> None:
        """Drop the in-process store (the disk cache is untouched)."""
        with self._lock:
            self._memory.clear()

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def _build(self, key: str, spec: dict[str, Any]) -> BuiltModel:
        family = spec["family"]
        params = ftwc_direct.FTWCParameters(n=spec["n"], **spec["params"])
        started = time.perf_counter()
        build_span = span("registry.build", family=family, n=spec["n"])
        with self.metrics.timer("build_seconds"), build_span:
            if family == "ftwc":
                direct = ftwc_direct.build_ctmdp(
                    spec["n"], params, quality_threshold=spec["quality_threshold"]
                )
                kind, model, goal = "ctmdp", direct.ctmdp, direct.goal_mask
            elif family == "ftwc-ctmc":
                chain, _configs, goal = ftwc_direct.build_ctmc(
                    spec["n"],
                    params,
                    gamma=spec["gamma"],
                    quality_threshold=spec["quality_threshold"],
                )
                kind, model = "ctmc", chain
            elif family == "ftwc-compositional":
                composed = ftwc.build_compositional(
                    spec["n"], params, minimize_intermediate=spec["minimize_intermediate"]
                )
                kind, model, goal = "ctmdp", composed.ctmdp, composed.goal_mask
            else:  # pragma: no cover - normalize_spec rejects unknown families
                raise ModelError(f"unknown model family {family!r}")
        build_seconds = time.perf_counter() - started
        self.metrics.count("models_built")

        stats: dict[str, Any] = {
            "states": model.num_states,
            "transitions": model.num_transitions,
            "build_seconds": build_seconds,
        }
        if kind == "ctmdp":
            stats["uniform_rate"] = float(model.uniform_rate())
        return BuiltModel(
            key=key,
            spec=spec,
            kind=kind,
            model=model,
            goal_mask=goal,
            labels={"no_premium": goal, "premium": ~goal},
            stats=stats,
            source="build",
        )

    # ------------------------------------------------------------------
    # Disk persistence
    # ------------------------------------------------------------------
    def _paths(self, key: str) -> tuple[Path, Path]:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.tra", self.cache_dir / f"{key}.meta.json"

    def _store_to_disk(self, built: BuiltModel) -> None:
        if self.cache_dir is None:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        tra_path, meta_path = self._paths(built.key)
        with self.metrics.timer("disk_write_seconds"):
            if built.kind == "ctmdp":
                write_ctmdp_tra(built.model, tra_path)
            else:
                write_ctmc_tra(built.model, tra_path)
            meta = {
                "format": _META_FORMAT,
                "version": _META_VERSION,
                "key": built.key,
                "spec": built.spec,
                "kind": built.kind,
                "initial": int(built.model.initial),
                "num_states": int(built.model.num_states),
                "goal_states": [int(s) for s in np.flatnonzero(built.goal_mask)],
                "stats": built.stats,
            }
            meta_path.write_text(json.dumps(meta, indent=1), encoding="utf-8")
        self.metrics.count("disk_writes")

    def _load_from_disk(self, key: str) -> BuiltModel | None:
        if self.cache_dir is None:
            return None
        tra_path, meta_path = self._paths(key)
        if not (tra_path.exists() and meta_path.exists()):
            return None
        with self.metrics.timer("disk_load_seconds"):
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
                if meta.get("format") != _META_FORMAT or meta.get("version") != _META_VERSION:
                    return None
                # Guard against hash collisions on truncated/corrupt sidecars.
                if model_key(meta["spec"]) != key:
                    return None
                if meta["kind"] == "ctmdp":
                    model: CTMDP | CTMC = read_ctmdp_tra(tra_path)
                else:
                    model = read_ctmc_tra(tra_path, initial=int(meta["initial"]))
                goal = np.zeros(int(meta["num_states"]), dtype=bool)
                goal[np.asarray(meta["goal_states"], dtype=np.int64)] = True
            except (ModelError, KeyError, ValueError, OSError, json.JSONDecodeError):
                # A corrupt cache entry degrades to a rebuild, never a crash.
                return None
        return BuiltModel(
            key=key,
            spec=meta["spec"],
            kind=meta["kind"],
            model=model,
            goal_mask=goal,
            labels={"no_premium": goal, "premium": ~goal},
            stats=dict(meta.get("stats", {})),
            source="disk",
        )

    # ------------------------------------------------------------------
    # Policy artifacts
    # ------------------------------------------------------------------
    # Extracted schedulers are content-addressed artifacts in their own
    # right (see :mod:`repro.policy.artifact`); the registry persists
    # them next to the models they were extracted from, under
    # ``<cache_dir>/policies/<policy_key>.rpol``.  Imports are lazy:
    # the policy package depends on the core solvers and most registry
    # users never touch policies.

    def _policy_dir(self) -> Path:
        if self.cache_dir is None:
            raise ModelError(
                "policy persistence needs a registry cache directory "
                "(this registry is memory-only)"
            )
        return self.cache_dir / "policies"

    def policy_path(self, key: str) -> Path:
        """Where the policy with content address ``key`` lives on disk."""
        return self._policy_dir() / f"{key}.rpol"

    def store_policy(self, artifact: "Any") -> Path:
        """Persist a :class:`~repro.policy.artifact.PolicyArtifact`.

        Returns the on-disk path.  Idempotent: the file is named after
        the artifact's content hash, so storing the same policy twice
        rewrites identical bytes.
        """
        from repro.policy.artifact import save_artifact

        path = self.policy_path(artifact.key)
        with self.metrics.timer("policy_write_seconds"):
            save_artifact(artifact, path)
        self.metrics.count("policies_stored")
        return path

    def load_policy(self, key: str) -> "Any":
        """Load a stored policy by content address (memory-mapped)."""
        from repro.policy.artifact import load_artifact

        path = self.policy_path(key)
        if not path.exists():
            raise ModelError(f"no stored policy with key {key!r}")
        with self.metrics.timer("policy_load_seconds"):
            artifact = load_artifact(path)
        self.metrics.count("policies_loaded")
        return artifact

    def list_policies(self) -> list[dict[str, Any]]:
        """Headers of every stored policy (cheap: no arrays are read)."""
        from repro.policy.artifact import read_header

        directory = self._policy_dir()
        if not directory.is_dir():
            return []
        records: list[dict[str, Any]] = []
        for path in sorted(directory.glob("*.rpol")):
            try:
                header = read_header(path)
            except ModelError:
                continue  # a corrupt artifact hides, it does not crash listings
            records.append({
                "key": path.stem,
                "path": str(path),
                "meta": header["meta"],
                "layout": header["layout"],
            })
        return records

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = str(self.cache_dir) if self.cache_dir is not None else "memory-only"
        return f"ModelRegistry({len(self)} in memory, cache={where})"
