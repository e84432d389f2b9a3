"""``repro policy``: inspect, diff, replay and export stored schedulers.

Subcommands operate on ``.rpol`` artifact files or, with a registry
cache, on content addresses (the 64-digit key or any unambiguous
prefix):

* ``list`` -- the registry's policy store, one line per artifact;
* ``inspect`` -- one artifact's provenance, store statistics and
  extraction certificate as JSON;
* ``summary`` -- a compact table over several artifacts;
* ``diff`` -- where two artifacts disagree (metadata and decisions);
* ``replay`` -- induced-chain validation: rebuild the model from the
  artifact's spec (or load it from disk with ``--against model.tra``),
  replay the stored scheduler, check the reported probability and
  certify the deviation (exit 0 healthy, 1 not);
* ``export`` -- the change-point NDJSON stream of ``export_ndjson``.

Exit codes follow the repo convention: 0 success, 1 domain failure
(unhealthy replay, diff found differences), 2 usage/load errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - the artifact module loads numpy
    from repro.policy.artifact import PolicyArtifact

__all__ = ["add_policy_parser", "cmd_policy"]


def add_policy_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``policy`` subcommand on the main CLI's subparsers."""
    policy = sub.add_parser(
        "policy",
        help="inspect, diff, replay and export stored scheduler artifacts "
        "(.rpol files or registry keys)",
    )
    actions = policy.add_subparsers(dest="policy_command", required=True)

    def _add_cache(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--cache-dir",
            default=None,
            help="registry cache directory for key lookups "
            "(default: ~/.cache/repro)",
        )

    listing = actions.add_parser("list", help="stored policies in the registry")
    listing.add_argument(
        "--format", choices=["text", "json"], default="text", dest="format_"
    )
    _add_cache(listing)

    inspect = actions.add_parser(
        "inspect", help="provenance, store statistics and certificate (JSON)"
    )
    inspect.add_argument("artifact", help=".rpol path or registry key (prefix)")
    _add_cache(inspect)

    summary = actions.add_parser("summary", help="compact table over artifacts")
    summary.add_argument("artifacts", nargs="+", help=".rpol paths or registry keys")
    _add_cache(summary)

    diff = actions.add_parser(
        "diff", help="metadata and decision differences of two artifacts"
    )
    diff.add_argument("left", help=".rpol path or registry key (prefix)")
    diff.add_argument("right", help=".rpol path or registry key (prefix)")
    _add_cache(diff)

    replay = actions.add_parser(
        "replay",
        help="induced-chain validation: replay the stored scheduler on its "
        "model and certify the reported probability",
    )
    replay.add_argument("artifact", help=".rpol path or registry key (prefix)")
    replay.add_argument(
        "--format", choices=["text", "json"], default="text", dest="format_"
    )
    replay.add_argument(
        "--against",
        default=None,
        metavar="MODEL_FILE",
        help="replay against this on-disk model (.tra or .json CTMDP) "
        "instead of rebuilding from the artifact's model spec",
    )
    replay.add_argument(
        "--labels",
        default=None,
        metavar="LAB_FILE",
        help="label file for --against goal resolution "
        "(default: the sibling .lab of the model file)",
    )
    replay.add_argument(
        "--goal",
        default=None,
        help="goal proposition in the label file (default: the "
        "artifact's goal label, then 'goal', then the first declared)",
    )
    replay.add_argument(
        "--safe",
        default=None,
        help="safe proposition for until-extracted schedulers "
        "(default: the artifact's safe label, if labelled)",
    )
    replay.add_argument(
        "--initial",
        type=int,
        default=None,
        help="1-based state whose value is compared "
        "(default: the artifact's recorded initial state)",
    )
    _add_cache(replay)

    export = actions.add_parser(
        "export", help="change-point NDJSON stream of the scheduler"
    )
    export.add_argument("artifact", help=".rpol path or registry key (prefix)")
    export.add_argument(
        "--out", default=None, help="write the stream here (default: stdout)"
    )
    _add_cache(export)


def _registry(args: argparse.Namespace):
    from repro.engine import ModelRegistry, default_cache_dir

    cache_dir = args.cache_dir if args.cache_dir is not None else str(default_cache_dir())
    return ModelRegistry(cache_dir=cache_dir)


def _load(args: argparse.Namespace, target: str) -> PolicyArtifact:
    """Resolve ``target`` as a file path first, then as a registry key.

    A key may be abbreviated to any prefix that matches exactly one
    stored policy.
    """
    from repro.policy.artifact import load_artifact

    path = Path(target)
    if path.is_file():
        return load_artifact(path)
    registry = _registry(args)
    matches = [
        record for record in registry.list_policies()
        if str(record.get("key", "")).startswith(target)
    ]
    if len(matches) == 1:
        return registry.load_policy(str(matches[0]["key"]))
    if len(matches) > 1:
        raise ReproError(
            f"key prefix {target!r} is ambiguous "
            f"({len(matches)} stored policies match)"
        )
    raise ReproError(f"no such artifact file or stored policy key: {target!r}")


def _cmd_list(args: argparse.Namespace) -> int:
    records = _registry(args).list_policies()
    if args.format_ == "json":
        print(json.dumps(records, indent=1, sort_keys=True))
        return 0
    if not records:
        print("no stored policies")
        return 0
    print(f"{'key':<16} {'objective':<9} {'t':>10} {'rows':>7} {'states':>7}  goal")
    for record in records:
        meta = record.get("meta", {})
        layout = record.get("layout", {})
        print(
            f"{str(record.get('key', ''))[:16]:<16} "
            f"{str(meta.get('objective', '?')):<9} "
            f"{float(meta.get('t', float('nan'))):>10g} "
            f"{int(layout.get('num_rows', 0)):>7d} "
            f"{int(layout.get('num_states', 0)):>7d}  "
            f"{meta.get('goal', '?')}"
        )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    artifact = _load(args, args.artifact)
    print(json.dumps(artifact.summary(), indent=1, sort_keys=True))
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    print(
        f"{'key':<16} {'objective':<9} {'t':>10} {'value':>13} "
        f"{'rows':>7} {'ratio':>8} {'stationary':<10}"
    )
    for target in args.artifacts:
        artifact = _load(args, target)
        stats = artifact.decisions.stats()
        print(
            f"{artifact.key[:16]:<16} {artifact.objective:<9} "
            f"{artifact.t:>10g} {artifact.value:>13.6e} "
            f"{stats['rows']:>7d} {stats['compression_ratio']:>8.1f} "
            f"{str(bool(stats['stationary'])).lower():<10}"
        )
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    import numpy as np

    left = _load(args, args.left)
    right = _load(args, args.right)
    if left.key == right.key:
        print(f"identical: {left.key}")
        return 0
    different = False
    for name in sorted(set(left.meta) | set(right.meta)):
        a, b = left.meta.get(name), right.meta.get(name)
        if a != b:
            different = True
            print(f"meta {name}: {a!r} != {b!r}")
    if left.decisions.shape != right.decisions.shape:
        print(f"shape: {left.decisions.shape} != {right.decisions.shape}")
        return 1
    cells = 0
    first: int | None = None
    for index, (row_a, row_b) in enumerate(
        zip(left.decisions.iter_rows(), right.decisions.iter_rows())
    ):
        unequal = int(np.count_nonzero(row_a != row_b))
        if unequal:
            cells += unequal
            if first is None:
                first = index
    if cells:
        rows, states = left.decisions.shape
        print(
            f"decisions: {cells} differing cell(s) out of {rows * states}, "
            f"first at row {first}"
        )
        return 1
    print("decisions: identical")
    return 1 if different else 0


def _against_model(args: argparse.Namespace, artifact: PolicyArtifact):
    """Load the ``--against`` model file and resolve goal/safe masks.

    The model must be an on-disk CTMDP (``.tra`` or ``.json``); state
    masks come from ``--labels`` (default: the model's sibling ``.lab``
    file).  Raises :class:`ReproError` on every resolution failure, so
    :func:`cmd_policy` maps them to the usage exit code.
    """
    from repro.core.ctmdp import CTMDP
    from repro.io.tra import model_from_scan, read_labels, scan_tra

    path = Path(args.against)
    if path.suffix == ".tra":
        scan = scan_tra(path)
        if scan.kind != "ctmdp":
            raise ReproError(
                f"{path} holds a {scan.kind}; replay needs a CTMDP"
            )
        model = model_from_scan(scan)
    elif path.suffix == ".json":
        from repro.io.json_io import load_model

        model = load_model(path)
        if not isinstance(model, CTMDP):
            raise ReproError(
                f"{path} holds a {type(model).__name__}; replay needs a CTMDP"
            )
    else:
        raise ReproError(
            f"cannot replay against {path}: unknown suffix {path.suffix!r} "
            "(expected .tra or .json)"
        )

    lab = Path(args.labels) if args.labels else path.with_suffix(".lab")
    if not lab.exists():
        raise ReproError(
            f"no label file {lab} for goal resolution; pass --labels"
        )
    masks = read_labels(lab, model.num_states)
    if not masks:
        raise ReproError(f"{lab} declares no propositions")

    def _pick(name: str | None, *fallbacks: str | None) -> str:
        # An explicitly requested proposition must exist; only the
        # implicit fallbacks may be skipped silently.
        if name is not None:
            if name in masks:
                return name
            raise ReproError(
                f"no proposition {name!r} in {lab}; declared: {sorted(masks)}"
            )
        for candidate in fallbacks:
            if candidate is not None and candidate in masks:
                return candidate
        return next(iter(masks))

    goal = masks[_pick(args.goal, artifact.meta.get("goal"), "goal")]
    safe = None
    safe_label = args.safe if args.safe is not None else artifact.meta.get("safe")
    if safe_label is not None:
        if safe_label not in masks:
            raise ReproError(
                f"no proposition {safe_label!r} in {lab}; "
                f"declared: {sorted(masks)}"
            )
        safe = masks[safe_label]
    return model, goal, safe


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.policy.validate import validate_artifact

    artifact = _load(args, args.artifact)
    if args.against is not None:
        model, goal, safe = _against_model(args, artifact)
        metrics = None
        initial = (
            args.initial - 1
            if args.initial is not None
            else artifact.meta.get("initial")
        )
    else:
        spec = artifact.meta.get("model")
        if not isinstance(spec, dict):
            print(
                "artifact metadata carries no 'model' spec; cannot rebuild the "
                "model for replay (pass --against with an on-disk model)",
                file=sys.stderr,
            )
            return 2
        registry = _registry(args)
        built = registry.get(spec)
        if built.kind != "ctmdp":
            print(f"model spec {spec!r} is not a CTMDP", file=sys.stderr)
            return 2
        model = built.model
        goal = built.goal(str(artifact.meta.get("goal", "no_premium")))
        safe_label = artifact.meta.get("safe")
        safe = built.goal(str(safe_label)) if safe_label else None
        metrics = registry.metrics
        initial = (
            args.initial - 1
            if args.initial is not None
            else artifact.meta.get("initial")
        )
    report = validate_artifact(
        artifact,
        model,
        goal,
        initial=int(initial) if initial is not None else None,
        safe=safe,
        metrics=metrics,
    )
    if args.format_ == "json":
        print(json.dumps(report.as_dict(), indent=1, sort_keys=True))
    else:
        print(report.describe())
    return 0 if report.ok else 1


def _cmd_export(args: argparse.Namespace) -> int:
    artifact = _load(args, args.artifact)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            count = 0
            for line in artifact.export_ndjson():
                handle.write(line + "\n")
                count += 1
        print(f"wrote {args.out} ({count} records)", file=sys.stderr)
    else:
        for line in artifact.export_ndjson():
            print(line)
    return 0


_HANDLERS = {
    "list": _cmd_list,
    "inspect": _cmd_inspect,
    "summary": _cmd_summary,
    "diff": _cmd_diff,
    "replay": _cmd_replay,
    "export": _cmd_export,
}


def cmd_policy(args: argparse.Namespace) -> int:
    """Dispatch a parsed ``repro policy`` invocation."""
    try:
        return _HANDLERS[args.policy_command](args)
    except (ReproError, OSError) as exc:
        print(f"policy {args.policy_command} failed: {exc}", file=sys.stderr)
        return 2


def main(argv: Any = None) -> int:  # pragma: no cover - thin wrapper
    from repro.cli import main as repro_main

    return repro_main(["policy", *(argv or [])])
