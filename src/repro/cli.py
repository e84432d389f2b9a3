"""Command-line interface: regenerate the paper's tables and figures.

Usage examples::

    repro table1 --ns 1 2 4 8 --solve 100
    repro figure4 --n 4 --t-max 500 --points 11
    repro compositional --ns 1 2
    repro export --n 2 --out-prefix /tmp/ftwc2
    repro batch queries.json
    repro serve --cache-dir ~/.cache/repro
    repro lint --model ftwc -n 1
    repro lint model.tra --format json --strict

Exit codes: most commands follow the 0 = success, 1 = domain failure,
2 = usage convention.  ``repro check`` adds 3 for quantitative queries
(``P=?``), which compute a value but no true/false verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

__all__ = ["main", "build_parser", "package_version"]


def package_version() -> str:
    """The installed package version, falling back to the module constant."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        import repro

        return repro.__version__


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="model registry disk cache directory (default: ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="keep the model registry in memory only",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Uniformity by construction: regenerate the DSN 2007 FTWC "
            "experiments (Table 1, Figure 4), export models, and serve "
            "timed-reachability queries."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="model sizes, runtimes, iterations (Table 1)")
    table1.add_argument("--ns", type=int, nargs="+", default=[1, 2, 4, 8, 16])
    table1.add_argument(
        "--solve",
        type=float,
        nargs="*",
        default=[100.0],
        help="time bounds (hours) to actually solve; iteration counts for "
        "100h and 30000h are always reported",
    )
    table1.add_argument("--epsilon", type=float, default=1e-6)

    figure4 = sub.add_parser("figure4", help="CTMDP worst case vs CTMC (Figure 4)")
    figure4.add_argument("--n", type=int, default=4)
    figure4.add_argument("--t-max", type=float, default=500.0)
    figure4.add_argument("--points", type=int, default=11)
    figure4.add_argument("--gamma", type=float, default=10.0)
    figure4.add_argument("--no-min", action="store_true", help="skip the inf curve")

    comp = sub.add_parser(
        "compositional", help="compositional-route statistics (Section 5)"
    )
    comp.add_argument("--ns", type=int, nargs="+", default=[1, 2])

    export = sub.add_parser("export", help="write FTWC models to .tra/.lab/.dot files")
    export.add_argument("--n", type=int, default=2)
    export.add_argument("--out-prefix", required=True)

    sweep = sub.add_parser("sweep", help="sensitivity sweeps over FTWC parameters")
    sweep.add_argument(
        "--kind", choices=["size", "repair", "failure"], default="repair"
    )
    sweep.add_argument("--n", type=int, default=2, help="cluster size (repair/failure sweeps)")
    sweep.add_argument(
        "--values",
        type=float,
        nargs="+",
        default=[0.5, 1.0, 2.0, 4.0],
        help="sizes (kind=size) or scale factors (kind=repair/failure)",
    )
    sweep.add_argument("--t", type=float, default=100.0)

    report = sub.add_parser("report", help="write a full Markdown reproduction report")
    report.add_argument("--out", required=True)
    report.add_argument(
        "--scale", choices=["quick", "default", "full"], default="default"
    )

    query = sub.add_parser(
        "check",
        help="evaluate a CSL-style query on the FTWC "
        '(labels: "no_premium", "premium"; exit 0 satisfied, 1 violated, '
        "2 usage error, 3 quantitative/no verdict)",
    )
    query.add_argument("query", help='e.g. Pmax=? [ F<=100 "no_premium" ]')
    query.add_argument("--n", type=int, default=2)
    query.add_argument("--epsilon", type=float, default=1e-6)
    query.add_argument(
        "--ctmc", action="store_true",
        help="evaluate on the CTMC approximation of [13] instead",
    )
    from repro.policy.options import add_save_policy_option

    add_save_policy_option(query)

    sub.add_parser(
        "selfcheck",
        help="run the cross-validation battery (independent implementations "
        "must agree)",
    )

    lint = sub.add_parser(
        "lint",
        help="static analysis of models: uniformity, alternation, numerics "
        "(exit 0 clean, 1 findings, 2 usage/load error)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="model files to lint (.tra transition files or .json model "
        "documents)",
    )
    lint.add_argument(
        "--model",
        choices=["ftwc", "ftwc-ctmc", "ftwc-compositional"],
        default=None,
        help="lint a builtin model family instead of (or besides) files; "
        "'ftwc-compositional' also runs the pipeline invariant pass "
        "(Lemmas 1-3, strict alternation)",
    )
    lint.add_argument("-n", type=int, default=2, help="cluster size for --model")
    lint.add_argument(
        "--format", choices=["text", "json"], default="text", dest="format_"
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as findings (exit 1)",
    )
    lint.add_argument(
        "--graph",
        action="store_true",
        help="also run the whole-model graph pass (Qxxx codes: goal "
        "reachability, end-component traps, deadlocks, vanishing "
        "cycles); file goals come from a sibling .lab",
    )
    lint.add_argument(
        "--self",
        action="store_true",
        dest="self_",
        help="lint the repro source tree itself (Txxx codes: lock "
        "discipline, nested lock acquisition, float equality, "
        "order-dependent rate sums); combinable with paths to .py "
        "files",
    )

    analyze = sub.add_parser(
        "analyze",
        help="whole-model graph analysis: SCC condensation, maximal end "
        "components, deadlocks and the qualitative Prob0/Prob1 sets",
    )
    analyze.add_argument(
        "target",
        help="model file (.tra/.json) or builtin family "
        "(ftwc, ftwc-ctmc, ftwc-compositional)",
    )
    analyze.add_argument("--n", type=int, default=2, help="cluster size for families")
    analyze.add_argument(
        "--goal",
        default=None,
        help="goal label for the qualitative sets (files: resolved from "
        "a sibling .lab; ftwc families default to 'no_premium')",
    )
    analyze.add_argument(
        "--format", choices=["text", "json"], default="text", dest="format_"
    )

    batch = sub.add_parser(
        "batch",
        help="answer a JSON file of timed-reachability queries through the "
        "model registry and batched solver",
    )
    batch.add_argument("queries", help="path to the batch file (JSON)")
    batch.add_argument(
        "--out", default=None, help="write the result document here (default: stdout)"
    )
    batch.add_argument(
        "--timeout", type=float, default=None, help="per-query wall-clock budget (s)"
    )
    add_save_policy_option(batch)
    _add_cache_arguments(batch)

    profile = sub.add_parser(
        "profile",
        help="run one traced query end-to-end and print a phase-attributed "
        "breakdown (build, prepare, Fox-Glynn, backward iteration)",
    )
    profile.add_argument(
        "family",
        nargs="?",
        choices=["ftwc", "ftwc-ctmc", "ftwc-compositional"],
        default="ftwc",
    )
    profile.add_argument("--n", type=int, default=2, help="cluster size")
    profile.add_argument("--t", type=float, default=100.0, help="time bound (hours)")
    profile.add_argument("--epsilon", type=float, default=1e-6)
    profile.add_argument("--objective", choices=["max", "min"], default="max")
    profile.add_argument("--goal", default="no_premium")
    profile.add_argument(
        "--allocations",
        action="store_true",
        help="track net allocation deltas per span (tracemalloc; slower)",
    )
    profile.add_argument(
        "--trace-out",
        default=None,
        help="also write the raw span trace as JSONL to this path",
    )
    _add_cache_arguments(profile)

    serve = sub.add_parser(
        "serve",
        help="JSON-lines query server on stdin/stdout (one request per "
        "line, one response per line)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, help="per-query wall-clock budget (s)"
    )
    serve.add_argument(
        "--http-port",
        type=int,
        default=None,
        help="additionally expose /metrics and /healthz over HTTP on this "
        "port (0 picks a free port)",
    )
    serve.add_argument(
        "--http-host",
        default="127.0.0.1",
        help="bind address for --http-port (default: 127.0.0.1)",
    )
    _add_cache_arguments(serve)

    bench = sub.add_parser(
        "bench",
        help="benchmark-ledger tooling (the BENCH_*.json series in the "
        "repository root)",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    trend = bench_sub.add_parser(
        "trend",
        help="trend every ledger metric across commits and flag regressions "
        "(exit 0 clean, 1 regressed, 2 usage/load error)",
    )
    trend.add_argument(
        "--ledger",
        nargs="*",
        default=None,
        metavar="BENCH_*.json",
        help="ledger files to analyze (default: ./BENCH_*.json)",
    )
    trend.add_argument(
        "--json", action="store_true", dest="json_", help="emit the JSON report"
    )
    trend.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="tolerated fractional degradation of the latest run vs the "
        "median of prior runs (default: 1.0, i.e. flag >100%% worse)",
    )
    trend.add_argument(
        "--min-history",
        type=int,
        default=None,
        help="prior runs required before a metric is checked (default: 2)",
    )

    from repro.policy.cli import add_policy_parser

    add_policy_parser(sub)

    return parser


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import table1_row
    from repro.analysis.tables import render_table1

    rows = [
        table1_row(
            n,
            time_bounds=(100.0, 30000.0),
            solve_bounds=tuple(args.solve),
            epsilon=args.epsilon,
        )
        for n in args.ns
    ]
    print(render_table1(rows))
    return 0


def _cmd_figure4(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import figure4_curves
    from repro.analysis.tables import render_figure4

    if args.points < 2:
        print("need at least two time points", file=sys.stderr)
        return 2
    step = args.t_max / (args.points - 1)
    ts = tuple(step * k for k in range(args.points))
    curves = figure4_curves(
        args.n, ts, gamma=args.gamma, include_min=not args.no_min
    )
    print(render_figure4(curves))
    return 0


def _cmd_compositional(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import compositional_row
    from repro.analysis.tables import render_compositional

    rows = [compositional_row(n) for n in args.ns]
    print(render_compositional(rows))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.sweeps import (
        sweep_cluster_size,
        sweep_failure_rate,
        sweep_repair_speed,
    )

    if args.kind == "size":
        points = sweep_cluster_size([int(v) for v in args.values], t=args.t)
        label = "N"
    elif args.kind == "repair":
        points = sweep_repair_speed(args.n, args.values, t=args.t)
        label = "repair-speed factor"
    else:
        points = sweep_failure_rate(args.n, args.values, t=args.t)
        label = "failure-rate factor"
    print(f"{label:>22s}  {'worst-case P':>14s}  {'states':>8s}  {'E':>8s}")
    for point in points:
        print(
            f"{point.parameter:22g}  {point.probability:14.6e}  "
            f"{point.states:8d}  {point.uniform_rate:8.4f}"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import ReportScale, write_report

    scales = {
        "quick": ReportScale.quick(),
        "default": ReportScale(),
        "full": ReportScale.full(),
    }
    path = write_report(args.out, scales[args.scale])
    print(f"wrote {path}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.logic import check
    from repro.models.ftwc_direct import build_ctmc, build_ctmdp

    if args.ctmc:
        chain, _configs, goal = build_ctmc(args.n)
        model, mask = chain, goal
    else:
        built = build_ctmdp(args.n)
        model, mask = built.ctmdp, built.goal_mask
    labels = {"no_premium": mask, "premium": ~mask}
    try:
        result = check(
            args.query, model, labels, epsilon=args.epsilon,
            record_scheduler=bool(args.save_policy),
        )
    except ReproError as exc:
        print(f"cannot check {args.query!r}: {exc}", file=sys.stderr)
        return 2
    print(result)
    if result.certificate is not None:
        print(result.certificate.describe())
    if args.save_policy:
        code = _save_check_policy(args, result, model)
        if code != 0:
            return code
    if result.satisfied is None:
        # Quantitative queries (P=?) compute a value but no verdict; do
        # not conflate "no verdict" with "satisfied" (exit 0).
        return 3
    return 0 if result.satisfied else 1


def _save_check_policy(args: argparse.Namespace, result, model) -> int:
    """Persist the scheduler a ``repro check --save-policy`` run recorded."""
    from repro.engine import ModelRegistry, default_cache_dir
    from repro.engine.keys import model_key, normalize_spec
    from repro.errors import ReproError
    from repro.policy.artifact import PolicyArtifact
    from repro.policy.options import save_policy_artifacts

    solver_result = getattr(result, "solver_result", None)
    if solver_result is None or solver_result.decisions is None:
        print(
            "--save-policy: this query records no scheduler "
            "(CTMC model or untimed/steady-state query)",
            file=sys.stderr,
        )
        return 2
    spec = normalize_spec({"family": "ftwc", "n": args.n})
    path = result.query.path
    meta = {
        "model_key": model_key(spec),
        "model": dict(spec),
        "objective": solver_result.objective,
        "goal": path.goal.label,
        "t": solver_result.time_bound,
        "epsilon": args.epsilon,
        "value": result.value,
        "initial": int(model.initial),
    }
    safe = getattr(path, "safe", None)
    if safe is not None and not safe.is_true:
        meta["safe"] = safe.label
    artifact = PolicyArtifact(
        decisions=solver_result.decisions,
        meta=meta,
        certificate=solver_result.certificate,
    )
    registry = None
    if args.save_policy == "registry":
        registry = ModelRegistry(cache_dir=str(default_cache_dir()))
    try:
        records = save_policy_artifacts(args.save_policy, [artifact], registry)
    except (ReproError, OSError) as exc:
        print(f"--save-policy failed: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print(f"saved policy {record['key'][:16]} -> {record['path']}", file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.lint import LintReport, lint_graph, lint_model, lint_path, lint_pipeline

    if not args.paths and args.model is None and not args.self_:
        print(
            "nothing to lint: pass model files, --model or --self",
            file=sys.stderr,
        )
        return 2

    reports: list[LintReport] = []
    if args.self_:
        from repro.lint.source import lint_self

        reports.append(lint_self())
    for path in args.paths:
        try:
            reports.append(lint_path(path, graph=args.graph))
        except (ReproError, OSError, ValueError) as exc:
            print(f"cannot lint {path}: {exc}", file=sys.stderr)
            return 2

    if args.model is not None:
        from repro.models import ftwc, ftwc_direct

        target = f"{args.model}[n={args.n}]"
        if args.model == "ftwc":
            direct = ftwc_direct.build_ctmdp(args.n)
            report = LintReport(target=target, kind="ctmdp")
            report.extend(lint_model(direct.ctmdp, goal=direct.goal_mask))
            if args.graph:
                report.extend(lint_graph(direct.ctmdp, goal=direct.goal_mask))
        elif args.model == "ftwc-ctmc":
            chain, _configs, goal = ftwc_direct.build_ctmc(args.n)
            report = LintReport(target=target, kind="ctmc")
            report.extend(lint_model(chain, goal=goal))
            if args.graph:
                report.extend(lint_graph(chain, goal=goal))
        else:
            system = ftwc.build_system_imc(args.n)
            report = LintReport(target=target, kind="pipeline")
            report.extend(lint_pipeline(system.imc))
            if args.graph:
                report.extend(lint_graph(system.imc))
        reports.append(report)

    if args.format_ == "json":
        document = {
            "reports": [report.as_dict() for report in reports],
            "errors": sum(len(report.errors) for report in reports),
            "warnings": sum(len(report.warnings) for report in reports),
        }
        print(json.dumps(document, indent=1))
    else:
        print("\n".join(report.render_text() for report in reports))
    return max(report.exit_code(strict=args.strict) for report in reports)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import ReproError
    from repro.graph import analyze_model

    target = args.target
    goal = None
    try:
        if target in ("ftwc", "ftwc-ctmc", "ftwc-compositional"):
            from repro.models import ftwc, ftwc_direct

            mask = None
            if target == "ftwc":
                built = ftwc_direct.build_ctmdp(args.n)
                model, mask = built.ctmdp, built.goal_mask
            elif target == "ftwc-ctmc":
                model, _configs, mask = ftwc_direct.build_ctmc(args.n)
            else:
                model = ftwc.build_system_imc(args.n).imc
            if mask is not None:
                label = args.goal if args.goal is not None else "no_premium"
                labels = {"no_premium": mask, "premium": ~mask}
                if label not in labels:
                    print(
                        f"unknown goal label {label!r}; "
                        f"available: {sorted(labels)}",
                        file=sys.stderr,
                    )
                    return 2
                goal = labels[label]
            name = f"{target}[n={args.n}]"
        else:
            path = Path(target)
            if path.suffix == ".tra":
                from repro.io.tra import model_from_scan, scan_tra

                model = model_from_scan(scan_tra(path))
            elif path.suffix == ".json":
                from repro.io.json_io import load_model

                model = load_model(path)
            else:
                print(
                    f"cannot analyze {path}: unknown suffix {path.suffix!r} "
                    "(expected .tra/.json or a builtin family)",
                    file=sys.stderr,
                )
                return 2
            if args.goal is not None:
                from repro.io.tra import read_labels

                masks = read_labels(path.with_suffix(".lab"), model.num_states)
                if args.goal not in masks:
                    print(
                        f"no proposition {args.goal!r} in "
                        f"{path.with_suffix('.lab')}; "
                        f"declared: {sorted(masks)}",
                        file=sys.stderr,
                    )
                    return 2
                goal = masks[args.goal]
            else:
                from repro.lint import sibling_goal_mask

                goal = sibling_goal_mask(path, model.num_states)
            name = str(path)
    except (ReproError, OSError, ValueError) as exc:
        print(f"cannot analyze {target}: {exc}", file=sys.stderr)
        return 2

    analysis = analyze_model(model, goal=goal)
    if args.format_ == "json":
        document = {"target": name, **analysis.as_dict()}
        print(json.dumps(document, indent=1))
    else:
        print(f"{name}:")
        print(analysis.render_text())
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from repro.analysis.validate import run_selfcheck

    outcomes = run_selfcheck()
    width = max(len(outcome.name) for outcome in outcomes)
    for outcome in outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        print(f"[{status}] {outcome.name:<{width}}  {outcome.detail}")
    failed = sum(not outcome.passed for outcome in outcomes)
    print(f"{len(outcomes) - failed}/{len(outcomes)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.io.dot import ctmdp_to_dot, write_dot
    from repro.io.tra import write_ctmdp_tra, write_labels
    from repro.models.ftwc_direct import build_ctmdp

    model = build_ctmdp(args.n)
    prefix = args.out_prefix
    write_ctmdp_tra(model.ctmdp, f"{prefix}.tra")
    write_labels(model.goal_mask, "no_premium", f"{prefix}.lab")
    if model.ctmdp.num_states <= 2000:
        write_dot(ctmdp_to_dot(model.ctmdp), f"{prefix}.dot")
    print(
        f"wrote {prefix}.tra ({model.ctmdp.num_states} states, "
        f"{model.ctmdp.num_transitions} transitions) and {prefix}.lab"
    )
    return 0


def _make_engine(args: argparse.Namespace):
    from repro.engine import QueryEngine, default_cache_dir

    if args.no_disk_cache:
        cache_dir = None
    elif args.cache_dir is not None:
        cache_dir = args.cache_dir
    else:
        cache_dir = str(default_cache_dir())
    return QueryEngine(cache_dir=cache_dir, timeout=args.timeout)


def _read_batch_file(path: str) -> tuple[list, Any] | None:
    """The ``(records, defaults)`` of a batch file, or ``None`` if bad.

    A batch file is a JSON list of queries or an object with a
    ``queries`` list and optional ``defaults``.  The reason a file is
    rejected goes to stderr; callers exit 2.
    """
    from pathlib import Path

    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None
    except json.JSONDecodeError as exc:
        print(f"invalid JSON in {path}: {exc}", file=sys.stderr)
        return None
    if isinstance(document, list):
        return document, None
    if isinstance(document, dict) and isinstance(document.get("queries"), list):
        return document["queries"], document.get("defaults")
    print(
        f"{path}: batch file must be a JSON list of queries or an object "
        "with a 'queries' list (and optional 'defaults')",
        file=sys.stderr,
    )
    return None


def _cmd_batch(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import ModelError

    batch_file = _read_batch_file(args.queries)
    if batch_file is None:
        return 2
    records, defaults = batch_file

    engine = _make_engine(args)
    try:
        batch = engine.run_dicts(
            records, defaults=defaults, record_schedulers=bool(args.save_policy)
        )
    except ModelError as exc:
        print(f"invalid batch defaults: {exc}", file=sys.stderr)
        return 2
    document = batch.as_dict()
    if args.save_policy:
        from repro.errors import ReproError
        from repro.policy.options import save_policy_artifacts

        artifacts = [
            result.policy for result in batch.results if result.policy is not None
        ]
        try:
            stored = save_policy_artifacts(
                args.save_policy, artifacts, engine.registry
            )
        except (ReproError, OSError) as exc:
            print(f"--save-policy failed: {exc}", file=sys.stderr)
            return 2
        document["policies"] = stored
        print(f"stored {len(stored)} polic(y/ies)", file=sys.stderr)
    rendered = json.dumps(document, indent=1)
    if args.out:
        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
        print(f"wrote {args.out} ({len(batch.results)} results)", file=sys.stderr)
    else:
        print(rendered)
    if batch.num_failed:
        print(f"{batch.num_failed} quer(y/ies) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.obs.profile import profile_query

    # Unlike batch/serve, profiling defaults to a memory-only registry so
    # the breakdown includes the build phase; pass --cache-dir to profile
    # the disk-load path instead.
    cache_dir = None if args.no_disk_cache else args.cache_dir
    try:
        report = profile_query(
            family=args.family,
            n=args.n,
            t=args.t,
            epsilon=args.epsilon,
            objective=args.objective,
            goal=args.goal,
            track_allocations=args.allocations,
            cache_dir=cache_dir,
        )
    except (ReproError, RuntimeError) as exc:
        print(f"profile failed: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    if args.trace_out:
        report.tracer.write_jsonl(args.trace_out)
        print(f"wrote {args.trace_out} ({len(report.tracer.spans)} spans)", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.engine import serve as engine_serve

    return engine_serve(
        engine=_make_engine(args),
        http_port=args.http_port,
        http_host=args.http_host,
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench import DEFAULT_MIN_HISTORY, DEFAULT_THRESHOLD, LedgerError, analyze_ledgers

    if args.ledger:
        paths = [Path(spec) for spec in args.ledger]
    else:
        paths = sorted(Path.cwd().glob("BENCH_*.json"))
    if not paths:
        print("no ledgers found (looked for ./BENCH_*.json)", file=sys.stderr)
        return 2
    threshold = DEFAULT_THRESHOLD if args.threshold is None else args.threshold
    min_history = (
        DEFAULT_MIN_HISTORY if args.min_history is None else args.min_history
    )
    try:
        report = analyze_ledgers(paths, threshold=threshold, min_history=min_history)
    except LedgerError as exc:
        print(f"bench trend: {exc}", file=sys.stderr)
        return 2
    if args.json_:
        print(json.dumps(report.as_dict(), indent=1))
    else:
        print(report.render_text())
    return report.exit_code()


def _cmd_policy(args: argparse.Namespace) -> int:
    from repro.policy.cli import cmd_policy

    return cmd_policy(args)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Argument-parsing failures (including unknown subcommands) are
    reported via exit code 2, as is argparse convention; ``--version``
    and ``--help`` return 0.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    handlers = {
        "table1": _cmd_table1,
        "figure4": _cmd_figure4,
        "compositional": _cmd_compositional,
        "export": _cmd_export,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
        "check": _cmd_check,
        "selfcheck": _cmd_selfcheck,
        "lint": _cmd_lint,
        "analyze": _cmd_analyze,
        "batch": _cmd_batch,
        "profile": _cmd_profile,
        "serve": _cmd_serve,
        "bench": _cmd_bench,
        "policy": _cmd_policy,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
