"""The pipeline benchmark: the repro CLI end to end, on four workloads.

Run from the repository root::

    python3 benchmarks/pipeline/run.py [--workload NAME]... [--seed S] \\
        [--seconds N] [--trace [0|1]] [--out results.json]
    python3 benchmarks/pipeline/run.py compare A.json B.json

A run sets each workload up, times whole rounds of ops until ``--seconds``
have passed, checks every answer (see ``verify.py``) and prints every
metric by name with its unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
per-layer metrics.  ``--trace`` runs one untraced and one traced pass of
one set-up and one round each and reports per-layer metrics from the
traced one.  ``--out`` appends the run to a results file; ``compare``
judges the runs of two such files against the bounds in
``BENCHMARK.json``.  The exit code is 1 if any answer fails a check (or
``compare`` finds a metric worse), 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from typing import Any

from layers import per_layer_metrics
from procs import Launcher, Server, child_env
from stats import BEYOND, quartiles, relative_spread, tail, verdict
from verify import Answer, verify
from workloads import WORKLOADS, Workload, round_ops, setup_queries

ROOT = Path(__file__).resolve().parents[2]
DEFAULT_SEED = 1
#: Scratch space for query files, caches and traces, inside the checkout.
SCRATCH = ".pipeline_bench"


@dataclass
class Pass:
    """One set-up phase plus one timed loop of one workload."""

    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    loop_s: float = 0.0
    loop_cpu_s: float = 0.0
    #: Peak RSS of each process that ran ops (the server, for warm-serve).
    loop_rss_mb: list[float] = field(default_factory=list)
    queries: int = 0
    rounds: int = 0
    answers: list[Answer] = field(default_factory=list)
    cache: Path | None = None


def run_pass(
    workload: Workload, seed: int, launcher: Launcher, setups: int, seconds: float
) -> Pass:
    """Set ``workload`` up ``setups`` times, then run whole rounds of ops
    against the last set-up until ``seconds`` have passed (at least one)."""
    result = Pass()
    server: Server | None = None
    try:
        for _ in range(setups):
            queries = setup_queries(workload.name, seed)
            if workload.server:
                if server is not None:
                    server.close()
                server = Server(launcher)
                records = [server.ask(query)[1] for query in queries]
                result.setup_s.append(time.perf_counter() - server.started)
            else:
                result.cache = launcher.path("cache", "") if workload.disk_cache else None
                child, records = launcher.batch(queries, result.cache)
                result.setup_s.append(child.wall_s)
            result.answers += [Answer(q, r, "setup") for q, r in zip(queries, records)]

        cpu_before = server.cpu_s() if server is not None else 0.0
        started = time.perf_counter()
        while result.rounds == 0 or time.perf_counter() - started < seconds:
            for op in round_ops(workload.name, seed, result.rounds):
                if server is not None:
                    latency, record = server.ask(op[0])
                    records = [record]
                else:
                    child, records = launcher.batch(op, result.cache)
                    latency = child.wall_s
                    result.loop_cpu_s += child.cpu_s
                    result.loop_rss_mb.append(child.maxrss_mb)
                result.op_s.append(latency)
                result.queries += len(op)
                result.answers += [Answer(q, r, "op") for q, r in zip(op, records)]
            result.rounds += 1
        result.loop_s = time.perf_counter() - started
        if server is not None:
            result.loop_cpu_s = server.cpu_s() - cpu_before
            result.loop_rss_mb.append(server.close().maxrss_mb)
            server = None
    finally:
        if server is not None:
            server.close()
    return result


def end_to_end_metrics(main: Pass) -> dict[str, float]:
    """The end-to-end metrics of an untraced pass.

    ``peak_rss_mb`` is the median, not the maximum, of the op processes'
    peaks: about one compositional process in ten keeps ~75 MB more
    anonymous memory, and a maximum over a run's few processes turned
    that into run-to-run spread.
    """
    return {
        "setup_s": statistics.median(main.setup_s),
        "query_p50_s": statistics.median(main.op_s),
        "queries_per_s": main.queries / main.loop_s,
        "cpu_s_per_query": main.loop_cpu_s / main.queries,
        "peak_rss_mb": statistics.median(main.loop_rss_mb),
    }


def interpreter_seconds(root: Path, repeats: int = 5) -> float:
    """Median wall time of ``python -c pass`` in the children's environment."""
    env = child_env(root)
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=root, check=True)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, root: Path, workdir: Path
) -> dict[str, Any]:
    """Run, check and measure one workload; returns its results record."""
    workload = WORKLOADS[name]
    record: dict[str, Any] = {"loadavg_before": list(os.getloadavg())}
    plain = Launcher(root, workdir, traced=False)
    if trace:
        main = run_pass(workload, seed, plain, setups=1, seconds=0.0)
        traced_launcher = Launcher(root, workdir, traced=True)
        traced = run_pass(workload, seed, traced_launcher, setups=1, seconds=0.0)
        answers = main.answers + traced.answers
    else:
        main = run_pass(workload, seed, plain, workload.setup_repeats, seconds)
        answers = main.answers

    def run_reference(queries: list[dict[str, Any]]) -> list[dict[str, Any] | None]:
        return plain.batch(queries, main.cache)[1]

    report = verify(name, seed, answers, run_reference)
    failures = [
        {"phase": answer.phase, "query": answer.query, "problems": problems}
        for answer, problems in zip(answers, report)
        if problems
    ]
    record.update(
        attempted=len(answers),
        failed=len(failures),
        failures=failures[:20],
        fail_ratio=len(failures) / len(answers),
        rounds=main.rounds,
        ops=len(main.op_s),
        queries=main.queries,
        loop_s=main.loop_s,
        setup_samples_s=main.setup_s,
    )
    if trace:
        overhead = traced.loop_s / main.loop_s
        record["per_layer"] = per_layer_metrics(
            traced_launcher.children, interpreter_seconds(root), overhead
        )
        record["spans"] = [span for child in traced_launcher.children for span in child.spans]
    else:
        record["metrics"] = end_to_end_metrics(main)
        tail_latency = tail(main.op_s)
        if tail_latency is not None:
            record["query_tail_s"], record["query_tail_pct"] = tail_latency
            record["query_tail_beyond"] = BEYOND
    record["loadavg_after"] = list(os.getloadavg())
    return record


def _version(package: str) -> str | None:
    try:
        return version(package)
    except PackageNotFoundError:
        return None


def git_sha(root: Path) -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    if not (root / ".git").exists():
        return "unknown"
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
    )
    return out.stdout.strip() or "unknown"


def environment_stamp(root: Path, seed: int) -> dict[str, Any]:
    """Where and how a run ran; ``compare`` warns when two differ."""
    env = child_env(root)
    shown = ("PYTHON", "OMP_", "OPENBLAS_", "MKL_")
    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "seed": seed,
        "child_env": {
            key: env[key].replace(str(root), ".") for key in sorted(env) if key.startswith(shown)
        },
        "child_env_removed": sorted(key for key in os.environ if key.startswith("REPRO_")),
    }


def load_spec(root: Path) -> dict[str, Any]:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def append_run(path: Path, run: dict[str, Any]) -> None:
    """Append ``run`` to the results file at ``path`` (created if absent)."""
    document = {"format": "pipeline-bench-results", "runs": []}
    if path.exists():
        document = json.loads(path.read_text(encoding="utf-8"))
    document["runs"].append(run)
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


def benchmark(args: argparse.Namespace, root: Path) -> int:
    spec = load_spec(root)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = args.workload or list(WORKLOADS)
    trace = bool(args.trace)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}

    scratch = root / SCRATCH
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    results: dict[str, dict[str, Any]] = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, seconds, trace, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    metrics: dict[str, dict[str, Any]] = {}
    for name, record in results.items():
        values = record["per_layer" if trace else "metrics"]
        for metric, unit in units.items():
            print(f"{name:14} {metric:38} {values[metric]:>14.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}:{metric}"
            metrics[key] = {"value": values[metric], "unit": unit}
        if "query_tail_s" in record:
            print(
                f"{name:14} {'query_tail_s':38} {record['query_tail_s']:>14.6g} s"
                f"  (p{record['query_tail_pct']:.1f}, {BEYOND} of {record['ops']} ops beyond)"
            )
        print(f"{name:14} {'fail_ratio':38} {record['fail_ratio']:>14.6g}")
        for failure in record["failures"]:
            print(f"{name:14} FAILED {failure['phase']} {failure['query']}: {failure['problems']}",
                  file=sys.stderr)
    failed = sum(record["failed"] for record in results.values())
    summary = {
        "correct": failed == 0,
        "attempted": sum(record["attempted"] for record in results.values()),
        "failed": failed,
        "metrics": metrics,
    }

    if args.out:
        append_run(Path(args.out), {
            "stamp": environment_stamp(root, args.seed),
            "seconds": seconds,
            "trace": trace,
            "workloads": results,
        })
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def compare(paths: list[str], root: Path) -> int:
    """Print, per workload and end-to-end metric, both files' medians,
    quartiles and relative spreads and a verdict; 1 if any is worse."""
    if len(paths) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    spec = load_spec(root)
    base, change = (
        [run for run in json.loads(Path(p).read_text(encoding="utf-8"))["runs"]
         if not run["trace"]]
        for p in paths
    )
    ignored = ("git_sha", "seed")
    for key in sorted(set().union(*(run["stamp"] for run in base + change))):
        seen = {json.dumps(run["stamp"].get(key)) for run in base + change}
        if key not in ignored and len(seen) > 1:
            print(f"warning: stamps differ in {key}: {', '.join(sorted(seen))}", file=sys.stderr)

    worse = False
    header = f"{'workload':14} {'metric':16} {'A median [q1, q3] spread':>38}"
    print(f"{header} {'B median [q1, q3] spread':>38} {'change':>8}  verdict")
    for name in WORKLOADS:
        a_runs = [run["workloads"][name]["metrics"] for run in base if name in run["workloads"]]
        b_runs = [run["workloads"][name]["metrics"] for run in change if name in run["workloads"]]
        if not a_runs or not b_runs:
            continue
        for metric in spec["end_to_end"]:
            a = [run[metric["name"]] for run in a_runs]
            b = [run[metric["name"]] for run in b_runs]
            judged = verdict(a, b, metric["bound"], metric["better"] == "higher")
            worse = worse or judged == "worse"
            cells = []
            for values in (a, b):
                q1, q3 = quartiles(values)
                cells.append(
                    f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}] "
                    f"{relative_spread(values):.3f}"
                )
            change_pct = 100.0 * (statistics.median(b) / statistics.median(a) - 1.0)
            print(f"{name:14} {metric['name']:16} {cells[0]:>38} {cells[1]:>38} "
                  f"{change_pct:>+7.1f}%  {judged}")
    return 1 if worse else 0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="run this workload (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"seed of the generated inputs (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="minimum length of each timed loop "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from a traced pass")
    parser.add_argument("--out", default=None, help="append the run to this results file")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare(argv[1:], ROOT)
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return benchmark(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
