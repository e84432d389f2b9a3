"""``run.py compare`` on results files, and the refusal to run without sources."""

import json
import shutil
import subprocess
import sys

import run
from conftest import PIPELINE, ROOT

METRICS = {
    "setup_s": 2.0,
    "query_p50_s": 0.02,
    "queries_per_s": 12.0,
    "cpu_s_per_query": 0.08,
    "peak_rss_mb": 128.0,
}


def _results(path, scale, numpy="2.4.6", runs=10):
    stamp = {"git_sha": "x", "nproc": 2, "python": "3.11.7", "numpy": numpy, "seed": 1}
    document = {"format": "pipeline-bench-results", "runs": [
        {
            "stamp": stamp,
            "trace": False,
            "workloads": {"warm-serve": {"metrics": {
                name: value * scale.get(name, 1.0) * (1.0 + 0.002 * (i % 3))
                for name, value in METRICS.items()
            }}},
        }
        for i in range(runs)
    ]}
    path.write_text(json.dumps(document))
    return str(path)


def test_compare_of_equal_sets_passes(tmp_path, capsys):
    base = _results(tmp_path / "a.json", {})
    same = _results(tmp_path / "b.json", {})
    assert run.compare([base, same], ROOT) == 0
    out = capsys.readouterr().out
    assert out.count("within bound") == len(METRICS)


def test_compare_flags_a_worse_metric_and_differing_stamps(tmp_path, capsys):
    base = _results(tmp_path / "a.json", {})
    slower = _results(tmp_path / "b.json", {"queries_per_s": 0.6}, numpy="2.0.0")
    assert run.compare([base, slower], ROOT) == 1
    captured = capsys.readouterr()
    assert "queries_per_s" in captured.out and "worse" in captured.out
    assert "stamps differ in numpy" in captured.err


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PIPELINE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--workload", "cold-batch",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
