"""Tests for the command-line interface."""

import io
import json
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main, package_version

SMOKE_FILE = Path(__file__).parent.parent / "examples" / "queries_smoke.json"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.ns == [1, 2, 4, 8, 16]
        assert args.solve == [100.0]

    def test_batch_defaults(self):
        args = build_parser().parse_args(["batch", "queries.json"])
        assert args.queries == "queries.json"
        assert args.out is None
        assert args.timeout is None
        assert not args.no_disk_cache

    def test_serve_arguments(self):
        args = build_parser().parse_args(
            ["serve", "--timeout", "5", "--cache-dir", "/tmp/c"]
        )
        assert args.timeout == 5.0
        assert args.cache_dir == "/tmp/c"


class TestExitCodes:
    def test_version_prints_package_version(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {package_version()}"

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "batch" in capsys.readouterr().out


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1", "--ns", "1", "--solve", "50"]) == 0
        out = capsys.readouterr().out
        assert "Inter.st" in out
        assert "Runtime 50h (s)" in out

    def test_table1_without_solving(self, capsys):
        assert main(["table1", "--ns", "1", "--solve"]) == 0
        out = capsys.readouterr().out
        assert "Iter 30000h" in out

    def test_figure4(self, capsys):
        code = main(
            ["figure4", "--n", "1", "--t-max", "100", "--points", "3", "--no-min"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CTMDP sup" in out
        assert "CTMDP inf" not in out

    def test_figure4_too_few_points(self, capsys):
        assert main(["figure4", "--points", "1"]) == 2

    def test_compositional(self, capsys):
        assert main(["compositional", "--ns", "1"]) == 0
        assert "CTMDP states" in capsys.readouterr().out

    def test_export(self, tmp_path, capsys):
        prefix = tmp_path / "ftwc"
        assert main(["export", "--n", "1", "--out-prefix", str(prefix)]) == 0
        assert (tmp_path / "ftwc.tra").exists()
        assert (tmp_path / "ftwc.lab").exists()
        assert (tmp_path / "ftwc.dot").exists()
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--kind", "repair", "--n", "1", "--values", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "worst-case P" in out

    def test_sweep_size(self, capsys):
        assert main(["sweep", "--kind", "size", "--values", "1", "2", "--t", "50"]) == 0
        assert "N" in capsys.readouterr().out

    def test_report(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["report", "--out", str(out), "--scale", "quick"]) == 0
        assert out.exists()
        assert "Reproduction report" in out.read_text()

    def test_check_query(self, capsys):
        code = main(["check", 'Pmax<=0.01 [ F<=3 "no_premium" ]', "--n", "1"])
        assert code == 0
        assert "[True]" in capsys.readouterr().out

    def test_check_query_violated(self, capsys):
        code = main(["check", 'Pmax<=1e-9 [ F<=100 "no_premium" ]', "--n", "1"])
        assert code == 1
        assert "[False]" in capsys.readouterr().out

    def test_check_on_ctmc_quantitative_exits_3(self, capsys):
        # Quantitative queries have no verdict; exit 3 keeps that
        # distinguishable from "satisfied" (0) and "violated" (1).
        code = main(["check", 'S=? [ "premium" ]', "--n", "1", "--ctmc"])
        assert code == 3
        assert "S=?" in capsys.readouterr().out

    def test_check_quantitative_probability_exits_3(self, capsys):
        code = main(["check", 'Pmax=? [ F<=10 "no_premium" ]', "--n", "1"])
        assert code == 3
        assert "Pmax=?" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["Pmax=? [ F<="],
            ['P=? [ F<=100 "nope" ]'],
            ['Pmax=? [ F<=100 "no_premium" ]', "--ctmc"],
        ],
        ids=["parse-error", "unknown-label", "quantifier-on-ctmc"],
    )
    def test_check_bad_query_is_usage_error(self, capsys, argv):
        # Exit 1 means "violated"; a query that cannot be evaluated is a
        # usage error (2) with a one-line message and no traceback.
        assert main(["check", *argv[:1], "--n", "1", *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    def test_selfcheck(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "6/6 checks passed" in out
        assert "FAIL" not in out


class TestLintCommand:
    FIXTURES = Path(__file__).parent / "fixtures"

    def test_no_target_is_usage_error(self, capsys):
        assert main(["lint"]) == 2
        assert "nothing to lint" in capsys.readouterr().err

    def test_builtin_ftwc_lints_clean(self, capsys):
        assert main(["lint", "--model", "ftwc", "-n", "1"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_builtin_ftwc_json_has_zero_errors(self, capsys):
        assert main(["lint", "--model", "ftwc", "-n", "1", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["errors"] == 0
        assert document["reports"][0]["kind"] == "ctmdp"

    def test_compositional_runs_pipeline_pass(self, capsys):
        assert main(["lint", "--model", "ftwc-compositional", "-n", "1"]) == 0
        assert "pipeline" in capsys.readouterr().out

    def test_defect_fixture_text_output(self, capsys):
        path = str(self.FIXTURES / "defect_nonuniform.tra")
        assert main(["lint", path]) == 1
        out = capsys.readouterr().out
        assert "U001" in out
        assert "error" in out

    def test_defect_fixture_json_output(self, capsys):
        path = str(self.FIXTURES / "defect_nan_rate.tra")
        assert main(["lint", path, "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        found = {
            d["code"]
            for report in document["reports"]
            for d in report["diagnostics"]
        }
        assert "N002" in found
        assert document["errors"] >= 1

    def test_zeno_json_fixture(self, capsys):
        path = str(self.FIXTURES / "defect_zeno.json")
        assert main(["lint", path]) == 1
        assert "A001" in capsys.readouterr().out

    def test_strict_promotes_warnings(self, capsys):
        # The unreachable-goal fixture carries an unreachable-states
        # warning (S001) but no errors: strict flips 0 to 1.
        argv = ["lint", str(self.FIXTURES / "defect_unreachable_goal.tra")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--strict"]) == 1

    def test_compositional_pipeline_is_strictly_clean(self, capsys):
        # The build prunes the states maximal progress makes unreachable,
        # so not even the S001 warning remains.
        argv = ["lint", "--model", "ftwc-compositional", "-n", "1", "--strict"]
        assert main(argv) == 0
        assert "clean" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name, content",
        [("missing.tra", None), ("missing.py", None), ("broken.py", "def f(:\n")],
        ids=["missing.tra", "missing.py", "broken.py"],
    )
    def test_unreadable_file_is_usage_error(self, tmp_path, capsys, name, content):
        path = tmp_path / name
        if content is not None:
            path.write_text(content)
        assert main(["lint", str(path)]) == 2
        captured = capsys.readouterr()
        assert "cannot lint" in captured.err
        assert "T003" not in captured.out

    def test_unknown_suffix_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "model.bin"
        path.write_text("junk")
        assert main(["lint", str(path)]) == 2

    def test_multiple_targets_aggregate(self, capsys):
        clean = ["--model", "ftwc", "-n", "1"]
        bad = str(self.FIXTURES / "defect_nonuniform.tra")
        assert main(["lint", bad] + clean) == 1
        out = capsys.readouterr().out
        assert "U001" in out
        assert "clean" in out

    def test_graph_flag_reports_q_codes(self, capsys):
        targets = [
            str(self.FIXTURES / "defect_unreachable_goal.tra"),
            str(self.FIXTURES / "defect_trap_mec.tra"),
            str(self.FIXTURES / "defect_deadlock.tra"),
            str(self.FIXTURES / "defect_zeno.json"),
        ]
        assert main(["lint", "--graph", "--format", "json"] + targets) == 1
        document = json.loads(capsys.readouterr().out)
        found = {
            d["code"]
            for report in document["reports"]
            for d in report["diagnostics"]
        }
        assert {"Q001", "Q002", "Q003", "Q004"} <= found

    def test_graph_flag_off_by_default(self, capsys):
        path = str(self.FIXTURES / "defect_trap_mec.tra")
        assert main(["lint", path]) == 0
        assert "Q002" not in capsys.readouterr().out

    def test_builtin_ftwc_is_graph_clean(self, capsys):
        assert main(["lint", "--graph", "--model", "ftwc", "-n", "1"]) == 0
        assert "clean" in capsys.readouterr().out


class TestAnalyzeCommand:
    FIXTURES = Path(__file__).parent / "fixtures"

    def test_builtin_family_text(self, capsys):
        assert main(["analyze", "ftwc", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "states           275 (275 reachable" in out
        assert "Prob1E=275" in out

    def test_file_json(self, capsys):
        path = str(self.FIXTURES / "defect_trap_mec.tra")
        assert main(["analyze", path, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["target"] == path
        assert document["scc"]["count"] == 3
        assert document["trap_mecs"] == [[2, 3]]

    def test_goal_label_override(self, capsys):
        path = str(self.FIXTURES / "defect_trap_mec.tra")
        assert main(["analyze", path, "--goal", "goal", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["goal_states"] == 1

    def test_unknown_family_is_usage_error(self, capsys):
        assert main(["analyze", "frobnicate"]) == 2

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "missing.tra")]) == 2


class TestCheckUnbounded:
    def test_unbounded_reachability_is_exact(self, capsys):
        """Every FTWC state reaches ``no_premium`` almost surely, so the
        answer is exactly 1 and the threshold holds."""
        assert main(["check", 'Pmax>=0.999 [ F "no_premium" ]', "--n", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith("= 1  [True]")

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", 'Pmax=? [ F<=1 "no_premium" ]', "--n", "1"],
            ["batch", str(SMOKE_FILE), "--no-disk-cache"],
        ],
    )
    def test_precompute_flag_is_a_usage_error(self, argv, capsys):
        assert main([*argv, "--precompute"]) == 2


class TestBatchCommand:
    def test_batch_smoke_file(self, tmp_path, capsys):
        code = main(
            ["batch", str(SMOKE_FILE), "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document["results"]) == 3
        for record in document["results"]:
            assert record["error"] is None
            assert 0.0 <= record["value"] <= 1.0
        assert document["metrics"]["counters"]["queries_total"] == 3

    def test_warm_cache_skips_construction(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["batch", str(SMOKE_FILE), "--cache-dir", cache]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["metrics"]["counters"]["models_built"] == 2

        assert main(["batch", str(SMOKE_FILE), "--cache-dir", cache]) == 0
        warm = json.loads(capsys.readouterr().out)
        counters = warm["metrics"]["counters"]
        assert counters["cache_hits_disk"] > 0
        assert "models_built" not in counters

    def test_out_file(self, tmp_path):
        out = tmp_path / "results.json"
        code = main(
            ["batch", str(SMOKE_FILE), "--no-disk-cache", "--out", str(out)]
        )
        assert code == 0
        assert len(json.loads(out.read_text())["results"]) == 3

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken", encoding="utf-8")
        assert main(["batch", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_wrong_shape_exits_2(self, tmp_path, capsys):
        path = tmp_path / "shape.json"
        path.write_text('{"not_queries": []}', encoding="utf-8")
        assert main(["batch", str(path)]) == 2

    def test_failed_query_exits_1(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(
            json.dumps(
                [
                    {"model": {"family": "ftwc", "n": 1}, "t": 10.0},
                    {"model": {"family": "ftwc", "n": 1}, "t": -1.0},
                ]
            ),
            encoding="utf-8",
        )
        assert main(["batch", str(path), "--no-disk-cache"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["results"][0]["error"] is None
        assert document["results"][1]["error"] is not None

    def test_unresolvable_time_bound_is_an_error_record(self, tmp_path, capsys):
        """At t = 1e300 float64 cannot hold the Poisson window: the query
        fails at once instead of sweeping for about 1e300 steps.  The
        ``--timeout`` ends such a sweep as a "timed out" record, so a
        regression fails this test instead of hanging it."""
        path = tmp_path / "huge.json"
        path.write_text(
            json.dumps([{"model": {"family": "ftwc", "n": 1}, "t": 1e300}]),
            encoding="utf-8",
        )
        started = time.perf_counter()
        assert main(["batch", str(path), "--no-disk-cache", "--timeout", "5"]) == 1
        assert time.perf_counter() - started < 1.0
        (record,) = json.loads(capsys.readouterr().out)["results"]
        assert "too large" in record["error"]


class TestBenchTrendCommand:
    def _write_ledger(self, path, values):
        runs = [
            {
                "commit": f"c{i}",
                "recorded_at": f"2026-01-0{i + 1}T00:00:00+00:00",
                "solve_seconds": value,
            }
            for i, value in enumerate(values)
        ]
        path.write_text(
            json.dumps({"benchmark": "synthetic", "runs": runs}), encoding="utf-8"
        )

    def test_clean_ledger_exits_0(self, tmp_path, capsys):
        ledger = tmp_path / "BENCH_ok.json"
        self._write_ledger(ledger, [1.0, 1.1, 0.95])
        assert main(["bench", "trend", "--ledger", str(ledger)]) == 0
        assert "status: ok" in capsys.readouterr().out

    def test_synthetic_regression_exits_1(self, tmp_path, capsys):
        ledger = tmp_path / "BENCH_bad.json"
        self._write_ledger(ledger, [1.0, 1.1, 0.95, 50.0])
        assert main(["bench", "trend", "--ledger", str(ledger)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        ledger = tmp_path / "BENCH_bad.json"
        self._write_ledger(ledger, [1.0, 1.1, 0.95, 50.0])
        assert main(["bench", "trend", "--ledger", str(ledger), "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["status"] == "regressed"
        assert document["regressions"][0]["metric"] == "solve_seconds"

    def test_threshold_flag(self, tmp_path):
        ledger = tmp_path / "BENCH_t.json"
        self._write_ledger(ledger, [1.0, 1.0, 1.4])
        assert main(["bench", "trend", "--ledger", str(ledger)]) == 0
        assert (
            main(["bench", "trend", "--ledger", str(ledger), "--threshold", "0.2"])
            == 1
        )

    def test_repository_ledgers_are_clean(self, monkeypatch, capsys):
        repo = Path(__file__).parent.parent
        assert sorted(repo.glob("BENCH_*.json")), "repo should have ledgers"
        monkeypatch.chdir(repo)
        assert main(["bench", "trend"]) == 0

    def test_no_ledgers_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "trend"]) == 2
        assert "no ledgers" in capsys.readouterr().err

    def test_unreadable_ledger_is_usage_error(self, tmp_path, capsys):
        ledger = tmp_path / "BENCH_junk.json"
        ledger.write_text("not json")
        assert main(["bench", "trend", "--ledger", str(ledger)]) == 2


class TestServeCommand:
    def test_serve_round_trip(self, monkeypatch, capsys):
        requests = [
            json.dumps({"op": "ping"}),
            json.dumps({"model": {"family": "ftwc", "n": 1}, "t": 10.0}),
            json.dumps({"op": "shutdown"}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(requests) + "\n"))
        assert main(["serve", "--no-disk-cache"]) == 0
        responses = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert responses[0] == {"ok": True}
        assert responses[1]["error"] is None
        assert responses[2]["shutdown"] is True
