"""The strict ``.tra`` readers refuse pathological input.

Companion to the lenient :func:`repro.io.tra.scan_tra` scanner: the
scanner records bad values for the linter to diagnose, the readers
reject exactly those values so no NaN, infinite, non-positive rate or
dangling state index ever enters a constructed model.
"""

import math
import re

import pytest

from repro.cli import main
from repro.errors import ModelError
from repro.io.tra import read_ctmc_tra, read_ctmdp_tra, scan_tra


def ctmc_file(tmp_path, body, declared=None, states=2):
    lines = body.strip().splitlines()
    count = declared if declared is not None else len(lines)
    path = tmp_path / "chain.tra"
    path.write_text(
        f"STATES {states}\nTRANSITIONS {count}\n" + "\n".join(lines) + "\n"
    )
    return path


def ctmdp_file(tmp_path, body, declared=None, states=2, initial=1):
    lines = body.strip().splitlines()
    count = declared if declared is not None else len({l.split()[0] for l in lines})
    path = tmp_path / "mdp.tra"
    path.write_text(
        f"STATES {states}\nCHOICES {count}\nINITIAL {initial}\n"
        + "\n".join(lines)
        + "\n"
    )
    return path


class TestCtmcRejection:
    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf", "-1.0", "0.0"])
    def test_pathological_rates_refused(self, tmp_path, rate):
        path = ctmc_file(tmp_path, f"1 2 {rate}\n2 1 1.0")
        with pytest.raises(ModelError, match="positive finite"):
            read_ctmc_tra(path)

    def test_dangling_target_refused(self, tmp_path):
        path = ctmc_file(tmp_path, "1 3 1.0\n2 1 1.0")
        with pytest.raises(ModelError, match="out of range"):
            read_ctmc_tra(path)

    def test_dangling_source_refused(self, tmp_path):
        path = ctmc_file(tmp_path, "9 1 1.0\n2 1 1.0")
        with pytest.raises(ModelError, match="out of range"):
            read_ctmc_tra(path)

    def test_count_mismatch_refused(self, tmp_path):
        path = ctmc_file(tmp_path, "1 2 1.0", declared=5)
        with pytest.raises(ModelError, match="announced 5"):
            read_ctmc_tra(path)

    def test_unparseable_rate_refused(self, tmp_path):
        path = ctmc_file(tmp_path, "1 2 fast")
        with pytest.raises(ModelError, match="unparseable rate"):
            read_ctmc_tra(path)

    def test_unparseable_index_refused(self, tmp_path):
        path = ctmc_file(tmp_path, "one 2 1.0")
        with pytest.raises(ModelError, match="unparseable state index"):
            read_ctmc_tra(path)

    def test_kind_mismatch_refused(self, tmp_path):
        path = ctmdp_file(tmp_path, "1 a 1 2 1.0")
        with pytest.raises(ModelError, match="expected a CTMC"):
            read_ctmc_tra(path)


class TestCtmdpRejection:
    @pytest.mark.parametrize("rate", ["nan", "inf", "-2.5", "0.0"])
    def test_pathological_rates_refused(self, tmp_path, rate):
        path = ctmdp_file(tmp_path, f"1 a 1 2 {rate}")
        with pytest.raises(ModelError, match="positive finite"):
            read_ctmdp_tra(path)

    def test_dangling_target_refused(self, tmp_path):
        path = ctmdp_file(tmp_path, "1 a 1 7 1.0\n2 a 2 1 1.0")
        with pytest.raises(ModelError):
            read_ctmdp_tra(path)

    def test_inconsistent_row_metadata_refused(self, tmp_path):
        path = ctmdp_file(tmp_path, "1 a 1 2 1.0\n1 b 1 1 1.0")
        with pytest.raises(ModelError, match="inconsistent"):
            read_ctmdp_tra(path)

    def test_count_mismatch_refused(self, tmp_path):
        path = ctmdp_file(tmp_path, "1 a 1 2 1.0", declared=3)
        with pytest.raises(ModelError, match="announced 3"):
            read_ctmdp_tra(path)

    def test_kind_mismatch_refused(self, tmp_path):
        path = ctmc_file(tmp_path, "1 2 1.0")
        with pytest.raises(ModelError, match="expected a CTMDP"):
            read_ctmdp_tra(path)


class TestScannerLeniency:
    """scan_tra preserves bad values instead of rejecting them."""

    def test_nan_rate_preserved(self, tmp_path):
        path = ctmc_file(tmp_path, "1 2 nan")
        scan = scan_tra(path)
        assert scan.kind == "ctmc"
        assert math.isnan(scan.ctmc_entries[0][2])

    def test_dangling_index_preserved(self, tmp_path):
        path = ctmc_file(tmp_path, "1 9 1.0")
        scan = scan_tra(path)
        assert scan.ctmc_entries[0][1] == 8  # 0-based, out of range

    def test_shape_errors_still_raise(self, tmp_path):
        path = tmp_path / "bad.tra"
        path.write_text("STATES 2\nTRANSITIONS 1\n1 2\n")
        with pytest.raises(ModelError, match="expected 'src dst rate'"):
            scan_tra(path)


#: Headers whose count is not an integer, and the offending line.
NON_INTEGER_HEADERS = {
    "STATES two": "STATES two\nCHOICES 1\nINITIAL 1\n1 a 1 1 1.0\n",
    "CHOICES x": "STATES 2\nCHOICES x\nINITIAL 1\n1 a 1 1 1.0\n",
    "INITIAL 1.5": "STATES 2\nCHOICES 1\nINITIAL 1.5\n1 a 1 1 1.0\n",
    "TRANSITIONS 3.0": "STATES 2\nTRANSITIONS 3.0\n1 2 1.0\n",
}


class TestHeaderCounts:
    """A header count that is not an integer is a ``ModelError`` naming
    the header line, not a bare ``ValueError`` from ``int()``."""

    @pytest.mark.parametrize("line", NON_INTEGER_HEADERS)
    def test_readers_name_the_line(self, tmp_path, line):
        path = tmp_path / "bad.tra"
        path.write_text(NON_INTEGER_HEADERS[line])
        for reader in (scan_tra, read_ctmc_tra, read_ctmdp_tra):
            with pytest.raises(ModelError, match=f"header, got {re.escape(repr(line))}$"):
                reader(path)

    def test_lint_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.tra"
        path.write_text(NON_INTEGER_HEADERS["STATES two"])
        assert main(["lint", str(path)]) == 2
        err = capsys.readouterr().err
        assert "expected 'STATES <n>' header, got 'STATES two'" in err
        assert "invalid literal" not in err

    def test_replay_against_it_is_a_usage_error(self, tmp_path, capsys):
        policy = tmp_path / "max.rpol"
        query = 'Pmax=? [ F<=20 "no_premium" ]'
        assert main(["check", query, "--n", "1", "--save-policy", str(policy)]) == 3
        prefix = tmp_path / "ftwc1"
        assert main(["export", "--n", "1", "--out-prefix", str(prefix)]) == 0
        model = prefix.with_suffix(".tra")
        _states, rest = model.read_text().split("\n", 1)
        model.write_text("STATES two\n" + rest)
        capsys.readouterr()
        code = main(["policy", "replay", str(policy), "--against", str(model)])
        assert code == 2  # a usage error; 1 would mean an unhealthy replay
        assert "'STATES two'" in capsys.readouterr().err
