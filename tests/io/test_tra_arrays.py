"""The array ``.tra`` readers against the per-line reference reader.

:mod:`repro.io.tra` parses a body with one ``numpy.loadtxt`` call and
builds the CSR arrays itself; :mod:`tests.oracles.tra` is the per-line
reader it replaced.  On every file the reference accepts, the new
readers must return its model bit for bit (``data``, ``indices`` and
``indptr`` with their dtypes, ``sources``, ``labels``, ``initial``);
on every file it refuses, they must raise its ``ModelError`` text.
The intended difference is numpy's narrower number grammar
(:class:`TestNumberGrammar`): no ``_`` digit separators, which Python's
``int``/``float`` accept, and no index beyond 64 bits.
"""

import io
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from repro.cli import main
from repro.errors import ModelError
from repro.io import tra
from repro.io.tra import read_ctmc_tra, read_ctmdp_tra, scan_tra, write_ctmc_tra, write_ctmdp_tra
from tests.core.test_cone import ctmcs_with_goals
from tests.core.test_reachability_properties import models_with_goals
from tests.oracles import tra as oracle
from tests.oracles.tra import assert_same_model


def outcome(reader, path):
    """The model ``reader`` returns, or the type and text of its error."""
    try:
        return reader(path)
    except (ModelError, ValueError) as exc:
        return type(exc), str(exc)


def assert_matches_oracle(path):
    """Scan, CTMC reader and CTMDP reader all agree with the reference."""
    for new, reference in (
        (read_ctmc_tra, oracle.read_ctmc_tra),
        (read_ctmdp_tra, oracle.read_ctmdp_tra),
    ):
        got, want = outcome(new, path), outcome(reference, path)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_model(got, want)
    got, want = outcome(scan_tra, path), outcome(oracle.scan_tra, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert (got.kind, got.num_states, got.declared, got.initial) == (
            want.kind,
            want.num_states,
            want.declared,
            want.initial,
        )
        # repr compares NaN rates as equal.
        assert repr(got.ctmc_entries.tolist()) == repr(want.ctmc_entries)
        assert repr(got.ctmdp_entries.tolist()) == repr(want.ctmdp_entries)


def ctmdp_file(directory, body, *, states=3, choices=None, initial=1):
    lines = [line for line in body.split("\n") if line.strip()]
    if choices is None:
        choices = len({line.split()[0] for line in lines})
    path = directory / "model.tra"
    path.write_text(f"STATES {states}\nCHOICES {choices}\nINITIAL {initial}\n{body}")
    return path


def ctmc_file(directory, body, *, states=3, transitions=None):
    if transitions is None:
        transitions = len([line for line in body.split("\n") if line.strip()])
    path = directory / "chain.tra"
    path.write_text(f"STATES {states}\nTRANSITIONS {transitions}\n{body}")
    return path


class TestGeneratedModels:
    @given(data=models_with_goals())
    @settings(max_examples=80, deadline=None)
    def test_ctmdp_round_trip(self, tmp_path_factory, data):
        ctmdp, _goal = data
        path = tmp_path_factory.mktemp("ctmdp") / "model.tra"
        write_ctmdp_tra(ctmdp, path)
        assert_same_model(read_ctmdp_tra(path), oracle.read_ctmdp_tra(path))

    @given(data=ctmcs_with_goals())
    @settings(max_examples=80, deadline=None)
    def test_ctmc_round_trip(self, tmp_path_factory, data):
        ctmc, _goal = data
        path = tmp_path_factory.mktemp("ctmc") / "chain.tra"
        write_ctmc_tra(ctmc, path)
        assert_same_model(read_ctmc_tra(path), oracle.read_ctmc_tra(path))


CTMDP_BODIES = {
    "repeated target, last rate wins": "1 a 1 2 1.0\n1 a 1 3 2.0\n1 a 1 2 3.0\n",
    "row ids out of order with gaps": (
        "7 b 2 1 1.0\n2 a 1 3 0.5\n9 c 1 1 2.0\n2 a 1 2 0.25\n7 b 2 3 4.0\n"
    ),
    "rows of one source keep id order": "4 y 1 2 1.0\n2 x 1 3 1.0\n3 z 2 1 1.0\n",
    "targets unsorted within a row": "1 a 1 3 1.0\n1 a 1 1 2.0\n1 a 1 2 3.0\n",
    "blank, whitespace-only lines and tabs": (
        "\n1\ta\t1\t2\t1.0\n   \n\t\n  2  b 2   3 2.5  \n\n"
    ),
    "no final newline": "1 a 1 2 1.0\n2 b 2 1 1.0",
    "hash inside an action": "1 a#b 1 2 1.0\n2 #c 2 1 1.0\n",
    "non-ASCII action": "1 caf\u00e9 1 2 1.0\n",
    "signs and leading zeros": "+1 a 01 +2 +1.5e0\n2 b 2 1 .5\n",
    "empty body": "",
    "only blank lines": "\n  \n\t\n",
    "inconsistent source": "1 a 1 2 1.0\n1 a 2 1 1.0\n",
    "inconsistent action": "1 a 1 2 1.0\n1 b 1 1 1.0\n",
    "bad rate before inconsistency": "1 a 1 2 nan\n1 b 1 1 1.0\n",
    "inconsistency before bad rate": "1 a 1 2 1.0\n1 b 1 1 1.0\n2 a 2 1 -1.0\n",
    "too few fields": "1 a 1 2 1.0\n2 b 2 1\n",
    "too many fields": "1 a 1 2 1.0 extra\n",
    "trailing comment is fields": "1 a 1 2 1.0 # note\n",
    "unparseable row": "one a 1 2 1.0\n",
    "unparseable target": "1 a 1 2x 1.0\n",
    "float index": "1 a 1.0 2 1.0\n",
    "fractional index": "1 a 2.9 2 1.0\n",
    "unparseable rate": "1 a 1 2 fast\n",
    "hex rate": "1 a 1 2 0x10\n",
    "nan rate": "1 a 1 2 1.0\n2 b 2 1 NaN\n",
    "inf rate": "1 a 1 2 inf\n",
    "negative rate": "1 a 1 2 -2.5\n",
    "zero rate": "1 a 1 2 0.0\n",
    "underflowing rate": "1 a 1 2 1e-400\n",
    "overflowing rate": "1 a 1 2 1e400\n",
    "target out of range": "1 a 1 2 1.0\n2 b 2 4 1.0\n",
    "target zero": "1 a 1 0 1.0\n",
    "source out of range": "1 a 5 2 1.0\n",
    "source zero sorts first": "1 a 2 7 1.0\n2 b 0 1 1.0\n",
    "bad target in an earlier-sorted row": "1 a 3 1 1.0\n2 b 1 9 1.0\n2 b 1 8 1.0\n",
}


class TestHandWrittenBodies:
    @pytest.mark.parametrize("body", CTMDP_BODIES.values(), ids=CTMDP_BODIES.keys())
    def test_ctmdp(self, tmp_path, body):
        assert_matches_oracle(ctmdp_file(tmp_path, body))

    @pytest.mark.parametrize(
        ("body", "header"),
        [
            ("1 a 1 2 1.0\n", {"choices": 2}),
            ("1 a 1 2 1.0\n", {"initial": 4}),
            ("1 a 1 2 1.0\n", {"initial": 0}),
            ("", {"states": 0, "choices": 0}),
            ("1 a 1 1 1.0\n", {"states": 0}),
            ("1 a 1 1 1.0\n", {"states": "two"}),
            ("1 a 1 1 1.0\n", {"choices": "x"}),
            ("1 a 1 1 1.0\n", {"initial": "1.5"}),
        ],
    )
    def test_ctmdp_header(self, tmp_path, body, header):
        assert_matches_oracle(ctmdp_file(tmp_path, body, **header))

    @pytest.mark.parametrize(
        "body",
        [
            "1 2 1.0\n1 2 2.5\n2 1 0.125\n1 2 4.0\n",  # repeated pairs add up
            "3 1 1.0\n1 2 2.0\n2 3 3.0\n1 1 0.5\n",
            "\n1\t2\t1.0\n   \n 2 3  2.0 \n",
            "",
            "1 2 1.0\n2 3\n",
            "one 2 1.0\n",
            "1 2 fast\n",
            "1 2 nan\n",
            "1 2 -inf\n",
            "1 2 0\n",
            "1 4 1.0\n",
            "0 1 1.0\n",
            "1 2 1.0\n1 4 nan\n",  # rates are checked before indices
        ],
    )
    def test_ctmc(self, tmp_path, body):
        assert_matches_oracle(ctmc_file(tmp_path, body))

    def test_ctmc_count_mismatch(self, tmp_path):
        assert_matches_oracle(ctmc_file(tmp_path, "1 2 1.0\n", transitions=3))

    def test_ctmc_non_integer_count(self, tmp_path):
        assert_matches_oracle(ctmc_file(tmp_path, "1 2 1.0\n", transitions="3.0"))

    @pytest.mark.parametrize(
        "path_of",
        [lambda d: ctmdp_file(d, ""), lambda d: ctmc_file(d, "\n \n")],
        ids=["ctmdp", "ctmc"],
    )
    def test_empty_body_warns_nothing(self, tmp_path, path_of):
        path = path_of(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scan = scan_tra(path)
            tra.model_from_scan(scan)
        assert len(scan.ctmc_entries) == len(scan.ctmdp_entries) == 0


class TestNumberGrammar:
    """Where numpy's number grammar is narrower than Python's.

    numpy refuses ``_`` digit separators, and its index columns hold
    64-bit integers.  The reference read ``1_0`` as 10, and a row id
    beyond 64 bits as a label like any other.
    """

    @pytest.mark.parametrize(
        ("body", "message"),
        [
            ("1_0 a 1 2 1.0\n", "unparseable state index '1_0'"),
            ("1 a 1 2 1_000.5\n", "unparseable rate '1_000.5'"),
            (
                "99999999999999999999 a 1 2 1.0\n",
                "unparseable state index '99999999999999999999'",
            ),
            (
                "-9223372036854775808 a 1 2 1.0\n",  # 0-based, it would wrap around
                "unparseable state index '-9223372036854775808'",
            ),
        ],
    )
    def test_refused_where_the_reference_accepted(self, tmp_path, body, message):
        path = ctmdp_file(tmp_path, body, states=12, choices=1)
        oracle.read_ctmdp_tra(path)
        with pytest.raises(ModelError, match=message):
            read_ctmdp_tra(path)
        with pytest.raises(ModelError, match=message):
            scan_tra(path)

    def test_state_index_beyond_int64_is_unparseable(self, tmp_path):
        """The reference refused this file too, as out of range."""
        path = ctmdp_file(tmp_path, "1 a 1 99999999999999999999 1.0\n")
        with pytest.raises(ModelError, match="out of range"):
            oracle.read_ctmdp_tra(path)
        with pytest.raises(ModelError, match="unparseable state index"):
            read_ctmdp_tra(path)


class TestIntegerViaFloat:
    """numpy 1.23 and later releases, up to one that refuses it, parse an
    index such as ``2.9`` through float, truncate it to 2 and only warn.
    The reader must refuse the line on those releases too; the installed
    numpy may already refuse it, so a stand-in plays the warning one."""

    def test_the_warning_refuses_the_line(self, tmp_path, monkeypatch):
        real = np.loadtxt

        def warning_loadtxt(handle, dtype, **options):
            warnings.warn(
                "loadtxt(): Parsing an integer via a float is deprecated.",
                DeprecationWarning,
                stacklevel=2,
            )
            return real(io.StringIO(handle.read().replace("2.9", "2")), dtype, **options)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        path = ctmdp_file(tmp_path, "1 a 2.9 2 1.0\n")
        filters = list(warnings.filters)
        assert outcome(read_ctmdp_tra, path) == outcome(oracle.read_ctmdp_tra, path)
        assert warnings.filters == filters

    def test_threads_leave_the_warning_filters_as_they_were(self, tmp_path):
        """Readers in several threads must not restore each other's
        filters, which would leave the guard on or off for good."""
        path = ctmdp_file(tmp_path, CTMDP_BODIES["row ids out of order with gaps"])
        want = oracle.read_ctmdp_tra(path)
        filters = list(warnings.filters)
        models, errors = [], []

        def reader():
            try:
                for _ in range(50):
                    models.append(read_ctmdp_tra(path))
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(models) == 8 * 50
        for model in models:
            assert_same_model(model, want)
        assert warnings.filters == filters


class TestModelFromScan:
    def test_one_scan_builds_either_kind(self, tmp_path):
        ctmdp = ctmdp_file(tmp_path, CTMDP_BODIES["row ids out of order with gaps"])
        assert_same_model(tra.model_from_scan(scan_tra(ctmdp)), oracle.read_ctmdp_tra(ctmdp))
        ctmc = ctmc_file(tmp_path, "1 2 1.0\n2 3 2.0\n")
        assert_same_model(tra.model_from_scan(scan_tra(ctmc)), oracle.read_ctmc_tra(ctmc))

    def test_entries_are_columns(self, tmp_path):
        scan = scan_tra(ctmdp_file(tmp_path, "2 go 1 3 0.5\n"))
        assert scan.ctmdp_entries.dtype.names == ("row", "action", "source", "target", "rate")
        assert scan.ctmdp_entries.tolist() == [(1, "go", 0, 2, 0.5)]


class TestOneScanPerCommand:
    """Commands that lint or check a ``.tra`` before building its model
    build it from the scan they hold instead of parsing the file again."""

    @pytest.fixture()
    def scans(self, monkeypatch):
        calls = []
        real = tra.scan_tra

        def counting(path):
            calls.append(path)
            return real(path)

        # Every call-time lookup site of the scanner.
        monkeypatch.setattr(tra, "scan_tra", counting)
        monkeypatch.setattr("repro.lint.files.scan_tra", counting)
        return calls

    @pytest.fixture()
    def exported(self, tmp_path):
        prefix = tmp_path / "ftwc1"
        assert main(["export", "--n", "1", "--out-prefix", str(prefix)]) == 0
        return prefix.with_suffix(".tra")

    def test_lint(self, scans, exported, capsys):
        assert main(["lint", str(exported), "--graph"]) == 0
        assert scans == [exported]

    def test_analyze(self, scans, exported, capsys):
        assert main(["analyze", str(exported)]) == 0
        assert len(scans) == 1

    def test_policy_replay_against(self, scans, exported, tmp_path, capsys):
        policy = tmp_path / "max.rpol"
        check = ["check", 'Pmax=? [ F<=20 "no_premium" ]', "--n", "1"]
        assert main([*check, "--save-policy", str(policy)]) == 3
        assert scans == []
        assert main(["policy", "replay", str(policy), "--against", str(exported)]) == 0
        assert len(scans) == 1


@pytest.mark.slow
def test_exported_ftwc_32(tmp_path):
    prefix = tmp_path / "ftwc32"
    assert main(["export", "--n", "32", "--out-prefix", str(prefix)]) == 0
    path = prefix.with_suffix(".tra")
    model = read_ctmdp_tra(path)
    assert model.num_states == 38675
    assert_same_model(model, oracle.read_ctmdp_tra(path))
