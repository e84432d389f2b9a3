"""Oracle for :mod:`repro.io.tra`'s ``.tra`` writers, scanner and strict readers.

Production code parses the body of a ``.tra`` file with one
``numpy.loadtxt`` call into structured columns and builds the model's
CSR arrays directly.  This oracle is the per-line reader it replaced:
Python's ``str.split``, ``int`` and ``float`` on every line, and the
models built through ``CTMDP.from_transitions`` /
``CTMC.from_transitions`` from ``(row, action, source, target, rate)``
tuples.  The production readers must return its models bitwise
(:func:`assert_same_model`) and raise its ``ModelError`` messages.
Where they differ on purpose, numpy's number grammar is narrower:
Python's ``int`` and ``float`` accept ``_`` digit separators
(``1_000``) and integers of any size.

Production code writes a body with one ``join`` over per-entry strings
assembled from tokens formatted once per row, state and distinct rate.
:func:`write_ctmc_tra` and :func:`write_ctmdp_tra` here are the
per-entry writers they replaced, one f-string and one ``float.__repr__``
per entry; the production writers must write their bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

import numpy as np

from repro.core.ctmdp import CTMDP
from repro.ctmc.model import CTMC
from repro.errors import ModelError


@dataclass(frozen=True)
class OracleScan:
    """:class:`repro.io.tra.TraScan` with Python lists of tuples."""

    kind: str
    num_states: int
    declared: int
    initial: int = 0
    ctmc_entries: list[tuple[int, int, float]] = field(default_factory=list)
    ctmdp_entries: list[tuple[int, str, int, int, float]] = field(default_factory=list)


def _parse_rate(token: str, line: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ModelError(f"unparseable rate {token!r} in line {line!r}") from None


def _parse_index(token: str, line: str) -> int:
    try:
        return int(token) - 1
    except ValueError:
        raise ModelError(f"unparseable state index {token!r} in line {line!r}") from None


def _expect_header(handle: TextIO, *keywords: str) -> tuple[str, int]:
    """The keyword and count of the next line, which must be one of
    ``keywords`` followed by an integer."""
    line = handle.readline().strip()
    parts = line.split()
    if len(parts) == 2 and parts[0] in keywords:
        try:
            return parts[0], int(parts[1])
        except ValueError:
            pass
    expected = " or ".join(f"'{keyword} <n>'" for keyword in keywords)
    raise ModelError(f"expected {expected} header, got {line!r}")


def write_ctmc_tra(ctmc: CTMC, path: str | Path) -> None:
    """Write a CTMC in ETMCC ``.tra`` format, one f-string per entry."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"STATES {ctmc.num_states}\n")
        handle.write(f"TRANSITIONS {ctmc.num_transitions}\n")
        matrix = ctmc.rates.tocoo()
        for src, dst, rate in zip(matrix.row, matrix.col, matrix.data):
            handle.write(f"{src + 1} {dst + 1} {float(rate)!r}\n")


def write_ctmdp_tra(ctmdp: CTMDP, path: str | Path) -> None:
    """Write a CTMDP, one f-string per rate entry."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"STATES {ctmdp.num_states}\n")
        handle.write(f"CHOICES {ctmdp.num_transitions}\n")
        handle.write(f"INITIAL {ctmdp.initial + 1}\n")
        matrix = ctmdp.rate_matrix
        for row in range(ctmdp.num_transitions):
            src = int(ctmdp.sources[row])
            action = ctmdp.labels[row]
            lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
            for dst, rate in zip(matrix.indices[lo:hi], matrix.data[lo:hi]):
                handle.write(f"{row + 1} {action} {src + 1} {int(dst) + 1} {float(rate)!r}\n")


def scan_tra(path: str | Path) -> OracleScan:
    """Read a ``.tra`` file into raw records, one line at a time."""
    with open(path, "r", encoding="ascii") as handle:
        num_states = _expect_header(handle, "STATES")[1]
        keyword, declared = _expect_header(handle, "TRANSITIONS", "CHOICES")
        if keyword == "TRANSITIONS":
            ctmc_entries: list[tuple[int, int, float]] = []
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                fields = line.split()
                if len(fields) != 3:
                    raise ModelError(f"expected 'src dst rate', got {line!r}")
                src, dst, rate = fields
                ctmc_entries.append(
                    (
                        _parse_index(src, line),
                        _parse_index(dst, line),
                        _parse_rate(rate, line),
                    )
                )
            return OracleScan(
                kind="ctmc",
                num_states=num_states,
                declared=declared,
                ctmc_entries=ctmc_entries,
            )
        initial = _expect_header(handle, "INITIAL")[1] - 1
        ctmdp_entries: list[tuple[int, str, int, int, float]] = []
        for line in handle:
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 5:
                raise ModelError(f"expected 'row action src dst rate', got {line!r}")
            row, action, src, dst, rate = fields
            ctmdp_entries.append(
                (
                    _parse_index(row, line),
                    action,
                    _parse_index(src, line),
                    _parse_index(dst, line),
                    _parse_rate(rate, line),
                )
            )
        return OracleScan(
            kind="ctmdp",
            num_states=num_states,
            declared=declared,
            initial=initial,
            ctmdp_entries=ctmdp_entries,
        )


def read_ctmc_tra(path: str | Path, initial: int = 0) -> CTMC:
    """Read a CTMC, refusing bad rates and indices."""
    scan = scan_tra(path)
    if scan.kind != "ctmc":
        raise ModelError(f"{path} is a {scan.kind} file, expected a CTMC")
    if len(scan.ctmc_entries) != scan.declared:
        raise ModelError(
            f"header announced {scan.declared} transitions, "
            f"found {len(scan.ctmc_entries)}"
        )
    for src, dst, rate in scan.ctmc_entries:
        if not (math.isfinite(rate) and rate > 0.0):
            raise ModelError(
                f"rate {rate!r} on transition {src + 1} -> {dst + 1} is not "
                "a positive finite number"
            )
    return CTMC.from_transitions(scan.num_states, scan.ctmc_entries, initial=initial)


def read_ctmdp_tra(path: str | Path) -> CTMDP:
    """Read a CTMDP: a repeated target in a row keeps its last rate."""
    scan = scan_tra(path)
    if scan.kind != "ctmdp":
        raise ModelError(f"{path} is a {scan.kind} file, expected a CTMDP")
    rows: dict[int, tuple[int, str, dict[int, float]]] = {}
    for row, action, src, dst, rate in scan.ctmdp_entries:
        if not (math.isfinite(rate) and rate > 0.0):
            raise ModelError(
                f"rate {rate!r} in row {row + 1} is not a positive finite number"
            )
        entry = rows.setdefault(row, (src, action, {}))
        if entry[0] != src or entry[1] != action:
            raise ModelError(f"inconsistent transition metadata in row {row + 1}")
        entry[2][dst] = rate
    if len(rows) != scan.declared:
        raise ModelError(f"header announced {scan.declared} choices, found {len(rows)}")
    transitions = [rows[row] for row in sorted(rows)]
    return CTMDP.from_transitions(scan.num_states, transitions, initial=scan.initial)


def assert_same_model(new, reference):
    """``new`` is ``reference`` bit for bit, array dtypes included."""
    assert type(new) is type(reference)
    assert new.num_states == reference.num_states
    assert new.initial == reference.initial
    if isinstance(reference, CTMDP):
        matrix, expected = new.rate_matrix, reference.rate_matrix
        assert new.sources.dtype == reference.sources.dtype
        np.testing.assert_array_equal(new.sources, reference.sources)
        assert new.labels == reference.labels
        assert all(type(label) is str for label in new.labels)
    else:
        matrix, expected = new.rates, reference.rates
    assert matrix.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(matrix, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
