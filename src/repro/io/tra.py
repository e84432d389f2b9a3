"""ETMCC/MRMC-style ``.tra`` / ``.lab`` interchange files.

The paper's implementation lives inside the ETMCC model checker, whose
on-disk format stores transitions as whitespace-separated triples under
a ``STATES``/``TRANSITIONS`` header.  We support that format for CTMCs
and a natural extension for CTMDPs (one line per rate entry, carrying
the transition index and action label), plus the companion ``.lab``
format mapping states to atomic propositions.  Round-tripping through
these files is covered by the test suite.

The body of a ``.tra`` file is parsed by one ``numpy.loadtxt`` call into
a structured array, one record per line, and the readers validate those
columns and build the model's CSR arrays directly.  Fields are separated
by whitespace; blank lines are skipped and nothing is a comment (an
action may contain ``#``).  State and row indices are decimal integers
with an optional sign, above ``-2**63`` and below ``2**63``; rates are
anything ``float()`` reads (``1.5``, ``2e-3``, ``inf``, ``nan``, ...),
except that neither accepts ``_`` digit separators.

The writers format each row's prefix, each state index and each
distinct rate (``repr``, the shortest string that reads back to the same
float) once, and write the body with one ``join``.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

import numpy as np
import scipy.sparse as sp

from repro.core.ctmdp import CTMDP
from repro.ctmc.model import CTMC
from repro.errors import ModelError

__all__ = [
    "TraScan",
    "scan_tra",
    "model_from_scan",
    "write_ctmc_tra",
    "read_ctmc_tra",
    "write_ctmdp_tra",
    "read_ctmdp_tra",
    "write_labels",
    "read_labels",
]

#: One CTMC body line ``src dst rate``, indices 0-based.
_CTMC_ENTRY = np.dtype([("source", np.int64), ("target", np.int64), ("rate", np.float64)])

#: One CTMDP body line ``row action src dst rate``, indices 0-based.
_CTMDP_ENTRY = np.dtype(
    [
        ("row", np.int64),
        ("action", object),
        ("source", np.int64),
        ("target", np.int64),
        ("rate", np.float64),
    ]
)

_LINE_SHAPE = {_CTMC_ENTRY: "src dst rate", _CTMDP_ENTRY: "row action src dst rate"}

#: The one int64 that made 0-based would wrap around; indices lie above it.
_LOWEST_INDEX = int(np.iinfo(np.int64).min)

#: Serialises the warning filter :func:`_scan_body` installs: two readers
#: overlapping in ``catch_warnings`` could otherwise restore each other's
#: filters and leave the guard off, or on for good.
_LOADTXT_GUARD = threading.Lock()


@dataclass(frozen=True, eq=False)
class TraScan:
    """The raw content of a ``.tra`` file, before any validation.

    The scanner is deliberately lenient about *values* (NaN, infinite or
    negative rates and out-of-range indices are recorded, not rejected)
    while strict about *shape* (headers and per-line field counts must
    parse).  The strict readers and the linter both build on this: the
    readers validate and refuse, the linter diagnoses.

    Attributes
    ----------
    kind:
        ``"ctmc"`` (``TRANSITIONS`` header) or ``"ctmdp"`` (``CHOICES``).
    num_states:
        Declared state count.
    declared:
        Declared transition (CTMC) or choice (CTMDP) count.
    initial:
        Declared initial state (CTMDPs; ``0`` for CTMCs), 0-based.
    ctmc_entries:
        CTMC lines in file order, a structured array with the int64
        columns ``source``, ``target`` (0-based) and the float64 column
        ``rate``.
    ctmdp_entries:
        CTMDP lines in file order, a structured array with the int64
        column ``row`` (0-based), the object column ``action`` (Python
        strings), the int64 columns ``source``, ``target`` (0-based) and
        the float64 column ``rate``.
    """

    kind: str
    num_states: int
    declared: int
    initial: int = 0
    ctmc_entries: np.ndarray = field(default_factory=lambda: np.empty(0, _CTMC_ENTRY))
    ctmdp_entries: np.ndarray = field(default_factory=lambda: np.empty(0, _CTMDP_ENTRY))

    def row_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(first, inverse, inconsistent)`` over the CTMDP lines.

        ``first`` holds the first line of every distinct row id, in
        ascending id order; ``inverse`` maps each line to its row's
        position there; ``inconsistent`` flags the lines whose source or
        action differs from their row's first line.
        """
        entries = self.ctmdp_entries
        _ids, first, inverse = np.unique(
            entries["row"], return_index=True, return_inverse=True
        )
        inconsistent = entries["source"] != entries["source"][first][inverse]
        inconsistent |= entries["action"] != entries["action"][first][inverse]
        return first, inverse, inconsistent

    def bad_rates(self) -> np.ndarray:
        """Flags the lines whose rate is not a positive finite number
        (NaN, infinite, negative or zero): the readers refuse them and
        the linter reports them as ``N002``."""
        entries = self.ctmc_entries if self.kind == "ctmc" else self.ctmdp_entries
        rate = entries["rate"]
        return ~(np.isfinite(rate) & (rate > 0.0))


def scan_tra(path: str | Path) -> TraScan:
    """Read a ``.tra`` file into raw records, sniffing CTMC vs CTMDP.

    Raises
    ------
    ModelError
        On malformed headers or lines (wrong field counts, unparseable
        numbers).  Bad *values* are preserved for the caller to judge.
    """
    with open(path, "r", encoding="ascii") as handle:
        num_states = _expect_header(handle, "STATES")[1]
        keyword, declared = _expect_header(handle, "TRANSITIONS", "CHOICES")
        if keyword == "TRANSITIONS":
            return TraScan(
                kind="ctmc",
                num_states=num_states,
                declared=declared,
                ctmc_entries=_scan_body(handle, _CTMC_ENTRY),
            )
        initial = _expect_header(handle, "INITIAL")[1] - 1
        return TraScan(
            kind="ctmdp",
            num_states=num_states,
            declared=declared,
            initial=initial,
            ctmdp_entries=_scan_body(handle, _CTMDP_ENTRY),
        )


def _scan_body(handle: TextIO, dtype: np.dtype) -> np.ndarray:
    """The remaining lines of ``handle`` as ``dtype`` records, 0-based."""
    body = handle.tell()
    for line in iter(handle.readline, ""):
        if line.strip():
            break
    else:  # only blank lines: loadtxt would warn about the missing data
        return np.empty(0, dtype)
    handle.seek(body)
    indices = [name for name in dtype.names if dtype[name] == np.int64]
    try:
        # From 1.23 until a later release refused it, numpy parses an
        # integer field it cannot read as an integer through float
        # (``2.9`` becomes 2) and only warns; as an error, that warning
        # makes loadtxt refuse the line on every supported numpy.
        with _LOADTXT_GUARD, warnings.catch_warnings():
            warnings.filterwarnings(
                "error", message=".*integer via a float", category=DeprecationWarning
            )
            # Reading the open handle, not the path, keeps loadtxt away
            # from numpy's compressed-file layer (and its gzip import).
            entries = np.loadtxt(handle, dtype=dtype, comments=None, ndmin=1)
        if any((entries[name] == _LOWEST_INDEX).any() for name in indices):
            raise ValueError("an index would wrap around when made 0-based")
    except (ValueError, DeprecationWarning) as exc:
        # Re-read to name the line as the per-line reader did.
        handle.seek(body)
        raise _malformed(handle, dtype) or ModelError(f"malformed line: {exc}") from None
    for name in indices:
        entries[name] -= 1
    return entries


def _malformed(lines: TextIO, dtype: np.dtype) -> ModelError | None:
    """The error naming the first line ``loadtxt`` refused, as the
    per-line reader words it: a wrong field count, else the first
    unparseable index or rate."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != len(dtype.names):
            return ModelError(f"expected '{_LINE_SHAPE[dtype]}', got {line!r}")
        for name, token in zip(dtype.names, fields):
            if dtype[name] == np.int64 and not _is_index(token):
                return ModelError(f"unparseable state index {token!r} in line {line!r}")
            if dtype[name] == np.float64 and not _is_float(token):
                return ModelError(f"unparseable rate {token!r} in line {line!r}")
    return None


def _is_index(token: str) -> bool:
    try:
        value = int(token)
    except ValueError:
        return False
    return "_" not in token and _LOWEST_INDEX < value <= np.iinfo(np.int64).max


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return "_" not in token


def model_from_scan(scan: TraScan) -> CTMC | CTMDP:
    """Validate a scan and build its model (a CTMC starts in state 0).

    This is the step behind :func:`read_ctmc_tra` and
    :func:`read_ctmdp_tra`, for callers that already hold the scan.
    """
    if scan.kind == "ctmc":
        return _ctmc_from_scan(scan, scan.initial)
    return _ctmdp_from_scan(scan)


def write_ctmc_tra(ctmc: CTMC, path: str | Path) -> None:
    """Write a CTMC in ETMCC ``.tra`` format (1-based state indices)."""
    matrix = ctmc.rates.tocoo()
    index = _index_tokens(ctmc.num_states)
    body = index[matrix.row] + index[matrix.col] + _rate_tokens(matrix.data)
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"STATES {ctmc.num_states}\n")
        handle.write(f"TRANSITIONS {ctmc.num_transitions}\n")
        handle.write("".join(body.tolist()))


def _index_tokens(num_states: int) -> np.ndarray:
    """``"i "`` for every 1-based state index ``i``, by 0-based index."""
    return np.array([f"{i} " for i in range(1, num_states + 1)], dtype=object)


def _rate_tokens(rates: np.ndarray) -> np.ndarray:
    """``repr(rate) + "\\n"`` per entry, each distinct rate formatted once
    (distinct by bit pattern, so ``-0.0`` keeps its sign)."""
    bits, inverse = np.unique(
        np.ascontiguousarray(rates, dtype=np.float64).view(np.uint64), return_inverse=True
    )
    tokens = np.array([f"{rate!r}\n" for rate in bits.view(np.float64).tolist()], dtype=object)
    return tokens[inverse]


def read_ctmc_tra(path: str | Path, initial: int = 0) -> CTMC:
    """Read a CTMC from ETMCC ``.tra`` format.

    The loader refuses exactly what the linter would flag as an error:
    NaN, infinite, negative or zero rates and state indices outside the
    declared range.  Repeated ``src dst`` pairs add up.
    """
    scan = scan_tra(path)
    if scan.kind != "ctmc":
        raise ModelError(f"{path} is a {scan.kind} file, expected a CTMC")
    return _ctmc_from_scan(scan, initial)


def _ctmc_from_scan(scan: TraScan, initial: int) -> CTMC:
    entries = scan.ctmc_entries
    if len(entries) != scan.declared:
        raise ModelError(
            f"header announced {scan.declared} transitions, found {len(entries)}"
        )
    src, dst, rate = entries["source"], entries["target"], entries["rate"]
    bad = scan.bad_rates()
    if bad.any():
        i = int(np.argmax(bad))
        raise ModelError(
            f"rate {float(rate[i])!r} on transition {src[i] + 1} -> {dst[i] + 1} is not "
            "a positive finite number"
        )
    n = scan.num_states
    outside = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
    if outside.any():
        i = int(np.argmax(outside))
        raise ModelError(f"transition {src[i]} -> {dst[i]} out of range")
    # The call CTMC.from_transitions makes, so repeated pairs are summed
    # in the same order.
    matrix = sp.csr_matrix((rate, (src, dst)), shape=(n, n), dtype=np.float64)
    matrix.sum_duplicates()
    return CTMC(rates=matrix, initial=initial)


def write_ctmdp_tra(ctmdp: CTMDP, path: str | Path) -> None:
    """Write a CTMDP: ``transition-index action source target rate`` lines."""
    matrix = ctmdp.rate_matrix
    index = _index_tokens(ctmdp.num_states)
    rows = np.array(
        [f"{row} {action} " for row, action in enumerate(ctmdp.labels, start=1)],
        dtype=object,
    )
    prefix = np.repeat(rows + index[ctmdp.sources], np.diff(matrix.indptr))
    body = prefix + index[matrix.indices] + _rate_tokens(matrix.data)
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"STATES {ctmdp.num_states}\n")
        handle.write(f"CHOICES {ctmdp.num_transitions}\n")
        handle.write(f"INITIAL {ctmdp.initial + 1}\n")
        handle.write("".join(body.tolist()))


def read_ctmdp_tra(path: str | Path) -> CTMDP:
    """Read a CTMDP written by :func:`write_ctmdp_tra`.

    Like :func:`read_ctmc_tra`, the loader refuses non-finite and
    non-positive rates, inconsistent row metadata and out-of-range
    indices.  A target repeated within a row keeps its last rate.
    """
    scan = scan_tra(path)
    if scan.kind != "ctmdp":
        raise ModelError(f"{path} is a {scan.kind} file, expected a CTMDP")
    return _ctmdp_from_scan(scan)


def _ctmdp_from_scan(scan: TraScan) -> CTMDP:
    """The checks of a reader that walks the lines in file order and
    then builds ``CTMDP.from_transitions`` from the rows by id: each
    raises at the first offending line, in that order."""
    entries = scan.ctmdp_entries
    row, src, dst, rate = (entries[name] for name in ("row", "source", "target", "rate"))
    first, inverse, inconsistent = scan.row_groups()
    bad = scan.bad_rates()
    if (bad | inconsistent).any():
        i = int(np.argmax(bad | inconsistent))
        if bad[i]:
            raise ModelError(
                f"rate {float(rate[i])!r} in row {row[i] + 1} is not a positive finite number"
            )
        raise ModelError(f"inconsistent transition metadata in row {row[i] + 1}")
    num_rows = len(first)
    if num_rows != scan.declared:
        raise ModelError(f"header announced {scan.declared} choices, found {num_rows}")

    # Rows by source, ties by row id (a stable sort over the id order).
    sources = src[first]
    order = np.argsort(sources, kind="stable")
    n = scan.num_states
    bad_source = (sources < 0) | (sources >= n)
    bad_target = (dst < 0) | (dst >= n)
    if bad_source.any() or bad_target.any():
        bad_row = bad_source | (np.bincount(inverse[bad_target], minlength=num_rows) > 0)
        r = order[int(np.argmax(bad_row[order]))]
        if bad_source[r]:
            raise ModelError(f"transition source {sources[r]} out of range")
        i = int(np.argmax(bad_target & (inverse == r)))
        raise ModelError(f"transition target {dst[i]} out of range")

    position = np.empty(num_rows, dtype=np.int64)
    position[order] = np.arange(num_rows)
    line_row = position[inverse]
    # lexsort is stable: each (row, target) group keeps file order, and
    # its last line carries the rate that wins.
    by_entry = np.lexsort((dst, line_row))
    line_row, targets = line_row[by_entry], dst[by_entry]
    last = np.ones(len(by_entry), dtype=bool)
    last[:-1] = (line_row[1:] != line_row[:-1]) | (targets[1:] != targets[:-1])
    kept = by_entry[last]
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(line_row[last], minlength=num_rows), out=indptr[1:])
    matrix = sp.csr_matrix((rate[kept], dst[kept], indptr), shape=(num_rows, n))
    return CTMDP(
        num_states=n,
        sources=sources[order],
        labels=entries["action"][first][order].tolist(),
        rate_matrix=matrix,
        initial=scan.initial,
    )


def write_labels(mask: np.ndarray, proposition: str, path: str | Path) -> None:
    """Write a boolean state mask as a ``.lab`` file."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write("#DECLARATION\n")
        handle.write(f"{proposition}\n")
        handle.write("#END\n")
        for state, flag in enumerate(mask):
            if flag:
                handle.write(f"{state + 1} {proposition}\n")


def read_labels(path: str | Path, num_states: int) -> dict[str, np.ndarray]:
    """Read a ``.lab`` file into per-proposition boolean masks."""
    masks: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="ascii") as handle:
        line = handle.readline().strip()
        if line != "#DECLARATION":
            raise ModelError("missing #DECLARATION header")
        for line in handle:
            line = line.strip()
            if line == "#END":
                break
            masks[line] = np.zeros(num_states, dtype=bool)
        else:
            raise ModelError("missing #END marker")
        for line in handle:
            line = line.strip()
            if not line:
                continue
            state_str, *props = line.split()
            state = int(state_str) - 1
            if not 0 <= state < num_states:
                raise ModelError(f"labelled state {state + 1} out of range")
            for prop in props:
                if prop not in masks:
                    raise ModelError(f"undeclared proposition {prop!r}")
                masks[prop][state] = True
    return masks


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
