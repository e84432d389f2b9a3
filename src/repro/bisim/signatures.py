"""Float-robust cumulative-rate signatures shared by all bisimulations.

Condition 2 of the paper's Definition 6 (and ordinary CTMC lumpability)
compares *cumulative* rates: two states are only equivalent when their
summed rates into every equivalence class agree.  Comparing floats by
exact equality after summation is wrong twice over:

* the sum of several rates depends on the accumulation order, so two
  states with the same multiset of contributions -- the very situation
  the definition says must merge -- can produce different floats
  depending on the adjacency order a builder happened to emit;
* snapping to a fixed number of *decimal places* (the historical
  ``round(rate, 12)`` scheme) is an absolute-error criterion: for rates
  around ``1e4`` the float ulp already exceeds the rounding grid, so
  last-ulp noise lands on different grid points and splits blocks that
  Definition 6 says must merge.

This module fixes both.  :func:`stable_rate_sum` makes the sum a pure
function of the contribution *multiset* (sorted contributions folded
with :func:`math.fsum`, which computes the correctly-rounded exact sum),
and :func:`quantize_rate` snaps the result onto a *relative* grid: the
binary mantissa is kept to :data:`MANTISSA_BITS` bits, i.e. values are
identified when they agree to about one part in ``2**30 ~ 1e9``,
independent of magnitude.  The quantisation is implemented with exact
float operations only (``frexp``/``ldexp``, scaling by powers of two),
so the scalar form and the vectorised numpy form used by the worklist
refinement engine are bitwise identical -- the engine and its
reference refinement can never disagree on a signature because of the
arithmetic route taken.

Like every grid scheme, quantisation can still separate two values that
straddle a grid-cell boundary while lying within tolerance of each
other; that failure mode needs the *true* sums to differ by more than
their float error yet less than one part in ``2**30``, which no model
builder in this repository produces.  The property-based test suite
cross-checks the refinement engine under exactly this scheme.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "MANTISSA_BITS",
    "quantize_rate",
    "quantize_rates",
    "stable_rate_sum",
    "rate_signature",
]

#: Mantissa bits kept by the quantisation: rates agreeing to one part in
#: ``2**MANTISSA_BITS`` (about ``1e-9`` relative) are identified.
MANTISSA_BITS = 30

_SCALE = float(1 << MANTISSA_BITS)


def quantize_rate(value: float) -> float:
    """Snap ``value`` onto the relative grid of :data:`MANTISSA_BITS` bits.

    The mantissa is rounded (half-to-even) to ``MANTISSA_BITS`` bits;
    the exponent is untouched.  All operations are exact in binary
    floating point, so this is a deterministic, magnitude-independent
    idempotent quantisation.
    """
    if value == 0.0 or not math.isfinite(value):
        return value
    mantissa, exponent = math.frexp(value)
    return math.ldexp(round(mantissa * _SCALE), exponent - MANTISSA_BITS)


def quantize_rates(values: np.ndarray) -> np.ndarray:
    """Vectorised :func:`quantize_rate` (bitwise-identical results)."""
    values = np.asarray(values, dtype=np.float64)
    mantissa, exponent = np.frexp(values)
    # np.rint rounds half-to-even, matching Python's round().
    quantized = np.ldexp(np.rint(mantissa * _SCALE), exponent - MANTISSA_BITS)
    return np.where(np.isfinite(values) & (values != 0.0), quantized, values)


def stable_rate_sum(contributions: Iterable[float]) -> float:
    """Order-independent cumulative rate: ``fsum`` of the sorted values.

    ``math.fsum`` already returns the correctly-rounded exact sum for
    any order; sorting documents (and future-proofs against lossier
    summation schemes) that the result is a function of the multiset.
    """
    return math.fsum(sorted(contributions))


def rate_signature(pairs: Iterable[tuple[int, float]]) -> frozenset[tuple[int, float]]:
    """Quantised cumulative-rate signature ``{(block, Rate(s, block))}``.

    ``pairs`` are raw per-transition ``(target block, rate)``
    contributions; repeated blocks accumulate via
    :func:`stable_rate_sum` before quantisation.
    """
    per_block: dict[int, list[float]] = {}
    for block, rate in pairs:
        per_block.setdefault(block, []).append(rate)
    return frozenset(
        (block, quantize_rate(stable_rate_sum(rates)))
        for block, rates in per_block.items()
    )


def markov_rate_pairs(imc, state: int, block_of) -> Iterator[tuple[int, float]]:
    """The raw ``(target block, rate)`` contributions of ``state``."""
    for rate, target in imc.markov_successors(state):
        yield int(block_of[target]), rate
