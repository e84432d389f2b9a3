"""Summary statistics and the comparison rule of the pipeline benchmark."""

from __future__ import annotations

import statistics
from typing import Sequence

__all__ = ["BEYOND", "quartiles", "relative_spread", "tail", "verdict"]

#: Samples a reported tail latency must have above it.
BEYOND = 10


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def tail(latencies: Sequence[float]) -> tuple[float, float] | None:
    """``(latency, percentile)`` at the highest percentile with
    :data:`BEYOND` samples above it, or ``None`` below ``BEYOND + 1``
    samples."""
    n = len(latencies)
    if n <= BEYOND:
        return None
    return sorted(latencies)[n - BEYOND - 1], 100.0 * (n - BEYOND) / n


def verdict(
    base: Sequence[float], change: Sequence[float], bound: float, higher_is_better: bool
) -> str:
    """Judge the runs of a change against the runs of its base.

    * ``better``: the change wins at least nine tenths of the pairs
      (runs paired in order, ties winning for neither side) and the
      medians differ by more than the base's quartile distance;
    * ``unresolved``: either side's relative spread exceeds ``bound``
      and the runs do not separate (neither every change run beats
      every base run nor the reverse);
    * ``worse``: the change's median is worse than the base's by more
      than ``bound``, relative to the base median;
    * ``within bound`` otherwise.
    """
    # Costs: lower is better whatever the metric's direction.
    sign = -1.0 if higher_is_better else 1.0
    base_cost = [sign * value for value in base]
    change_cost = [sign * value for value in change]
    gain = statistics.median(base_cost) - statistics.median(change_cost)
    wins = sum(c < b for b, c in zip(base_cost, change_cost))
    q1, q3 = quartiles(base)
    if wins >= 0.9 * min(len(base), len(change)) and gain > q3 - q1:
        return "better"
    separated = max(change_cost) < min(base_cost) or min(change_cost) > max(base_cost)
    if max(relative_spread(base), relative_spread(change)) > bound and not separated:
        return "unresolved"
    if -gain / abs(statistics.median(base)) > bound:
        return "worse"
    return "within bound"
