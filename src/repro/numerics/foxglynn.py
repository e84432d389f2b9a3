"""Fox-Glynn computation of Poisson probabilities.

The timed-reachability algorithm for uniform CTMDPs (Algorithm 1 of the
paper, originally from Baier/Haverkort/Hermanns/Katoen, TCS 2005) weights
each backward value-iteration step ``i`` with the Poisson probability

    psi(i) = e^{-E t} (E t)^i / i!

of observing exactly ``i`` jumps of a Poisson process with rate ``E``
within ``t`` time units.  Summing the recursion up to a *right truncation
point* ``R`` chosen such that the neglected tail mass is below the
requested precision turns the infinite sum into a finite one; a *left
truncation point* ``L`` additionally identifies the indices whose weight
is negligibly small.

This module implements the classical algorithm of

    B. L. Fox and P. W. Glynn, "Computing Poisson probabilities",
    Communications of the ACM 31(4):440-445, 1988,

in the formulation popularised by the probabilistic model checkers ETMCC,
PRISM and MRMC: the *finder* determines ``(L, R)`` from tail bounds, the
*weighter* evaluates the (unnormalised) weights by the stable two-sided
recurrence starting from the mode, and the total weight ``W`` is returned
so callers can normalise lazily (``psi(i) = weights[i - L] / W``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import NumericalError
from repro.obs import span

__all__ = ["FoxGlynn", "fox_glynn", "poisson_pmf", "poisson_right_truncation"]

#: Scale of the seed weight placed at the mode.  Following Fox and Glynn,
#: the seed is chosen huge so that the *smallest* retained weight stays
#: comfortably above the underflow threshold even for very peaked
#: distributions; normalisation by the total weight removes the scale.
_SEED_WEIGHT = 1.0e+280

#: sqrt(2 pi), used by the normal-tail bounds of the finder.
_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Below this parameter the finder walks the pmf directly instead of
#: using the normal-approximation corollaries, whose ``max(lam, 400)``
#: evaluation point wildly over-covers small parameters.
_SMALL_LAM = 400.0

#: Safety factor applied to the admissible tail mass in the direct
#: small-``lam`` finder.  The geometric bound is nearly sharp, so without
#: slack the retained mass would sit exactly at ``1 - epsilon/2`` and
#: downstream accumulated-error arguments (and the paper's "error below
#: epsilon" claim) would have no margin.  The factor costs only a couple
#: of extra indices per window.
_TAIL_SAFETY = 1.0e-4


@dataclass(frozen=True)
class FoxGlynn:
    """Result of the Fox-Glynn computation for a Poisson parameter ``lam``.

    Attributes
    ----------
    lam:
        The Poisson parameter ``E * t``.
    left, right:
        Left and right truncation points.  Indices ``i`` outside
        ``[left, right]`` carry total probability mass below the requested
        accuracy and are treated as zero.
    weights:
        Unnormalised weights for indices ``left .. right`` (inclusive);
        ``weights[i - left] / total_weight`` approximates the Poisson
        probability of ``i``.
    total_weight:
        Sum of all stored weights; the normalisation constant.
    """

    lam: float
    left: int
    right: int
    weights: np.ndarray
    total_weight: float

    def probability(self, i: int) -> float:
        """Return the (normalised) Poisson probability of index ``i``.

        Indices outside the truncation window yield ``0.0``.
        """
        if i < self.left or i > self.right:
            return 0.0
        return float(self.weights[i - self.left]) / self.total_weight

    def probabilities(self) -> np.ndarray:
        """Return the array of normalised probabilities for ``left..right``."""
        return self.weights / self.total_weight

    def __len__(self) -> int:
        return self.right - self.left + 1


def _right_tail_k(lam_for_bound: float, epsilon: float) -> float:
    """Find the smallest ``k`` bounding the right Poisson tail by ``epsilon/2``.

    This is Corollary 1 of Fox-Glynn: with
    ``a_lam = (1 + 1/lam) e^{1/16} sqrt(2)`` the tail beyond
    ``m + k sqrt(2 lam) + 3/2`` is at most

        a_lam d(k) e^{-k^2/2} / (k sqrt(2 pi))

    where ``d(k) = 1 / (1 - e^{-(2/9)(k sqrt(2 lam) + 3/2)})``.
    """
    a_lam = (1.0 + 1.0 / lam_for_bound) * math.exp(1.0 / 16.0) * math.sqrt(2.0)
    k = 3.0
    while True:
        d_k = 1.0 / (1.0 - math.exp(-(2.0 / 9.0) * (k * math.sqrt(2.0 * lam_for_bound) + 1.5)))
        bound = a_lam * d_k * math.exp(-k * k / 2.0) / (k * _SQRT_2PI)
        if bound <= epsilon / 2.0:
            return k
        k += 1.0
        if k > 1.0e6:  # pragma: no cover - defensive, cannot trigger for epsilon > 0
            raise NumericalError("Fox-Glynn right-tail search diverged")


def _left_tail_k(lam: float, epsilon: float) -> float:
    """Find the smallest ``k`` bounding the left Poisson tail by ``epsilon/2``.

    Corollary 2 of Fox-Glynn: with ``b_lam = (1 + 1/lam) e^{1/(8 lam)}``
    the mass below ``m - k sqrt(lam) - 3/2`` is at most
    ``b_lam e^{-k^2/2} / (k sqrt(2 pi))``.  Only valid for ``lam >= 25``.
    """
    b_lam = (1.0 + 1.0 / lam) * math.exp(1.0 / (8.0 * lam))
    k = 1.0
    while True:
        bound = b_lam * math.exp(-k * k / 2.0) / (k * _SQRT_2PI)
        if bound <= epsilon / 2.0:
            return k
        k += 1.0
        if k > 1.0e6:  # pragma: no cover - defensive
            raise NumericalError("Fox-Glynn left-tail search diverged")


def _small_lambda_right(lam: float, epsilon: float) -> int:
    """Direct right truncation point for ``lam < 400``.

    Walks the pmf upward from the mode and stops at the first index
    whose remaining tail is provably below the admissible mass: since
    ``p(j+1)/p(j) = lam/(j+1) <= r := lam/(i+1)`` for all ``j >= i``,
    the tail beyond ``i`` is bounded by the geometric sum

        sum_{j > i} p(j)  <=  p(i) * r / (1 - r).

    The bound avoids the cancellation trap of a ``1 - cdf`` walk (which
    cannot resolve tails below ~1e-16) and is essentially sharp, unlike
    the normal-approximation corollary evaluated at ``max(lam, 400)``
    which inflates small-``lam`` windows by an order of magnitude.
    """
    target = (epsilon / 2.0) * _TAIL_SAFETY
    mode = int(math.floor(lam))
    # Walk the pmf up from 0; e^{-lam} is representable for lam < 400
    # (e^{-400} ~ 1e-174) so the running pmf never underflows prematurely.
    p = math.exp(-lam)
    for i in range(1, mode + 1):
        p *= lam / i
    i = mode
    while True:
        ratio = lam / (i + 1.0)
        if ratio < 1.0 and p * ratio / (1.0 - ratio) <= target:
            return i
        p *= ratio
        i += 1
        if i > mode + 10_000_000:  # pragma: no cover - defensive
            raise NumericalError("Fox-Glynn small-lambda finder diverged")


def fox_glynn(lam: float, epsilon: float = 1.0e-6) -> FoxGlynn:
    """Compute Poisson truncation points and weights for parameter ``lam``.

    Parameters
    ----------
    lam:
        Poisson parameter (``E * t`` in the timed-reachability setting).
        Must be non-negative.
    epsilon:
        Total admissible truncation error.  The mass of all indices
        outside ``[left, right]`` is below ``epsilon``.

    Returns
    -------
    FoxGlynn
        Truncation points and unnormalised weights.

    Raises
    ------
    NumericalError
        If ``lam`` is negative or not finite, ``epsilon`` is out of
        ``(0, 1)``, ``lam`` is so large that float64 rounding collapses
        the window to its mode, or the weight recurrence underflows.
    """
    if lam < 0.0 or not math.isfinite(lam):
        raise NumericalError(f"Poisson parameter must be finite and >= 0, got {lam}")
    if not 0.0 < epsilon < 1.0:
        raise NumericalError(f"epsilon must lie in (0, 1), got {epsilon}")

    if lam == 0.0:
        # Degenerate distribution: all mass at zero jumps.
        return FoxGlynn(lam=0.0, left=0, right=0, weights=np.array([1.0]), total_weight=1.0)

    with span("foxglynn", lam=lam, epsilon=epsilon) as sp:
        result = _fox_glynn(lam, epsilon)
        if sp is not None:
            sp.annotate(left=result.left, right=result.right, window=len(result))
    return result


def _fox_glynn(lam: float, epsilon: float) -> FoxGlynn:
    mode = int(math.floor(lam))

    # --- Finder: right truncation point. -------------------------------
    # Fox-Glynn evaluate the right-tail bound at max(lam, 400), which is
    # wildly conservative below 400; there the direct pmf walk applies.
    if lam < _SMALL_LAM:
        right = _small_lambda_right(lam, epsilon)
    else:
        k_right = _right_tail_k(lam, epsilon)
        right = int(math.ceil(mode + k_right * math.sqrt(2.0 * lam) + 1.5))
        if right <= mode:
            # The tail offset is below half a unit in the last place of
            # the mode: float64 rounding has collapsed the window.
            raise NumericalError(
                f"Poisson parameter {lam:g} is too large for float64 to "
                f"resolve the truncation window"
            )

    # --- Finder: left truncation point. --------------------------------
    if lam < 25.0:
        # For small parameters the left tail is not truncated; the
        # normal-approximation bound is invalid there.
        left = 0
    else:
        k_left = _left_tail_k(lam, epsilon)
        left = int(math.floor(mode - k_left * math.sqrt(lam) - 1.5))
        left = max(left, 0)

    if lam < 25.0:
        # Tiny parameters: evaluate the pmf directly.  With a total
        # weight of one, each stored probability is pointwise exact (to
        # machine precision) and the deficit of the window sum equals
        # the truncated tail mass, well below epsilon.
        indices = np.arange(left, right + 1)
        weights = np.array([poisson_pmf(int(i), lam) for i in indices])
        return FoxGlynn(lam=lam, left=left, right=right, weights=weights, total_weight=1.0)

    # --- Weighter: two-sided recurrence from the mode. ------------------
    size = right - left + 1
    weights = np.empty(size, dtype=np.float64)
    weights[mode - left] = _SEED_WEIGHT
    # Downward recurrence: w(i-1) = (i / lam) * w(i).
    for i in range(mode, left, -1):
        weights[i - 1 - left] = (i / lam) * weights[i - left]
    # Upward recurrence: w(i+1) = (lam / (i+1)) * w(i).
    for i in range(mode, right):
        weights[i + 1 - left] = (lam / (i + 1.0)) * weights[i - left]

    total = _kahan_sum_smallest_first(weights)
    if total <= 0.0 or not math.isfinite(total):
        raise NumericalError(
            f"Fox-Glynn weighter over/underflowed for lam={lam}, epsilon={epsilon}"
        )
    return FoxGlynn(lam=lam, left=left, right=right, weights=weights, total_weight=total)


def _kahan_sum_smallest_first(weights: np.ndarray) -> float:
    """Sum the weights adding small terms first, as prescribed by Fox-Glynn.

    The weights are unimodal (increasing up to the mode, decreasing
    after), so summing simultaneously from both ends towards the mode adds
    numbers of similar magnitude and limits round-off.
    """
    lo, hi = 0, len(weights) - 1
    total = 0.0
    while lo < hi:
        if weights[lo] <= weights[hi]:
            total += float(weights[lo])
            lo += 1
        else:
            total += float(weights[hi])
            hi -= 1
    total += float(weights[lo])
    return total


def poisson_pmf(i: int, lam: float) -> float:
    """Directly evaluate the Poisson pmf ``e^{-lam} lam^i / i!`` stably.

    Used for cross-checking the Fox-Glynn weights in tests and for tiny
    parameters where the full machinery is unnecessary.
    """
    if i < 0:
        return 0.0
    if lam == 0.0:
        return 1.0 if i == 0 else 0.0
    return math.exp(-lam + i * math.log(lam) - math.lgamma(i + 1.0))


def poisson_right_truncation(lam: float, epsilon: float = 1.0e-6) -> int:
    """Return only the right truncation point ``k(epsilon, E, t)``.

    This is the number of value-iteration steps Algorithm 1 performs; the
    paper reports it in the "# Iterations" columns of Table 1.
    """
    return fox_glynn(lam, epsilon).right
