"""After-the-fact uniformisation of a CTMDP.

The paper's point is that models should be uniform *by construction*.
A CTMDP that is not uniform, or is uniform at a smaller rate than
wanted, can also be padded afterwards, as in Jensen's CTMC
uniformisation: every rate function whose exit rate falls short of the
target gets a self-loop that makes up the difference.  The
timed-reachability value of an already-uniform model is unchanged, but
the Poisson parameter ``E t``, and with it the number of sweep steps,
grows.  ``benchmarks/test_bench_ablations.py`` measures that cost.

Padding a *non-uniform* CTMDP does not preserve behaviour in general: a
time-abstract scheduler of the padded model observes self-loop jumps
that the original lacks.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.ctmdp import CTMDP
from repro.errors import ModelError


def uniformize_ctmdp(ctmdp: CTMDP, rate: float | None = None) -> CTMDP:
    """Pad every rate function of ``ctmdp`` up to the exit rate ``rate``.

    ``rate`` defaults to the largest exit rate and must dominate every
    exit rate.
    """
    exits = ctmdp.exit_rates()
    if len(exits) == 0:
        raise ModelError("cannot uniformize a CTMDP without transitions")
    max_exit = float(exits.max())
    if rate is None:
        rate = max_exit
    if rate <= 0.0:
        raise ModelError("uniformization rate must be positive")
    if rate < max_exit - 1e-12 * max(1.0, max_exit):
        raise ModelError(
            f"uniformization rate {rate} is below the maximal exit rate {max_exit}"
        )

    deficit = rate - exits
    deficit[np.abs(deficit) < 1e-14 * max(1.0, rate)] = 0.0
    rows = np.flatnonzero(deficit > 0.0)
    loops = sp.csr_matrix(
        (deficit[rows], (rows, ctmdp.sources[rows])),
        shape=ctmdp.rate_matrix.shape,
    )
    return CTMDP(
        num_states=ctmdp.num_states,
        sources=ctmdp.sources.copy(),
        labels=list(ctmdp.labels),
        rate_matrix=sp.csr_matrix(ctmdp.rate_matrix + loops),
        initial=ctmdp.initial,
        state_names=list(ctmdp.state_names) if ctmdp.state_names else None,
    )
