"""Jensen's uniformization and transient analysis of CTMCs.

Uniformization [Jensen 1953] is the workhorse the whole paper revolves
around: a non-uniform CTMC is turned into a uniform one by choosing a
rate ``E`` at least as large as every exit rate and topping states up
with self-loops, without affecting state probabilities.  The number of
state changes within ``t`` time units in the uniformized chain is Poisson
distributed with parameter ``E * t``, which reduces transient analysis to
a Poisson-weighted sum of powers of the (discrete) jump matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.ctmc.model import CTMC
from repro.errors import ModelError
from repro.numerics.foxglynn import fox_glynn
from repro.obs import (
    NumericalCertificate,
    certificate_from_foxglynn,
    iterative_certificate,
)

__all__ = [
    "uniformize",
    "uniformized_jump_matrix",
    "TransientResult",
    "transient_analysis",
    "SteadyStateResult",
    "steady_state_analysis",
]


def uniformize(ctmc: CTMC, rate: float | None = None) -> CTMC:
    """Return a uniform version of ``ctmc`` with uniform rate ``rate``.

    Every state whose exit rate falls short of ``rate`` receives an
    additional self-loop making up the difference, exactly as described
    in Section 2 of the paper ("a twist on the CTMC level").  The
    probabilistic behaviour in terms of state probabilities is unchanged.

    Parameters
    ----------
    ctmc:
        The chain to uniformize.
    rate:
        The uniformization rate ``E``.  Defaults to the maximal exit rate
        of the chain.  Must be at least the maximal exit rate and
        strictly positive.
    """
    exits = ctmc.exit_rates()
    max_exit = float(exits.max()) if len(exits) else 0.0
    if rate is None:
        rate = max_exit
    if rate <= 0.0:
        raise ModelError("uniformization rate must be strictly positive")
    if rate < max_exit - 1e-12 * max(1.0, max_exit):
        raise ModelError(
            f"uniformization rate {rate} is below the maximal exit rate {max_exit}"
        )
    deficit = rate - exits
    deficit[np.abs(deficit) < 1e-15 * max(1.0, rate)] = 0.0
    n = ctmc.num_states
    loops = sp.csr_matrix((deficit, (np.arange(n), np.arange(n))), shape=(n, n))
    return CTMC(
        rates=sp.csr_matrix(ctmc.rates + loops),
        initial=ctmc.initial,
        state_names=list(ctmc.state_names) if ctmc.state_names else None,
    )


def uniformized_jump_matrix(ctmc: CTMC, rate: float | None = None) -> tuple[sp.csr_matrix, float]:
    """Return ``(P, E)`` with ``P = R / E`` row-stochastic.

    ``P`` is the jump matrix of the uniformized chain: ``P[s, s']`` is the
    probability that the next Poisson event moves the chain from ``s`` to
    ``s'`` (self-loops included).
    """
    uniform = uniformize(ctmc, rate)
    e = uniform.uniform_rate(tol=1e-7)
    p = sp.csr_matrix(uniform.rates / e)
    return p, e


@dataclass(frozen=True)
class TransientResult:
    """Transient distribution plus its numerical-health certificate."""

    distribution: np.ndarray
    certificate: NumericalCertificate


def transient_analysis(
    ctmc: CTMC,
    t: float,
    initial_distribution: np.ndarray | None = None,
    epsilon: float = 1e-10,
    rate: float | None = None,
) -> TransientResult:
    """Transient state distribution ``pi(t)`` via uniformization.

    Computes ``pi(t) = sum_n psi(n; E t) pi(0) P^n`` with Fox-Glynn
    truncation of the Poisson series, and certifies the truncation and
    floating-point error of the run (the sweep residual is the mass
    deficit ``|1 - sum pi(t)|`` plus any negative excursion).

    Parameters
    ----------
    ctmc:
        The chain to analyse (need not be uniform).
    t:
        Time horizon, ``t >= 0``.
    initial_distribution:
        Row vector ``pi(0)``; defaults to the point mass on
        ``ctmc.initial``.
    epsilon:
        Truncation error bound for the Poisson series.
    rate:
        Optional uniformization rate override.
    """
    if t < 0.0:
        raise ModelError("time horizon must be non-negative")
    n = ctmc.num_states
    if initial_distribution is None:
        pi0 = np.zeros(n)
        pi0[ctmc.initial] = 1.0
    else:
        pi0 = np.asarray(initial_distribution, dtype=np.float64)
        if pi0.shape != (n,):
            raise ModelError(f"initial distribution must have shape ({n},)")
        if abs(pi0.sum() - 1.0) > 1e-9 or (pi0 < -1e-12).any():
            raise ModelError("initial distribution must be a probability vector")
    if t == 0.0:
        return TransientResult(
            distribution=pi0.copy(),
            certificate=NumericalCertificate.trivial("ctmc.transient", epsilon),
        )

    p, e = uniformized_jump_matrix(ctmc, rate)
    fg = fox_glynn(e * t, epsilon)
    probs = fg.probabilities()

    result = np.zeros(n)
    vec = pi0
    for step in range(fg.right + 1):
        if step >= fg.left:
            result += probs[step - fg.left] * vec
        if step < fg.right:
            vec = vec @ p
    residual = max(abs(1.0 - float(result.sum())), -float(result.min()), 0.0)
    certificate = certificate_from_foxglynn(
        fg, epsilon, "ctmc.transient", sweep_residual=residual
    )
    return TransientResult(distribution=result, certificate=certificate)


@dataclass(frozen=True)
class SteadyStateResult:
    """Steady-state distribution plus its numerical-health certificate."""

    distribution: np.ndarray
    certificate: NumericalCertificate


def steady_state_analysis(ctmc: CTMC, tolerance: float = 1e-9) -> SteadyStateResult:
    """Long-run distribution of an irreducible CTMC, certified.

    Solves ``pi Q = 0`` with ``sum(pi) = 1`` where ``Q`` is the generator
    implied by the rate matrix (self-loops cancel in ``Q`` and therefore
    do not affect the result).  The certificate (algorithm
    ``"ctmc.steady_state"``, via :func:`repro.obs.iterative_certificate`)
    measures the *a-posteriori* defect of the returned vector: the
    balance residual ``||pi Q||_inf`` plus the negativity clipped away,
    with the pre-normalisation mass defect as the deficit term; it is
    healthy iff that residual stays within ``tolerance``.

    Raises
    ------
    ModelError
        If the chain is reducible (the linear system is singular beyond
        the expected rank deficiency of one).
    """
    n = ctmc.num_states
    dense = ctmc.rates.toarray()
    np.fill_diagonal(dense, 0.0)
    q = dense - np.diag(dense.sum(axis=1))
    # Replace one balance equation by the normalisation constraint.
    a = np.vstack([q.T[:-1], np.ones(n)])
    b = np.zeros(n)
    b[-1] = 1.0
    solution, _lstsq_residual, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < n:
        raise ModelError("steady-state distribution requires an irreducible chain")
    clipped_negativity = max(0.0, -float(solution.min()))
    mass_defect = abs(1.0 - float(solution.sum()))
    pi = np.clip(solution, 0.0, None)
    total = pi.sum()
    if total <= 0.0:
        raise ModelError("steady-state solve produced a degenerate distribution")
    pi = pi / total
    balance = float(np.max(np.abs(pi @ q))) if n else 0.0
    certificate = iterative_certificate(
        "ctmc.steady_state",
        epsilon=tolerance,
        residual=balance + clipped_negativity,
        iterations=n,
        deficit=mass_defect,
    )
    return SteadyStateResult(distribution=pi, certificate=certificate)
