"""Stochastic branching bisimulation (Definition 6 of the paper).

The paper's compositional minimisation strategy quotients intermediate
models by an equivalence that (1) abstracts from internal computation
like branching bisimulation, (2) lumps Markov transitions, and (3)
leaves the branching structure otherwise untouched.  Lemma 3 states that
this equivalence preserves uniformity -- because the uniformity
condition only constrains *stable* states, and condition 2 of the
definition forces related stable states to carry identical cumulative
rates (hence identical exit rates).

The partition is computed by the vectorised worklist refinement of
:mod:`repro.bisim.worklist`: CSR-encoded adjacency, dirty-block
tracking, block-local inert-``tau`` SCC condensation and
``lexsort``-based signature grouping.  Cumulative rates are compared
through the shared float-robust quantisation of
:mod:`repro.bisim.signatures`.  The test suite cross-checks every
partition against a readable Blom & Orzan-style signature refinement
kept as a test oracle.

The refinement fixpoint always *is* a stochastic branching bisimulation
(the test suite verifies this exhaustively on random models with a
literal check of Definition 6); quotienting by it is therefore
behaviour-preserving even in corner cases where it may be finer than
the coarsest such bisimulation.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.bisim.partition import Partition
from repro.bisim.quotient import quotient_imc
from repro.bisim.signatures import markov_rate_pairs, rate_signature
from repro.bisim.worklist import worklist_refine
from repro.imc.model import IMC
from repro.obs import MetricStore, span

__all__ = ["branching_bisimulation", "branching_minimize"]


def _rate_signature(imc: IMC, state: int, block_of: np.ndarray) -> frozenset:
    """Cumulative-rate signature ``{(block, Rate(state, block))}``.

    Accumulation is order-independent (sorted ``fsum``) and the sums are
    quantised on the shared relative grid of
    :mod:`repro.bisim.signatures`, so rates straddling a decimal
    rounding boundary can no longer split blocks that Definition 6 says
    must merge.
    """
    return rate_signature(markov_rate_pairs(imc, state, block_of))


def _initial_partition(imc: IMC, labels: Sequence[Hashable] | None) -> Partition:
    return (
        Partition.from_labels(labels)
        if labels is not None
        else Partition.trivial(imc.num_states)
    )


def branching_bisimulation(
    imc: IMC,
    labels: Sequence[Hashable] | None = None,
    metrics: MetricStore | None = None,
) -> Partition:
    """Compute a stochastic branching bisimulation partition.

    Parameters
    ----------
    imc:
        The model to partition.
    labels:
        Optional per-state atomic propositions seeding the initial
        partition; states with different labels are never merged, so
        goal predicates survive the quotient.
    metrics:
        Optional :class:`~repro.obs.MetricStore` receiving ``bisim_*``
        counters.
    """
    return worklist_refine(imc, _initial_partition(imc, labels), metrics=metrics)


def branching_minimize(
    imc: IMC,
    labels: Sequence[Hashable] | None = None,
    metrics: MetricStore | None = None,
) -> tuple[IMC, Partition]:
    """Quotient ``imc`` by stochastic branching bisimilarity.

    Inert ``tau`` steps disappear in the quotient.  Returns the quotient
    together with the partition for predicate mapping.  By Corollary 1
    the quotient is uniform iff the input is.
    """
    with span("bisim.minimize", states=imc.num_states) as sp:
        partition = branching_bisimulation(imc, labels, metrics=metrics)
        with span("bisim.quotient", blocks=partition.num_blocks):
            quotient = quotient_imc(imc, partition, drop_inert_tau=True)
        if metrics is not None:
            metrics.count("bisim_minimize_calls")
            metrics.count(
                "bisim_states_eliminated", imc.num_states - quotient.num_states
            )
        if sp is not None:
            sp.annotate(blocks=partition.num_blocks, quotient_states=quotient.num_states)
    return quotient, partition
