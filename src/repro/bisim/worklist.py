"""Worklist-based branching-bisimulation refinement (the fast engine).

``repro profile`` showed a naive signature refinement dominating
compositional runs at ~80% self time: every round it rebuilds the full
inert-``tau`` graph, recomputes
the SCC condensation of the *whole* state space, and re-hashes
per-state frozenset-of-frozenset signatures in Python loops -- even for
blocks that no split could possibly have touched.

This module keeps the naive refinement's *round semantics* (synchronous
signature refinement, so both walk through bitwise-identical partition
sequences) but makes each round incremental and vectorised:

* the interactive/Markov adjacency is encoded **once** into CSR-style
  numpy arrays (following the ``repro.graph.structure.TransitionGraph``
  conventions) together with a union predecessor CSR;
* a round recomputes signatures only for **dirty blocks**: blocks that
  split in the previous round, plus blocks holding a predecessor of a
  state whose block id changed.  A state in a clean block provably has
  an unchanged signature (its own block's inert structure and all its
  targets' block ids are untouched), so skipping it cannot change the
  fixpoint;
* the inert-``tau`` SCC condensation is rebuilt only for the dirty
  states (inert edges never leave a block, so the condensation is
  block-local);
* signatures are grouped by numpy ``lexsort`` over encoded integer rows
  -- ``(action, target block)`` for visible moves, interned
  ``(block, quantised rate)`` sets for stable states -- instead of
  hashing nested frozensets; cumulative rates use the shared
  quantisation of :mod:`repro.bisim.signatures` and are bitwise
  identical to the naive refinement's ``fsum``-based sums.

The one-time encoding is a ``bisim.encode`` span, every round is
wrapped in a ``bisim.refine.round`` span and the whole refinement in a
``bisim.refine`` span (attributes: round number, dirty state count,
block count, splits), so ``repro profile`` attributes the cost -- and
the win -- per round.  The naive refinement survives as a
test oracle (``tests/oracles/bisim.py``); the property-based test suite
cross-checks that it and this engine compute equal partitions on random
IMCs.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from repro.bisim.partition import Partition
from repro.bisim.signatures import quantize_rates
from repro.imc.model import IMC
from repro.obs import MetricStore, span

__all__ = ["worklist_refine"]


class _Encoded:
    """One-time CSR encoding of an IMC for repeated refinement rounds."""

    __slots__ = (
        "num_states",
        "num_actions",
        "i_ptr",
        "i_act",
        "i_dst",
        "m_ptr",
        "m_rate",
        "m_dst",
        "p_ptr",
        "p_src",
        "stable",
    )

    def __init__(self, imc: IMC) -> None:
        n = imc.num_states
        self.num_states = n
        self.stable = imc.stable_mask()

        i_src, i_act, i_dst, actions = imc.encoded_interactive()
        self.num_actions = max(len(actions), 1)
        order = np.argsort(i_src, kind="stable")
        self.i_act = i_act[order]
        self.i_dst = i_dst[order]
        self.i_ptr = _pointers(i_src[order], n)

        # Markov transitions of unstable states never enter a signature
        # (condition 2 constrains stable states only), so drop them here.
        m_src, m_rate, m_dst = imc.encoded_markov()
        keep = self.stable[m_src]
        m_src, m_rate, m_dst = m_src[keep], m_rate[keep], m_dst[keep]
        order = np.argsort(m_src, kind="stable")
        self.m_rate = m_rate[order]
        self.m_dst = m_dst[order]
        self.m_ptr = _pointers(m_src[order], n)

        # Union predecessor CSR (interactive + stable-Markov edges):
        # the worklist marks the blocks of predecessors of changed
        # states dirty, covering every signature dependency.
        all_dst = np.concatenate([i_dst, m_dst])
        all_src = np.concatenate([i_src, m_src])
        if len(all_dst):
            packed = all_dst * np.int64(n) + all_src
            packed = np.unique(packed)
            p_dst, p_src = packed // n, packed % n
        else:
            p_dst = p_src = np.empty(0, dtype=np.int64)
        self.p_src = p_src
        self.p_ptr = _pointers(p_dst, n)


def _pointers(sorted_keys: np.ndarray, domain: int) -> np.ndarray:
    """CSR row pointers for ``sorted_keys`` over ``0 .. domain - 1``."""
    counts = np.bincount(sorted_keys, minlength=domain)
    pointers = np.zeros(domain + 1, dtype=np.int64)
    np.cumsum(counts, out=pointers[1:])
    return pointers


def _gather(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR slices of ``rows``.

    Returns ``(indices, owners)``: flat indices into the CSR value
    arrays and, aligned with them, the row each entry came from.
    """
    counts = ptr[rows + 1] - ptr[rows]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    ramp = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(ptr[rows], counts) + ramp, np.repeat(rows, counts)


def _group_by_rows(num_owners: int, owners: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Group owners by their *sets* of integer codes, via ``lexsort``.

    Returns ``group[owner]`` with equal ids exactly for owners carrying
    identical deduplicated code sets.  Owners without any row share
    group ``0``; groups are numbered from ``1`` upwards.  The grouping
    buckets owners by set size and ``lexsort``s the resulting dense
    ``(owners, size)`` code matrices -- no Python-level hashing.
    """
    group = np.zeros(num_owners, dtype=np.int64)
    if not len(owners):
        return group
    order = np.lexsort((codes, owners))
    owners, codes = owners[order], codes[order]
    keep = np.ones(len(owners), dtype=bool)
    keep[1:] = (owners[1:] != owners[:-1]) | (codes[1:] != codes[:-1])
    owners, codes = owners[keep], codes[keep]
    counts = np.bincount(owners, minlength=num_owners)
    offsets = np.zeros(num_owners + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    next_id = 1
    for size in np.unique(counts[counts > 0]):
        with_size = np.flatnonzero(counts == size)
        matrix = codes[offsets[with_size][:, None] + np.arange(size)[None, :]]
        order = np.lexsort(matrix.T[::-1])
        matrix = matrix[order]
        fresh = np.ones(len(with_size), dtype=bool)
        if len(with_size) > 1:
            fresh[1:] = (matrix[1:] != matrix[:-1]).any(axis=1)
        ids = np.cumsum(fresh) - 1 + next_id
        group[with_size[order]] = ids
        next_id = int(ids[-1]) + 1
    return group


def _refine_round(
    enc: _Encoded,
    block_of: np.ndarray,
    dirty: np.ndarray,
    num_blocks: int,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """One synchronous refinement round over the dirty states.

    Mutates ``block_of`` in place; returns the new block count, the
    states whose block id changed, the old ids of blocks that split and
    the freshly allocated block ids.
    """
    d = len(dirty)
    local = np.full(enc.num_states, -1, dtype=np.int64)
    local[dirty] = np.arange(d, dtype=np.int64)

    # Interactive edges out of dirty states; inert = intra-block tau.
    eidx, e_src = _gather(enc.i_ptr, dirty)
    e_act, e_dst = enc.i_act[eidx], enc.i_dst[eidx]
    target_block = block_of[e_dst]
    inert = (e_act == 0) & (block_of[e_src] == target_block)

    # SCC condensation of the inert graph, restricted to dirty states
    # (inert edges never leave a block, so this is block-local work).
    il_src, il_dst = local[e_src[inert]], local[e_dst[inert]]
    proper = il_src != il_dst
    il_src, il_dst = il_src[proper], il_dst[proper]
    if len(il_src):
        from scipy.sparse.csgraph import connected_components

        graph = sp.csr_matrix(
            (np.ones(len(il_src), dtype=np.int8), (il_src, il_dst)), shape=(d, d)
        )
        num_comps, comp_of = connected_components(
            graph, directed=True, connection="strong"
        )
        comp_of = comp_of.astype(np.int64)
    else:
        num_comps, comp_of = d, np.arange(d, dtype=np.int64)

    # Visible rows: (comp, encoded (action, target block)).
    visible = ~inert
    vis_owner = comp_of[local[e_src[visible]]]
    vis_code = e_act[visible] * np.int64(num_blocks) + target_block[visible]
    vis_base = np.int64(enc.num_actions) * np.int64(num_blocks)

    # Quantised cumulative-rate signatures of dirty stable states,
    # grouped per (state, target block) by lexsort.  Rates are sorted
    # ascending inside each group; multi-contribution groups fold with
    # math.fsum so the sums are bitwise those of the naive refinement.
    midx, m_src = _gather(enc.m_ptr, dirty)
    if len(midx):
        m_rate, m_tblock = enc.m_rate[midx], block_of[enc.m_dst[midx]]
        m_local = local[m_src]
        order = np.lexsort((m_rate, m_tblock, m_local))
        m_local, m_tblock, m_rate = m_local[order], m_tblock[order], m_rate[order]
        head = np.ones(len(m_local), dtype=bool)
        head[1:] = (m_local[1:] != m_local[:-1]) | (m_tblock[1:] != m_tblock[:-1])
        starts = np.flatnonzero(head)
        sums = np.add.reduceat(m_rate, starts)
        sizes = np.diff(np.append(starts, len(m_rate)))
        for g in np.flatnonzero(sizes > 1):
            sums[g] = math.fsum(m_rate[starts[g]: starts[g] + sizes[g]])
        quantised = quantize_rates(sums)
        unique_rates, rate_idx = np.unique(quantised, return_inverse=True)
        pair_code = m_tblock[starts] * np.int64(len(unique_rates)) + rate_idx
        rate_sig = _group_by_rows(d, m_local[starts], pair_code)
    else:
        rate_sig = np.zeros(d, dtype=np.int64)

    stable_local = np.flatnonzero(enc.stable[dirty])
    st_owner = comp_of[stable_local]
    st_code = vis_base + rate_sig[stable_local]
    block_base = vis_base + np.int64(rate_sig.max() + 1 if d else 1)

    # One row per component naming its block: components of different
    # blocks can then never be grouped together.
    comp_block = np.full(num_comps, -1, dtype=np.int64)
    comp_block[comp_of] = block_of[dirty]

    # Propagate rows through the condensation DAG: a component sees its
    # own rows plus everything its inert successors see.  Semi-naive
    # closure over packed (component, code) pairs -- each pass pulls the
    # *new* pairs of inert successors across the cross-component edges
    # until nothing new appears (bounded by the DAG depth).
    all_owner = np.concatenate([vis_owner, st_owner, np.arange(num_comps)])
    all_code = np.concatenate([vis_code, st_code, block_base + comp_block])
    ce_src, ce_dst = comp_of[il_src], comp_of[il_dst]
    cross = ce_src != ce_dst
    if np.any(cross):
        packed = np.unique(ce_src[cross] * np.int64(num_comps) + ce_dst[cross])
        ce_src, ce_dst = packed // num_comps, packed % num_comps
        unique_codes, code_idx = np.unique(all_code, return_inverse=True)
        ncodes = np.int64(len(unique_codes))
        pairs = np.unique(all_owner * ncodes + code_idx)
        frontier = pairs
        while len(frontier):
            ptr = _pointers(frontier // ncodes, num_comps)
            counts = ptr[ce_dst + 1] - ptr[ce_dst]
            idx, _ = _gather(ptr, ce_dst)
            new = np.unique(np.repeat(ce_src, counts) * ncodes + frontier[idx] % ncodes)
            if len(pairs):
                position = np.minimum(np.searchsorted(pairs, new), len(pairs) - 1)
                new = new[pairs[position] != new]
            pairs = np.union1d(pairs, new)
            frontier = new
        # Compact code ids are a consistent relabelling, fine for grouping.
        all_owner, all_code = pairs // ncodes, pairs % ncodes

    # Group components by their propagated row sets (block included).
    comp_group = _group_by_rows(num_comps, all_owner, all_code)

    # Assign block ids: per old block, the first signature group keeps
    # the old id, the rest receive fresh consecutive ids.
    group = comp_group[comp_of]
    unique_groups, first_idx, inverse = np.unique(
        group, return_index=True, return_inverse=True
    )
    group_block = block_of[dirty[first_idx]]
    order = np.argsort(group_block, kind="stable")
    block_sorted = group_block[order]
    first_of_block = np.ones(len(order), dtype=bool)
    first_of_block[1:] = block_sorted[1:] != block_sorted[:-1]
    assigned = np.where(first_of_block, block_sorted, 0)
    fresh_slots = np.flatnonzero(~first_of_block)
    assigned[fresh_slots] = num_blocks + np.arange(len(fresh_slots), dtype=np.int64)
    new_id_of_group = np.empty(len(unique_groups), dtype=np.int64)
    new_id_of_group[order] = assigned
    new_blocks = new_id_of_group[inverse]

    changed = dirty[new_blocks != block_of[dirty]]
    split_parents = np.unique(block_sorted[~first_of_block])
    fresh_ids = assigned[fresh_slots]
    block_of[dirty] = new_blocks
    return num_blocks + len(fresh_slots), changed, split_parents, fresh_ids


def worklist_refine(
    imc: IMC, initial: Partition, metrics: MetricStore | None = None
) -> Partition:
    """Refine ``initial`` to the branching-signature fixpoint.

    Computes the same fixpoint as the naive signature refinement
    (round-for-round the identical partition sequence), touching only
    dirty blocks per round.
    ``metrics``, when given, receives ``bisim_rounds``, ``bisim_splits``
    and ``bisim_states_rescanned`` counters.
    """
    with span("bisim.encode", states=imc.num_states):
        enc = _Encoded(imc)
    partition = initial.canonical()
    block_of = partition.block_of.astype(np.int64).copy()
    num_blocks = partition.num_blocks
    dirty = np.arange(imc.num_states, dtype=np.int64)
    rounds = 0
    rescanned = 0
    total_splits = 0
    with span(
        "bisim.refine", states=imc.num_states, blocks=num_blocks
    ) as refine_span:
        while len(dirty):
            rounds += 1
            rescanned += len(dirty)
            with span(
                "bisim.refine.round",
                round=rounds,
                dirty_states=len(dirty),
                blocks=num_blocks,
            ) as round_span:
                num_blocks, changed, split_parents, fresh_ids = _refine_round(
                    enc, block_of, dirty, num_blocks
                )
                if round_span is not None:
                    round_span.annotate(splits=len(fresh_ids), changed=len(changed))
            total_splits += len(fresh_ids)
            if not len(fresh_ids):
                break
            dirty_blocks = np.zeros(num_blocks, dtype=bool)
            dirty_blocks[split_parents] = True
            dirty_blocks[fresh_ids] = True
            pidx, _ = _gather(enc.p_ptr, changed)
            dirty_blocks[block_of[enc.p_src[pidx]]] = True
            dirty = np.flatnonzero(dirty_blocks[block_of])
        if refine_span is not None:
            refine_span.annotate(
                rounds=rounds,
                blocks=num_blocks,
                splits=total_splits,
                states_rescanned=rescanned,
            )
    if metrics is not None:
        metrics.count("bisim_rounds", rounds)
        metrics.count("bisim_splits", total_splits)
        metrics.count("bisim_states_rescanned", rescanned)
    return Partition(block_of=block_of).canonical()
