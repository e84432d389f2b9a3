"""Partition-refinement machinery shared by the bisimulation algorithms.

A partition of the state space is stored as an array of block
identifiers.  Refinement proceeds in rounds: a *signature function*
assigns every state a hashable value computed relative to the current
partition; states of one block with different signatures are separated.
The loop stops when no round splits anything -- the signature fixpoint.

The concrete bisimulations (strong, stochastic branching) only differ
in their signature functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from repro.errors import ConvergenceError

__all__ = ["Partition", "refine_to_fixpoint"]


@dataclass
class Partition:
    """A partition of ``0 .. num_states - 1`` into numbered blocks.

    Block identifiers are consecutive integers starting at zero; the
    identifier assignment is canonical (ordered by the smallest state in
    each block) so equal partitions compare equal.
    """

    block_of: np.ndarray

    @classmethod
    def trivial(cls, num_states: int) -> "Partition":
        """The one-block partition."""
        return cls(block_of=np.zeros(num_states, dtype=np.int64))

    @classmethod
    def from_labels(cls, labels: Sequence[Hashable]) -> "Partition":
        """Partition by equality of labels (e.g. atomic propositions)."""
        ids: dict[Hashable, int] = {}
        block_of = np.empty(len(labels), dtype=np.int64)
        for state, label in enumerate(labels):
            if label not in ids:
                ids[label] = len(ids)
            block_of[state] = ids[label]
        return cls(block_of=block_of).canonical()

    @classmethod
    def discrete(cls, num_states: int) -> "Partition":
        """The finest partition (every state alone)."""
        return cls(block_of=np.arange(num_states, dtype=np.int64))

    @property
    def num_states(self) -> int:
        """Number of partitioned states."""
        return len(self.block_of)

    @property
    def num_blocks(self) -> int:
        """Number of blocks."""
        return int(self.block_of.max()) + 1 if len(self.block_of) else 0

    def blocks(self) -> list[list[int]]:
        """Blocks as lists of states, indexed by block id."""
        result: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for state, block in enumerate(self.block_of):
            result[int(block)].append(state)
        return result

    def canonical(self) -> "Partition":
        """Renumber blocks by first occurrence; idempotent."""
        if not len(self.block_of):
            return Partition(block_of=self.block_of.copy())
        _, first, inverse = np.unique(
            self.block_of, return_index=True, return_inverse=True
        )
        # Rank the (value-sorted) unique blocks by their first occurrence.
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first, kind="stable")] = np.arange(len(first), dtype=np.int64)
        return Partition(block_of=rank[inverse].astype(np.int64))

    def same_block(self, s: int, t: int) -> bool:
        """True iff ``s`` and ``t`` share a block."""
        return bool(self.block_of[s] == self.block_of[t])

    def refined_by(self, signatures: Sequence[Hashable]) -> "Partition":
        """Split every block by signature equality (intersection refine)."""
        ids: dict[tuple[int, Hashable], int] = {}
        new = np.empty_like(self.block_of)
        for state in range(self.num_states):
            key = (int(self.block_of[state]), signatures[state])
            if key not in ids:
                ids[key] = len(ids)
            new[state] = ids[key]
        return Partition(block_of=new)

    def is_refinement_of(self, other: "Partition") -> bool:
        """True iff every block of ``self`` lies inside a block of ``other``."""
        seen: dict[int, int] = {}
        for state in range(self.num_states):
            mine = int(self.block_of[state])
            theirs = int(other.block_of[state])
            if mine in seen:
                if seen[mine] != theirs:
                    return False
            else:
                seen[mine] = theirs
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return bool(
            np.array_equal(self.canonical().block_of, other.canonical().block_of)
        )


def refine_to_fixpoint(
    initial: Partition,
    signature_fn: Callable[[Partition], Sequence[Hashable]],
    max_rounds: int | None = None,
    allow_unconverged: bool = False,
) -> Partition:
    """Iterate signature refinement until no block splits.

    Parameters
    ----------
    initial:
        Starting partition (typically by atomic propositions, or the
        trivial one-block partition).
    signature_fn:
        Maps the current partition to per-state signatures.
    max_rounds:
        Optional round bound; refinement terminates after at most
        ``num_states + 1`` rounds anyway because every round that does
        not reach the fixpoint strictly increases the block count.
    allow_unconverged:
        By default, exhausting ``max_rounds`` before the fixpoint raises
        :class:`~repro.errors.ConvergenceError` -- a non-fixpoint
        partition is not a bisimulation, and quotienting by one is
        unsound.  Pass ``True`` to get the partial (still valid, merely
        too-coarse-to-trust) partition instead.

    Raises
    ------
    ConvergenceError
        If ``max_rounds`` rounds did not reach the fixpoint and
        ``allow_unconverged`` is not set.
    """
    partition = initial.canonical()
    bound = max_rounds if max_rounds is not None else partition.num_states + 1
    for _ in range(bound):
        refined = partition.refined_by(signature_fn(partition)).canonical()
        if refined.num_blocks == partition.num_blocks:
            return refined
        partition = refined
    if allow_unconverged:
        return partition
    raise ConvergenceError(
        f"partition refinement did not reach its fixpoint within "
        f"{bound} rounds ({partition.num_blocks} blocks and still splitting); "
        f"the partial partition is not a bisimulation -- raise max_rounds or "
        f"pass allow_unconverged=True to accept it anyway"
    )
