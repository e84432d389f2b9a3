"""Tests for ordinary CTMC lumping."""

import numpy as np
import pytest

from repro.bisim.lumping import lump, lumping_partition
from repro.ctmc.model import CTMC
from repro.ctmc.uniformization import transient_analysis


class TestLumping:
    def test_symmetric_states_lump(self):
        # Star: 0 -> {1, 2} symmetric, both back to 0.
        chain = CTMC.from_transitions(
            3, [(0, 1, 1.0), (0, 2, 1.0), (1, 0, 3.0), (2, 0, 3.0)]
        )
        lumped, partition = lump(chain)
        assert partition.same_block(1, 2)
        assert lumped.num_states == 2
        assert lumped.rate(0, 1) == pytest.approx(2.0)

    def test_asymmetric_states_do_not_lump(self):
        chain = CTMC.from_transitions(
            3, [(0, 1, 1.0), (0, 2, 1.0), (1, 0, 3.0), (2, 0, 4.0)]
        )
        _lumped, partition = lump(chain)
        assert not partition.same_block(1, 2)

    def test_labels_respected(self):
        chain = CTMC.from_transitions(
            3, [(0, 1, 1.0), (0, 2, 1.0), (1, 0, 3.0), (2, 0, 3.0)]
        )
        _lumped, partition = lump(chain, labels=["i", "a", "b"])
        assert not partition.same_block(1, 2)

    def test_lumped_transients_project_correctly(self):
        chain = CTMC.from_transitions(
            4,
            [
                (0, 1, 1.0),
                (0, 2, 1.0),
                (1, 3, 2.0),
                (2, 3, 2.0),
                (3, 0, 0.5),
            ],
        )
        lumped, partition = lump(chain)
        canon = partition.canonical()
        for t in (0.3, 1.0, 5.0):
            full = transient_analysis(chain, t, epsilon=1e-12).distribution
            reduced = transient_analysis(lumped, t, epsilon=1e-12).distribution
            aggregated = np.zeros(lumped.num_states)
            for state, probability in enumerate(full):
                aggregated[int(canon.block_of[state])] += probability
            np.testing.assert_allclose(aggregated, reduced, atol=1e-9)

    def test_uniform_chain_stays_uniform(self):
        chain = CTMC.from_transitions(
            3, [(0, 1, 1.0), (0, 0, 1.0), (1, 0, 1.0), (1, 1, 1.0), (2, 0, 2.0)]
        )
        assert chain.is_uniform()
        lumped, _ = lump(chain)
        assert lumped.is_uniform()

    def test_self_loop_rates_respected(self):
        # Identical exit structure but different self-loop rates: the
        # strict variant distinguishes them.
        chain = CTMC.from_transitions(
            3, [(0, 2, 1.0), (1, 2, 1.0), (0, 0, 5.0), (2, 1, 1.0)]
        )
        partition = lumping_partition(chain)
        assert not partition.same_block(0, 1)
