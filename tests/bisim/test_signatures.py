"""Regression tests for the float-robust rate signatures.

The original ``_rate_signature`` summed Markov contributions in list
order and quantised with ``round(rate, 12)`` -- an *absolute* decimal
grid.  Both choices are wrong in well-known ways:

* plain left-to-right addition is order-dependent, so two states with
  the same multiset of rates could land on different sums;
* ``round(x, 12)`` stops distinguishing anything once ``x`` is large,
  and two equal-up-to-ulp sums straddling a decimal rounding boundary
  quantise apart, splitting blocks Definition 6 says must merge.

These tests pin the shared replacement in ``repro.bisim.signatures``:
sorted ``fsum`` accumulation plus relative (mantissa-grid) quantisation,
with the scalar and vectorised paths bitwise identical.
"""

import math
import random

import numpy as np
import pytest

from repro.bisim.branching import branching_bisimulation
from repro.bisim.signatures import (
    quantize_rate,
    quantize_rates,
    rate_signature,
    stable_rate_sum,
)
from repro.bisim.strong import strong_bisimulation
from repro.imc.model import IMC


class TestQuantizeRate:
    def test_merges_float_noise(self):
        assert quantize_rate(0.1 + 0.2) == quantize_rate(0.3)

    def test_merges_float_noise_at_large_magnitude(self):
        # round(x, 12) genuinely fails here: the absolute grid is finer
        # than an ulp at this magnitude, so the two sums quantise apart.
        assert round(10000.1 + 0.2, 12) != round(10000.3, 12)
        assert quantize_rate(10000.1 + 0.2) == quantize_rate(10000.3)

    def test_merges_float_noise_at_tiny_magnitude(self):
        a = 1e-12 + 2e-12
        assert quantize_rate(a) == quantize_rate(3e-12)

    def test_keeps_genuinely_different_rates_apart(self):
        assert quantize_rate(1.0) != quantize_rate(1.0 + 1e-6)
        assert quantize_rate(2.0) != quantize_rate(2.5)

    def test_zero_and_sign(self):
        assert quantize_rate(0.0) == 0.0
        assert quantize_rate(-0.3) == -quantize_rate(0.3)

    def test_scalar_and_vector_paths_bitwise_identical(self):
        values = [
            0.3,
            0.1 + 0.2,
            1e-12,
            0.5 - 1e-12,
            0.5 + 1e-12,
            1.0 / 3.0,
            0.9999999999999999,
            10000.1 + 0.2,
            4.0,
            2.5e300,
            7e-300,
        ]
        vectorised = quantize_rates(np.array(values))
        for value, vec in zip(values, vectorised):
            assert quantize_rate(value) == vec  # exact, not approx

    def test_vector_path_random_fuzz(self):
        rng = random.Random(1207)
        values = np.array(
            [math.ldexp(rng.random() + 0.5, rng.randint(-80, 80)) for _ in range(500)]
        )
        np.testing.assert_array_equal(
            quantize_rates(values), [quantize_rate(v) for v in values]
        )


class TestStableRateSum:
    def test_order_independent(self):
        contributions = [0.1, 0.2, 0.3, 1e-9, 4.0, 0.7]
        reference = stable_rate_sum(contributions)
        rng = random.Random(42)
        for _ in range(20):
            shuffled = contributions[:]
            rng.shuffle(shuffled)
            assert stable_rate_sum(shuffled) == reference

    def test_exact_where_fsum_is(self):
        # fsum is exactly correct; naive addition is not.
        assert stable_rate_sum([0.1] * 10) == 1.0


class TestRateSignature:
    def test_groups_by_block(self):
        sig = rate_signature([(0, 1.0), (1, 2.0), (0, 0.5)])
        assert sig == frozenset({(0, quantize_rate(1.5)), (1, quantize_rate(2.0))})

    def test_order_of_contributions_irrelevant(self):
        pairs = [(0, 0.1), (1, 0.7), (0, 0.2), (1, 0.3), (0, 0.3)]
        rng = random.Random(9)
        reference = rate_signature(pairs)
        for _ in range(10):
            shuffled = pairs[:]
            rng.shuffle(shuffled)
            assert rate_signature(shuffled) == reference

    def test_sum_straddling_decimal_boundary(self):
        # 0.1 + 0.2 == 0.30000000000000004 != 0.3: the same cumulative
        # rate written as one transition or as two must sign equal.
        assert rate_signature([(0, 0.1), (0, 0.2)]) == rate_signature([(0, 0.3)])


class TestBisimulationRegressions:
    """End-to-end: equal cumulative rates merge despite float noise."""

    def test_branching_merges_split_vs_single_rate(self):
        # States 1 and 2 both move to block {3} with total rate 0.3,
        # once as 0.1 + 0.2 and once as a single 0.3 transition.
        imc = IMC(
            num_states=4,
            markov=[(1, 0.1, 3), (1, 0.2, 3), (2, 0.3, 3), (3, 0.3, 3)],
            interactive=[(0, "a", 1), (0, "a", 2)],
        )
        partition = branching_bisimulation(imc)
        assert partition.same_block(1, 2)

    def test_branching_merges_at_large_magnitude(self):
        imc = IMC(
            num_states=3,
            markov=[(0, 10000.1, 2), (0, 0.2, 2), (1, 10000.3, 2), (2, 1.0, 2)],
        )
        assert branching_bisimulation(imc).same_block(0, 1)

    def test_strong_uses_shared_quantisation(self):
        imc = IMC(
            num_states=3,
            markov=[(0, 0.1, 2), (0, 0.2, 2), (1, 0.3, 2), (2, 1.0, 2)],
        )
        assert strong_bisimulation(imc).same_block(0, 1)

    def test_genuinely_different_rates_still_split(self):
        imc = IMC(num_states=2, markov=[(0, 1.0, 0), (1, 2.0, 1)])
        assert branching_bisimulation(imc).num_blocks == 2
