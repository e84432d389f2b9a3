"""Tests for phase-type distributions."""

import math

import numpy as np
import pytest
import scipy.stats

from repro.ctmc.phase_type import PhaseType
from repro.errors import ModelError


class TestExponential:
    def test_cdf_matches_closed_form(self):
        ph = PhaseType.exponential(2.0)
        for x in (0.0, 0.3, 1.0, 4.0):
            assert ph.cdf(x) == pytest.approx(1.0 - math.exp(-2.0 * x), abs=1e-12)

    def test_pdf_matches_closed_form(self):
        ph = PhaseType.exponential(2.0)
        for x in (0.1, 1.0):
            assert ph.pdf(x) == pytest.approx(2.0 * math.exp(-2.0 * x), abs=1e-12)

    def test_moments(self):
        ph = PhaseType.exponential(4.0)
        assert ph.mean() == pytest.approx(0.25)
        assert ph.variance() == pytest.approx(0.0625)

    def test_negative_argument(self):
        ph = PhaseType.exponential(1.0)
        assert ph.cdf(-1.0) == 0.0
        assert ph.pdf(-1.0) == 0.0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ModelError):
            PhaseType.exponential(0.0)


class TestErlang:
    def test_cdf_matches_gamma(self):
        ph = PhaseType.erlang(3, 2.0)
        gamma = scipy.stats.gamma(a=3, scale=0.5)
        for x in (0.2, 1.0, 2.5):
            assert ph.cdf(x) == pytest.approx(float(gamma.cdf(x)), abs=1e-10)

    def test_moments(self):
        ph = PhaseType.erlang(4, 2.0)
        assert ph.mean() == pytest.approx(2.0)
        assert ph.variance() == pytest.approx(1.0)

    def test_num_phases(self):
        assert PhaseType.erlang(5, 1.0).num_phases == 5

    def test_invalid_parameters(self):
        with pytest.raises(ModelError):
            PhaseType.erlang(0, 1.0)
        with pytest.raises(ModelError):
            PhaseType.erlang(2, -1.0)


class TestHypoexponential:
    def test_mean_is_sum_of_stage_means(self):
        ph = PhaseType.hypoexponential([1.0, 2.0, 4.0])
        assert ph.mean() == pytest.approx(1.0 + 0.5 + 0.25)

    def test_reduces_to_exponential(self):
        ph = PhaseType.hypoexponential([3.0])
        assert ph.cdf(0.7) == pytest.approx(1.0 - math.exp(-2.1), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            PhaseType.hypoexponential([])


class TestCoxian:
    def test_degenerate_is_exponential(self):
        ph = PhaseType.coxian([2.0], [1.0])
        assert ph.cdf(1.0) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-12)

    def test_mean_two_stage(self):
        # Stage 1 rate 2, continues w.p. 0.5 into stage 2 rate 1:
        # mean = 1/2 + 0.5 * 1.
        ph = PhaseType.coxian([2.0, 1.0], [0.5, 1.0])
        assert ph.mean() == pytest.approx(0.5 + 0.5 * 1.0)

    def test_equal_stage_rates(self):
        """The first stage's exit rate is summed from two branches and
        lands one ulp above the second's; the cdf and pdf must still
        match the closed form of the Exp / Erlang-2 mixture."""
        rate, done, x = 1.78125, 0.1, 2.0
        ph = PhaseType.coxian([rate, rate], [done, 1.0])
        decay = math.exp(-rate * x)
        survival = decay * (1.0 + (1.0 - done) * rate * x)
        density = decay * rate * (done + (1.0 - done) * rate * x)
        assert ph.cdf(x) == pytest.approx(1.0 - survival, abs=1e-12)
        assert ph.pdf(x) == pytest.approx(density, abs=1e-12)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ModelError):
            PhaseType.coxian([1.0, 2.0], [1.0])

    def test_final_stage_must_complete(self):
        with pytest.raises(ModelError):
            PhaseType.coxian([1.0, 2.0], [0.5, 0.5])

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ModelError):
            PhaseType.coxian([1.0], [1.5])


class TestUniformization:
    def test_uniformized_preserves_distribution(self):
        ph = PhaseType.erlang(3, 2.0)
        uniformized = ph.uniformized()
        for x in (0.3, 1.0, 3.0):
            assert uniformized.cdf(x) == pytest.approx(ph.cdf(x), abs=1e-10)
        assert uniformized.mean() == pytest.approx(ph.mean(), abs=1e-10)

    def test_uniformized_has_uniform_rate(self):
        ph = PhaseType.hypoexponential([1.0, 5.0]).uniformized()
        assert ph.uniform_rate() == pytest.approx(5.0)

    def test_uniformized_absorbing_state_self_loops(self):
        ph = PhaseType.exponential(2.0).uniformized()
        assert ph.chain.rate(ph.absorbing, ph.absorbing) == pytest.approx(2.0)

    def test_explicit_rate(self):
        ph = PhaseType.exponential(1.0).uniformized(rate=4.0)
        assert ph.uniform_rate() == pytest.approx(4.0)
        assert ph.cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)


class TestStructure:
    def test_absorbing_with_real_exit_rejected(self):
        from repro.ctmc.model import CTMC

        chain = CTMC.from_transitions(2, [(0, 1, 1.0), (1, 0, 1.0)])
        with pytest.raises(ModelError):
            PhaseType(chain=chain, initial=0, absorbing=1)

    def test_initial_equals_absorbing_rejected(self):
        from repro.ctmc.model import CTMC

        chain = CTMC.from_transitions(2, [(0, 1, 1.0)])
        with pytest.raises(ModelError):
            PhaseType(chain=chain, initial=1, absorbing=1)

    def test_moment_order_validated(self):
        with pytest.raises(ModelError):
            PhaseType.exponential(1.0).moment(0)


class TestSampling:
    def test_sample_mean_matches(self, rng):
        ph = PhaseType.erlang(2, 2.0)
        samples = ph.sample(rng, size=4000)
        assert samples.mean() == pytest.approx(ph.mean(), rel=0.1)

    def test_samples_positive(self, rng):
        samples = PhaseType.exponential(1.0).sample(rng, size=100)
        assert (samples > 0.0).all()
