"""Tests for the Fox-Glynn Poisson weighter and finder."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NumericalError
from repro.numerics.foxglynn import (
    fox_glynn,
    poisson_pmf,
    poisson_right_truncation,
)


class TestFinder:
    def test_zero_parameter_is_degenerate(self):
        fg = fox_glynn(0.0)
        assert fg.left == 0
        assert fg.right == 0
        assert fg.probability(0) == 1.0

    def test_small_parameter_left_is_zero(self):
        fg = fox_glynn(5.0, 1e-6)
        assert fg.left == 0

    def test_large_parameter_truncates_left(self):
        fg = fox_glynn(10_000.0, 1e-6)
        assert fg.left > 0
        assert fg.left < 10_000 < fg.right

    def test_right_truncation_contains_needed_mass(self):
        for lam in (0.5, 5.0, 50.0, 500.0, 5000.0):
            fg = fox_glynn(lam, 1e-6)
            tail = 1.0 - scipy.stats.poisson.cdf(fg.right, lam)
            assert tail < 1e-6

    def test_left_truncation_drops_little_mass(self):
        for lam in (50.0, 500.0, 5000.0):
            fg = fox_glynn(lam, 1e-6)
            head = scipy.stats.poisson.cdf(fg.left - 1, lam) if fg.left else 0.0
            assert head < 1e-6

    def test_window_covers_mode(self):
        for lam in (0.1, 1.0, 7.3, 123.4):
            fg = fox_glynn(lam)
            assert fg.left <= int(lam) <= fg.right

    def test_truncation_point_grows_with_lambda(self):
        ks = [poisson_right_truncation(lam) for lam in (10.0, 100.0, 1000.0)]
        assert ks == sorted(ks)
        # Asymptotically k ~ lam + O(sqrt(lam)).
        assert ks[2] < 1000 + 40 * math.sqrt(1000)


class TestWeights:
    @pytest.mark.parametrize("lam", [0.3, 1.0, 4.5, 25.0, 130.7, 4000.0])
    def test_matches_scipy_pmf(self, lam):
        fg = fox_glynn(lam, 1e-10)
        indices = np.arange(fg.left, fg.right + 1)
        expected = scipy.stats.poisson.pmf(indices, lam)
        np.testing.assert_allclose(fg.probabilities(), expected, rtol=1e-8, atol=1e-13)

    @pytest.mark.parametrize("lam", [0.5, 10.0, 300.0])
    def test_probabilities_sum_close_to_one(self, lam):
        fg = fox_glynn(lam, 1e-8)
        assert abs(fg.probabilities().sum() - 1.0) < 1e-12

    def test_probability_outside_window_is_zero(self):
        fg = fox_glynn(100.0, 1e-6)
        assert fg.probability(fg.left - 1) == 0.0
        assert fg.probability(fg.right + 1) == 0.0

    def test_len_matches_window(self):
        fg = fox_glynn(42.0)
        assert len(fg) == fg.right - fg.left + 1 == len(fg.weights)

    @given(lam=st.floats(min_value=0.01, max_value=2000.0), i=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_probability_bounded(self, lam, i):
        fg = fox_glynn(lam)
        assert 0.0 <= fg.probability(i) <= 1.0


class TestDirectPmf:
    @pytest.mark.parametrize("lam", [0.0, 0.7, 3.0, 80.0])
    def test_matches_scipy(self, lam):
        for i in (0, 1, 5, 100):
            assert poisson_pmf(i, lam) == pytest.approx(
                float(scipy.stats.poisson.pmf(i, lam)), rel=1e-10, abs=1e-300
            )

    def test_negative_index_is_zero(self):
        assert poisson_pmf(-1, 3.0) == 0.0


class TestErrors:
    def test_negative_lambda_rejected(self):
        with pytest.raises(NumericalError):
            fox_glynn(-1.0)

    def test_nan_lambda_rejected(self):
        with pytest.raises(NumericalError):
            fox_glynn(float("nan"))

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
    def test_bad_epsilon_rejected(self, eps):
        with pytest.raises(NumericalError):
            fox_glynn(10.0, eps)

    def test_window_collapsed_by_rounding_rejected(self):
        """At lambda = 1e300 the tail offset is far below one unit in the
        last place of the mode, so the window would round to the single
        index ``left == right``; a sweep over it would never end."""
        with pytest.raises(NumericalError, match="too large"):
            fox_glynn(1e300, 1e-6)


class TestExtremeParameters:
    def test_very_large_lambda(self):
        """The paper's longest horizon at large N gives lambda ~ 7.8e4;
        stress an order of magnitude beyond."""
        lam = 1.0e6
        fg = fox_glynn(lam, 1e-6)
        assert fg.left < lam < fg.right
        assert abs(fg.probabilities().sum() - 1.0) < 1e-10
        # Window width is O(sqrt(lambda)), not O(lambda).
        assert (fg.right - fg.left) < 40 * math.sqrt(lam)

    def test_probabilities_positive_across_window(self):
        fg = fox_glynn(50_000.0, 1e-6)
        assert (fg.probabilities() > 0.0).all()

    def test_tiny_epsilon(self):
        fg = fox_glynn(100.0, 1e-14)
        assert abs(fg.probabilities().sum() - 1.0) < 1e-12
