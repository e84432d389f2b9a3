"""Tests for Jensen uniformization and transient/steady-state analysis."""

import numpy as np
import pytest
import scipy.linalg

from repro.ctmc.model import CTMC
from repro.ctmc.uniformization import (
    steady_state_analysis,
    transient_analysis,
    uniformize,
    uniformized_jump_matrix,
)
from repro.errors import ModelError


def generator_of(chain: CTMC) -> np.ndarray:
    dense = chain.rates.toarray()
    np.fill_diagonal(dense, 0.0)
    return dense - np.diag(dense.sum(axis=1))


@pytest.fixture
def birth_death() -> CTMC:
    return CTMC.from_transitions(
        4,
        [(0, 1, 1.5), (1, 2, 1.5), (2, 3, 1.5), (1, 0, 4.0), (2, 1, 4.0), (3, 2, 4.0)],
    )


class TestUniformize:
    def test_makes_chain_uniform(self, birth_death):
        uniform = uniformize(birth_death)
        assert uniform.is_uniform()
        assert uniform.uniform_rate() == pytest.approx(5.5)

    def test_explicit_rate(self, birth_death):
        uniform = uniformize(birth_death, rate=10.0)
        assert uniform.uniform_rate() == pytest.approx(10.0)

    def test_rate_below_max_exit_rejected(self, birth_death):
        with pytest.raises(ModelError):
            uniformize(birth_death, rate=1.0)

    def test_nonpositive_rate_rejected(self, birth_death):
        with pytest.raises(ModelError):
            uniformize(birth_death, rate=0.0)

    def test_preserves_generator(self, birth_death):
        uniform = uniformize(birth_death, rate=8.0)
        np.testing.assert_allclose(
            generator_of(uniform), generator_of(birth_death), atol=1e-12
        )

    def test_already_uniform_is_fixpoint(self):
        ring = CTMC.from_transitions(2, [(0, 1, 3.0), (1, 0, 3.0)])
        again = uniformize(ring)
        np.testing.assert_allclose(again.rates.toarray(), ring.rates.toarray())

    def test_jump_matrix_is_stochastic(self, birth_death):
        p, e = uniformized_jump_matrix(birth_death)
        np.testing.assert_allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0)
        assert e == pytest.approx(5.5)


class TestTransient:
    def test_matches_matrix_exponential(self, birth_death):
        for t in (0.1, 0.7, 2.0, 10.0):
            expected = scipy.linalg.expm(generator_of(birth_death) * t)[0]
            actual = transient_analysis(birth_death, t, epsilon=1e-12).distribution
            np.testing.assert_allclose(actual, expected, atol=1e-9)

    def test_time_zero_returns_initial(self, birth_death):
        pi = transient_analysis(birth_death, 0.0).distribution
        np.testing.assert_allclose(pi, [1.0, 0.0, 0.0, 0.0])

    def test_custom_initial_distribution(self, birth_death):
        pi0 = np.array([0.5, 0.5, 0.0, 0.0])
        expected = pi0 @ scipy.linalg.expm(generator_of(birth_death) * 1.0)
        actual = transient_analysis(birth_death, 1.0, initial_distribution=pi0).distribution
        np.testing.assert_allclose(actual, expected, atol=1e-9)

    def test_self_loops_do_not_change_transients(self, birth_death):
        padded = uniformize(birth_death, rate=20.0)
        for t in (0.5, 3.0):
            np.testing.assert_allclose(
                transient_analysis(padded, t).distribution,
                transient_analysis(birth_death, t).distribution,
                atol=1e-9,
            )

    def test_distribution_sums_to_one(self, birth_death):
        pi = transient_analysis(birth_death, 5.0).distribution
        assert pi.sum() == pytest.approx(1.0, abs=1e-9)

    def test_negative_time_rejected(self, birth_death):
        with pytest.raises(ModelError):
            transient_analysis(birth_death, -1.0)

    def test_invalid_initial_distribution_rejected(self, birth_death):
        with pytest.raises(ModelError):
            transient_analysis(birth_death, 1.0, initial_distribution=np.array([1.0, 1.0, 0.0, 0.0]))

    def test_wrong_shape_initial_rejected(self, birth_death):
        with pytest.raises(ModelError):
            transient_analysis(birth_death, 1.0, initial_distribution=np.array([1.0]))


class TestSteadyState:
    def test_two_state_balance(self):
        chain = CTMC.from_transitions(2, [(0, 1, 1.0), (1, 0, 3.0)])
        pi = steady_state_analysis(chain).distribution
        np.testing.assert_allclose(pi, [0.75, 0.25])

    def test_agrees_with_long_run_transient(self, birth_death):
        pi = steady_state_analysis(birth_death).distribution
        long_run = transient_analysis(birth_death, 200.0).distribution
        np.testing.assert_allclose(pi, long_run, atol=1e-8)

    def test_reducible_chain_rejected(self):
        chain = CTMC.from_transitions(3, [(0, 1, 1.0), (1, 0, 1.0)])
        with pytest.raises(ModelError):
            steady_state_analysis(chain)

    def test_self_loops_irrelevant(self):
        plain = CTMC.from_transitions(2, [(0, 1, 1.0), (1, 0, 3.0)])
        looped = uniformize(plain, rate=9.0)
        np.testing.assert_allclose(
            steady_state_analysis(looped).distribution, steady_state_analysis(plain).distribution
        )
