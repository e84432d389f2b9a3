"""Numerical-health certificates: soundness of the certified bound.

The load-bearing property: for every Poisson-truncated analysis, the
observed error against a brute-force reference solution must stay below
the certificate's ``error_bound``.  References are computed two ways --
the same algorithm at a far tighter epsilon (truncation error shrinks
with epsilon, so the tight solve is a valid oracle for the loose one),
and, for the transient path, ``scipy.linalg.expm`` on the generator
(an entirely independent algorithm).
"""

import math

import numpy as np
import pytest

from repro.core.reachability import timed_reachability
from repro.core.until import timed_until as ctmdp_timed_until
from repro.ctmc.reachability import PreparedCTMCReachability
from repro.ctmc.uniformization import transient_analysis
from repro.engine import Query, run_batch
from repro.logic import check
from repro.models import ftwc_direct
from repro.obs import (
    MetricStore,
    NumericalCertificate,
    certificate_from_foxglynn,
    health_summary,
    poisson_tail_mass,
    record_certificate,
)
from repro.numerics.foxglynn import fox_glynn

REFERENCE_EPSILON = 1e-13


class TestBoundAgainstReference:
    """bound >= observed error on the FTWC family, both model kinds."""

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-6, 1e-9])
    @pytest.mark.parametrize("t", [10.0, 100.0])
    def test_ctmdp_reachability_bound_holds(self, t, epsilon):
        model = ftwc_direct.build_ctmdp(2)
        result = timed_reachability(model.ctmdp, model.goal_mask, t, epsilon=epsilon)
        reference = timed_reachability(
            model.ctmdp, model.goal_mask, t, epsilon=REFERENCE_EPSILON
        )
        certificate = result.certificate
        assert certificate is not None
        assert certificate.algorithm == "ctmdp.reachability"
        assert certificate.healthy
        observed = float(np.max(np.abs(result.values - reference.values)))
        assert observed <= certificate.error_bound
        # The a-posteriori bound must not be vacuous: it stays within the
        # a-priori admissible epsilon (plus floating-point noise).
        assert certificate.error_bound <= epsilon + 1e-9

    @pytest.mark.parametrize("objective", ["max", "min"])
    def test_ctmdp_until_bound_holds(self, objective):
        model = ftwc_direct.build_ctmdp(1)
        safe = np.ones(model.ctmdp.num_states, dtype=bool)
        result = ctmdp_timed_until(
            model.ctmdp, safe, model.goal_mask, 100.0, epsilon=1e-6,
            objective=objective,
        )
        reference = ctmdp_timed_until(
            model.ctmdp, safe, model.goal_mask, 100.0, epsilon=REFERENCE_EPSILON,
            objective=objective,
        )
        certificate = result.certificate
        assert certificate is not None and certificate.algorithm == "ctmdp.until"
        assert certificate.healthy
        observed = float(np.max(np.abs(result.values - reference.values)))
        assert observed <= certificate.error_bound

    @pytest.mark.parametrize("t", [10.0, 250.0])
    def test_ctmc_reachability_bound_holds(self, t):
        chain, _configs, goal = ftwc_direct.build_ctmc(1)
        result = PreparedCTMCReachability(chain, goal).solve(t, epsilon=1e-6)
        certificate = result.certificate
        reference = PreparedCTMCReachability(chain, goal).solve(
            t, epsilon=REFERENCE_EPSILON
        )
        assert certificate.algorithm == "ctmc.reachability"
        assert certificate.healthy
        observed = float(np.max(np.abs(result.values - reference.values)))
        assert observed <= certificate.error_bound

    def test_transient_bound_holds_against_expm(self):
        from scipy.linalg import expm

        chain, _configs, _goal = ftwc_direct.build_ctmc(1)
        result = transient_analysis(chain, 25.0, epsilon=1e-6)
        certificate = result.certificate
        assert certificate.algorithm == "ctmc.transient"
        assert certificate.healthy

        dense = chain.rates.toarray()
        np.fill_diagonal(dense, 0.0)
        generator = dense - np.diag(dense.sum(axis=1))
        pi0 = np.zeros(chain.num_states)
        pi0[chain.initial] = 1.0
        reference = pi0 @ expm(generator * 25.0)
        observed = float(np.max(np.abs(result.distribution - reference)))
        # expm carries its own rounding; grant it machine-level slack.
        assert observed <= certificate.error_bound + 1e-12

    def test_transient_t_zero_is_exact(self):
        chain, _configs, _goal = ftwc_direct.build_ctmc(1)
        result = transient_analysis(chain, 0.0, epsilon=1e-6)
        assert result.certificate.error_bound == 0.0
        assert result.certificate.lam == 0.0
        assert result.distribution[chain.initial] == 1.0


class TestCertificateMechanics:
    def test_trivial_certificate_is_healthy_and_exact(self):
        certificate = NumericalCertificate.trivial("ctmdp.reachability", 1e-6)
        assert certificate.healthy
        assert certificate.status == "ok"
        assert certificate.error_bound == 0.0

    def test_window_matches_foxglynn(self):
        fg = fox_glynn(200.0, 1e-6)
        certificate = certificate_from_foxglynn(fg, 1e-6, "ctmdp.reachability")
        assert (certificate.left, certificate.right) == (fg.left, fg.right)
        assert certificate.lam == fg.lam
        assert certificate.dropped_mass == poisson_tail_mass(200.0, fg.left, fg.right)
        assert certificate.error_bound >= 2.0 * certificate.dropped_mass

    def test_dict_round_trip(self):
        fg = fox_glynn(50.0, 1e-8)
        certificate = certificate_from_foxglynn(
            fg, 1e-8, "ctmc.reachability", sweep_residual=1e-15
        )
        rebuilt = NumericalCertificate.from_dict(certificate.as_dict())
        assert rebuilt == certificate
        assert certificate.as_dict()["status"] == "ok"

    def test_degraded_when_dropped_mass_exceeds_epsilon(self):
        certificate = NumericalCertificate(
            algorithm="ctmdp.reachability", lam=10.0, epsilon=1e-9,
            left=0, right=5, dropped_mass=1e-3, weight_sum_deficit=0.0,
            underflow_count=0, overflow_count=0, sweep_residual=0.0,
            fp_slack=0.0, error_bound=2e-3,
        )
        assert not certificate.healthy
        assert certificate.status == "degraded"
        assert "degraded" in certificate.describe()

    def test_record_and_health_summary(self):
        metrics = MetricStore()
        fg = fox_glynn(100.0, 1e-6)
        record_certificate(metrics, certificate_from_foxglynn(fg, 1e-6, "ctmdp.reachability"))
        summary = health_summary(metrics)
        assert summary["status"] == "ok"
        assert summary["certificates"]["total"] == 1
        assert summary["certificates"]["degraded"] == 0
        assert summary["certificates"]["last_error_bound"] > 0.0

        degraded = NumericalCertificate(
            algorithm="ctmdp.reachability", lam=10.0, epsilon=1e-9,
            left=0, right=5, dropped_mass=1e-3, weight_sum_deficit=0.0,
            underflow_count=2, overflow_count=0, sweep_residual=0.0,
            fp_slack=0.0, error_bound=2e-3,
        )
        record_certificate(metrics, degraded)
        summary = health_summary(metrics)
        assert summary["status"] == "degraded"
        assert summary["certificates"]["degraded"] == 1
        assert summary["certificates"]["underflows"] == 2
        # The worst bound is kept by the _max gauge merge rule.
        assert summary["certificates"]["max_error_bound"] == pytest.approx(2e-3)

    def test_poisson_tail_mass_degenerate(self):
        assert poisson_tail_mass(0.0, 0, 0) == 0.0
        assert poisson_tail_mass(10.0, 0, 10_000) == pytest.approx(0.0, abs=1e-15)
        assert math.isclose(
            poisson_tail_mass(10.0, 0, 0), 1.0 - math.exp(-10.0), rel_tol=1e-12
        )


def _stats_tail_mass(lam, left, right):
    """The tail mass through ``scipy.stats.poisson``, the test-only oracle."""
    from scipy.stats import poisson

    below = float(poisson.cdf(left - 1, lam)) if left > 0 else 0.0
    above = float(poisson.sf(right, lam))
    return max(0.0, below) + max(0.0, above)


class TestPoissonTailOracle:
    """``poisson_tail_mass`` equals ``scipy.stats.poisson`` bit for bit."""

    @pytest.mark.parametrize("epsilon", [1e-14, 1e-10, 1e-6, 1e-3])
    @pytest.mark.parametrize("lam", [1e-3, 0.5, 2.0, 10.0, 200.0, 5e3, 1e5])
    def test_foxglynn_windows(self, lam, epsilon):
        fg = fox_glynn(lam, epsilon)
        assert poisson_tail_mass(lam, fg.left, fg.right) == _stats_tail_mass(
            lam, fg.left, fg.right
        )

    @pytest.mark.parametrize(
        ("lam", "left", "right"),
        [(0.5, 0, 0), (0.5, 1, 10), (10.0, 1, 36), (200.0, 1, 298), (200.0, 0, 298)],
    )
    def test_windows_starting_at_zero_and_one(self, lam, left, right):
        assert poisson_tail_mass(lam, left, right) == _stats_tail_mass(lam, left, right)


class TestCertificatesInEngineAndLogic:
    def test_batch_results_carry_certificates(self):
        batch = run_batch(
            [
                Query(model={"family": "ftwc", "n": 1}, t=10.0),
                Query(model={"family": "ftwc-ctmc", "n": 1}, t=10.0),
                Query(model={"family": "ftwc", "n": 1}, t=0.0),
            ]
        )
        kinds = [result.certificate.algorithm for result in batch.results]
        assert kinds == ["ctmdp.reachability", "ctmc.reachability", "ctmdp.reachability"]
        assert all(result.certificate.healthy for result in batch.results)
        document = batch.as_dict()
        assert document["results"][0]["certificate"]["status"] == "ok"
        assert document["metrics"]["counters"]["certificates_total"] == 3
        # The trivial t=0 query certifies an exact answer.
        assert batch.results[2].certificate.error_bound == 0.0

    def test_failed_query_has_no_certificate(self):
        batch = run_batch([Query(model={"family": "ftwc", "n": 1}, t=10.0, goal="nope")])
        assert batch.results[0].certificate is None
        assert batch.as_dict()["results"][0]["certificate"] is None

    def test_check_result_carries_certificate(self):
        model = ftwc_direct.build_ctmdp(1)
        labels = {"no_premium": model.goal_mask}
        result = check('Pmax=? [ F<=100 "no_premium" ]', model.ctmdp, labels)
        assert result.certificate is not None
        assert result.certificate.algorithm == "ctmdp.reachability"
        assert result.certificate.healthy

    def test_check_ctmc_until_carries_certificate(self):
        chain, _configs, goal = ftwc_direct.build_ctmc(1)
        labels = {"goal": goal, "safe": np.ones(chain.num_states, dtype=bool)}
        result = check('P=? [ "safe" U<=50 "goal" ]', chain, labels)
        assert result.certificate is not None
        assert result.certificate.algorithm == "ctmc.reachability"

    def test_steady_state_carries_certificate(self):
        # Historically certificate-less (a ROADMAP open item); the
        # steady-state solver now certifies its balance residual.
        chain, _configs, goal = ftwc_direct.build_ctmc(1)
        result = check('S=? [ "goal" ]', chain, {"goal": goal})
        assert result.certificate is not None
        assert result.certificate.algorithm == "ctmc.steady_state"
        assert result.certificate.healthy
        assert result.certificate.error_bound < 1e-9

    def test_expected_time_carries_certificate(self):
        model = ftwc_direct.build_ctmdp(1)
        labels = {"no_premium": model.goal_mask}
        result = check('Tmin=? [ F "no_premium" ]', model.ctmdp, labels)
        assert result.certificate is not None
        assert result.certificate.algorithm == "ctmdp.expected_time"
        assert result.certificate.healthy
