"""Identity and orthogonality checks against exact oracles."""

import numpy as np
import pytest

from cdnn import theory
from cdnn.data import named_dgp, oracle_of, random_dgp
from cdnn.errors import ConfigError, InvalidPerturbationError
from cdnn.theory import (
    NuisanceOracle,
    ScoreInput,
    constant_perturbation,
    gateaux_derivative,
    marginal_outcome,
    non_orthogonal_control,
    residualized_h,
    score_psi,
    standard_perturbations,
)


def flat_oracle(theta=1.0, e=0.25, base=0.0, sigma=0.0):
    """Covariate-free oracle: f(t, x) = base + t*theta, e0 = e."""
    return NuisanceOracle(
        g0=lambda x: base + e * theta,
        e0=lambda x: e,
        theta0=lambda x: theta,
        f=lambda t, x: base + t * theta,
        noise_sigma=sigma,
    )


X0 = np.zeros(1)


class TestMarginalOutcome:
    def test_degenerate_mixture(self):
        # e0 -> 0 collapses the mixture onto the control arm
        oracle = flat_oracle(theta=3.0, e=1e-12, base=1.0)
        assert marginal_outcome(oracle, X0) == pytest.approx(1.0, abs=1e-11)

    def test_half_mixture_arithmetic(self):
        oracle = NuisanceOracle(
            g0=lambda x: 1.5,
            e0=lambda x: 0.5,
            theta0=lambda x: 1.0,
            f=lambda t, x: 2.0 if t == 1 else 1.0,
        )
        assert marginal_outcome(oracle, X0) == 1.5

    def test_monte_carlo_mean_converges(self):
        oracle = flat_oracle(theta=2.0, e=0.35, base=1.0, sigma=1.0)
        rng = np.random.default_rng(0)
        _, y = oracle.sample_observations(X0, 100_000, rng)
        se = y.std(ddof=1) / np.sqrt(len(y))
        assert abs(y.mean() - marginal_outcome(oracle, X0)) <= 3.0 * se


class TestResidualizedH:
    def test_quarter_propensity_values(self):
        oracle = flat_oracle(theta=1.0, e=0.25)
        assert residualized_h(oracle, 1, X0)[1] == pytest.approx(0.75, abs=1e-15)
        assert residualized_h(oracle, 0, X0)[1] == pytest.approx(-0.25, abs=1e-15)

    def test_arm_difference_recovers_effect(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            spec = random_dgp(rng)
            oracle = oracle_of(spec)
            x = rng.standard_normal(spec.d)
            h1, _ = residualized_h(oracle, 1, x)
            h0, _ = residualized_h(oracle, 0, x)
            assert h1 - h0 == pytest.approx(oracle.theta0(x), rel=1e-12, abs=1e-12)

    def test_zero_effect_means_zero_h(self):
        oracle = flat_oracle(theta=0.0, e=0.7, base=2.0)
        for t in (0, 1):
            direct, factored = residualized_h(oracle, t, X0)
            assert direct == 0.0
            assert factored == 0.0

    def test_identity_over_many_random_oracles(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            spec = random_dgp(rng)
            oracle = oracle_of(spec)
            x = rng.standard_normal(spec.d)
            t = int(rng.integers(0, 2))
            direct, factored = residualized_h(oracle, t, x)
            assert abs(direct - factored) <= 1e-12

    def test_an_inconsistent_oracle_gives_both_forms(self):
        broken = NuisanceOracle(
            g0=lambda x: 0.5,
            e0=lambda x: 0.5,
            theta0=lambda x: 2.0,  # inconsistent: f(1,x) - f(0,x) is 1
            f=lambda t, x: float(t),
        )
        # computed, not judged: bench.verify_lemma weighs the gap
        assert residualized_h(broken, 1, X0) == (0.5, 1.0)


class TestScorePsi:
    def test_zero_at_noiseless_truth(self):
        # dyadic parameter values keep the float cancellation exact
        oracle = flat_oracle(theta=2.0, e=0.5, base=1.0)
        for t in (0, 1):
            y = oracle.g0(X0) + oracle.theta0(X0) * (t - oracle.e0(X0))
            w = ScoreInput(y=y, t=t, x=X0)
            assert score_psi(w, 2.0, oracle.g0(X0), 0.5) == 0.0
        # non-dyadic values cancel to roundoff
        oracle = flat_oracle(theta=2.0, e=0.3, base=1.0)
        for t in (0, 1):
            y = oracle.g0(X0) + oracle.theta0(X0) * (t - oracle.e0(X0))
            w = ScoreInput(y=y, t=t, x=X0)
            assert score_psi(w, 2.0, oracle.g0(X0), 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_hand_arithmetic(self):
        w = ScoreInput(y=3.0, t=1, x=X0)
        assert score_psi(w, theta=2.0, g=1.0, e=0.5) == 0.5

    def test_moment_condition_monte_carlo(self):
        oracle = flat_oracle(theta=1.5, e=0.4, base=0.5, sigma=1.0)
        rng = np.random.default_rng(5)
        t, y = oracle.sample_observations(X0, 100_000, rng)
        resid = t - oracle.e0(X0)
        psi = (y - oracle.g0(X0) - oracle.theta0(X0) * resid) * resid
        se = psi.std(ddof=1) / np.sqrt(len(psi))
        assert abs(psi.mean()) <= 3.0 * se

    def test_propensity_bounds_enforced(self):
        w = ScoreInput(y=1.0, t=0, x=X0)
        with pytest.raises(ConfigError):
            score_psi(w, 1.0, 0.0, 1.0)


class TestGateauxDerivative:
    oracle = flat_oracle(theta=1.0, e=0.4, base=1.0, sigma=0.5)

    def test_zero_perturbation_is_exactly_zero_both_methods(self):
        pert = constant_perturbation(0.0, 0.0)
        for method in ("finite_difference", "analytic"):
            estimate, stderr = gateaux_derivative(self.oracle, pert, X0, method=method)
            assert estimate == 0.0

    def test_analytic_form_is_exactly_zero(self):
        for pert in standard_perturbations(1):
            estimate, stderr = gateaux_derivative(self.oracle, pert, X0, method="analytic")
            assert estimate == 0.0
            assert stderr == 0.0

    def test_finite_difference_within_monte_carlo_error(self):
        for k, pert in enumerate(standard_perturbations(1)):
            estimate, stderr = gateaux_derivative(self.oracle, pert, X0, seed=k)
            assert abs(estimate) <= 3.0 * stderr

    def test_step_size_insensitivity(self, monkeypatch):
        # central differencing is exact for the quadratic-in-tau score, so
        # the estimate barely moves across two orders of magnitude of step
        pert = constant_perturbation(1.0, 0.05)
        est1, _ = gateaux_derivative(self.oracle, pert, X0, seed=0)  # step 1e-4
        monkeypatch.setattr(theory, "GATEAUX_STEP", 1e-2)
        est2, _ = gateaux_derivative(self.oracle, pert, X0, seed=0)
        assert est1 == pytest.approx(est2, abs=1e-8)

    def test_draw_count_is_read_when_called(self, monkeypatch):
        # the Monte-Carlo stderr shrinks as 1/sqrt(MC_SAMPLES)
        pert = constant_perturbation(1.0, 0.05)
        stderrs = []
        for n in (10_000, 40_000):
            monkeypatch.setattr(theory, "MC_SAMPLES", n)
            stderrs.append(gateaux_derivative(self.oracle, pert, X0, seed=0)[1])
        assert stderrs[0] / stderrs[1] == pytest.approx(2.0, rel=0.05)

    def test_perturbation_leaving_unit_interval_rejected(self):
        pert = constant_perturbation(0.0, 0.9)  # e = 0.4 + 0.9 > 1 - guard
        with pytest.raises(InvalidPerturbationError):
            gateaux_derivative(self.oracle, pert, X0)



class TestNonOrthogonalControl:
    def test_constant_shift_gives_minus_c_times_propensity(self, monkeypatch):
        monkeypatch.setattr(theory, "MC_SAMPLES", 200_000)
        oracle = flat_oracle(theta=1.0, e=0.4, base=1.0, sigma=0.5)
        estimate, stderr = non_orthogonal_control(oracle, constant_perturbation(1.0), X0, seed=1)
        # analytic expansion of the naive-score derivative: -c * e0(x)
        assert estimate == pytest.approx(-0.4, abs=4.0 * stderr * 0.4 / 0.4 + 0.01)
        assert abs(estimate) > 3.0 * stderr

    def test_half_propensity_case(self, monkeypatch):
        monkeypatch.setattr(theory, "MC_SAMPLES", 200_000)
        oracle = flat_oracle(theta=1.0, e=0.5, base=0.0, sigma=0.2)
        estimate, _ = non_orthogonal_control(oracle, constant_perturbation(1.0), X0, seed=2)
        assert estimate == pytest.approx(-0.5, abs=0.01)

    def test_zero_perturbation_gives_zero(self):
        oracle = flat_oracle(theta=1.0, e=0.5, sigma=0.3)
        estimate, _ = non_orthogonal_control(
            oracle, constant_perturbation(0.0), X0, seed=3
        )
        assert estimate == 0.0


class TestOracleValidation:
    def test_consistency_check_passes_for_generated_oracles(self, assert_oracle_consistent):
        spec = named_dgp("confound-linear", seed=0)
        oracle = oracle_of(spec)
        probes = np.random.default_rng(0).standard_normal((50, spec.d))
        assert_oracle_consistent(oracle, probes)

    def test_score_input_validation(self):
        with pytest.raises(ConfigError):
            ScoreInput(y=float("inf"), t=1, x=X0)
        with pytest.raises(ConfigError):
            ScoreInput(y=0.0, t=2, x=X0)

    @pytest.mark.parametrize("y", ["a", None, [1.0]], ids=["string", "none", "list"])
    def test_an_outcome_that_is_no_number_is_a_config_error(self, y):
        with pytest.raises(ConfigError, match="^outcome must be a finite number, got "):
            ScoreInput(y, 0, X0)
