"""Executable identities behind residual-based effect estimation.

The central facts, all checkable numerically against an exact oracle:

* mixture identity: the marginal outcome mean satisfies
  g0(x) = e0(x) f(1,x) + (1-e0(x)) f(0,x);
* residual decomposition: h(t,x) = f(t,x) - g0(x) factors as
  theta0(x) * (t - e0(x)), so h(1,x) - h(0,x) = theta0(x);
* the score psi = (y - g - theta*(t-e)) * (t-e) has conditional mean zero at
  the truth and is locally orthogonal: its Gateaux derivative along any
  nuisance perturbation [delta_g, delta_e] vanishes at the truth.

The Gateaux derivative is estimated two ways: a closed form whose expectation
factors are exact oracle quantities (and therefore vanish identically), and a
Monte-Carlo central difference in the perturbation scale using common random
numbers. A deliberately non-orthogonal score is included as a negative
control so the checker's power is itself testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, InvalidPerturbationError
from .errors import _check_seed, _is_finite_number

PROPENSITY_GUARD = 1e-3
MC_SAMPLES = 100_000  # draws per finite-difference probe
GATEAUX_STEP = 1e-4  # perturbation scale of the central difference


@dataclass(frozen=True)
class NuisanceOracle:
    """Exact nuisance functions of a known data-generating process.

    g0: marginal outcome mean given x; e0: propensity; theta0: per-x effect;
    f(t, x): arm-conditional outcome mean; noise_sigma: outcome noise scale.
    """

    g0: Callable
    e0: Callable
    theta0: Callable
    f: Callable
    noise_sigma: float = 0.0

    def sample_observations(self, x, n, rng):
        """Draw (T, Y) from the process at a fixed covariate point."""
        e = self.e0(x)
        t = (rng.random(n) < e).astype(float)
        y = np.where(t == 1.0, self.f(1, x), self.f(0, x))
        if self.noise_sigma > 0:
            y = y + self.noise_sigma * rng.standard_normal(n)
        return t, y


@dataclass(frozen=True)
class ScoreInput:
    """One observation (y, t, x) fed to the score function."""

    y: float
    t: int
    x: np.ndarray

    def __post_init__(self):
        if not _is_finite_number(self.y):
            raise ConfigError(f"outcome must be a finite number, got {self.y!r}")
        if self.t not in (0, 1):
            raise ConfigError("treatment must be 0 or 1")


@dataclass(frozen=True)
class NuisancePerturbation:
    """Directions (delta_g, delta_e) added to the true nuisances."""

    delta_g: Callable
    delta_e: Callable
    label: str = ""


def marginal_outcome(oracle, x):
    """Propensity mixture of the arm means; equals g0(x)."""
    e = oracle.e0(x)
    return e * oracle.f(1, x) + (1.0 - e) * oracle.f(0, x)


def residualized_h(oracle, t, x):
    """h(t,x) computed both ways, as (direct, factored): direct is
    f(t,x) - g0(x), factored is theta0(x) * (t - e0(x)). Judges nothing:
    bench.verify_lemma weighs their gap against its bar."""
    direct = oracle.f(t, x) - oracle.g0(x)
    factored = oracle.theta0(x) * (t - oracle.e0(x))
    return direct, factored


def _orthogonal_score(t, y, g, e, theta):
    """(y - g - theta*(t - e)) * (t - e), for scalars or arrays of draws."""
    resid_t = t - e
    return (y - g - theta * resid_t) * resid_t


def score_psi(w, theta, g, e):
    """Orthogonal score (y - g - theta*(t - e)) * (t - e)."""
    if not 0.0 < e < 1.0:
        raise ConfigError("propensity value must lie in (0, 1)")
    return _orthogonal_score(w.t, w.y, g, e, theta)


def _perturbed_nuisances(oracle, perturbation, x):
    """x as floats and (g0, e0, theta0, delta_g, delta_e) at x; checks that
    the perturbed propensity stays in range at +-GATEAUX_STEP and at 1."""
    x = np.asarray(x, dtype=float)
    e0x, de = oracle.e0(x), perturbation.delta_e(x)
    for tau in (-GATEAUX_STEP, GATEAUX_STEP, 1.0):
        e_tau = e0x + tau * de
        if not PROPENSITY_GUARD <= e_tau <= 1.0 - PROPENSITY_GUARD:
            raise InvalidPerturbationError(
                f"perturbed propensity {e_tau:.6f} leaves "
                f"[{PROPENSITY_GUARD}, {1 - PROPENSITY_GUARD}] at tau={tau}"
            )
    return x, oracle.g0(x), e0x, oracle.theta0(x), perturbation.delta_g(x), de


def _score_derivative(score, oracle, perturbation, x, seed):
    """(estimate, mc_stderr) of d/dtau E[score(t, y, g0 + tau*dg, e0 + tau*de,
    theta0)] by central difference with step GATEAUX_STEP over MC_SAMPLES
    draws at x (common random numbers). ConfigError, before any draw, unless
    seed is a nonnegative integer."""
    _check_seed(seed)
    n_samples = MC_SAMPLES
    x, g0x, e0x, theta0x, dg, de = _perturbed_nuisances(oracle, perturbation, x)
    rng = np.random.default_rng(seed)
    t, y = oracle.sample_observations(x, n_samples, rng)

    def psi_at(tau):
        return score(t, y, g0x + tau * dg, e0x + tau * de, theta0x)

    per_sample = (psi_at(GATEAUX_STEP) - psi_at(-GATEAUX_STEP)) / (2.0 * GATEAUX_STEP)
    estimate = float(np.mean(per_sample))
    stderr = float(np.std(per_sample, ddof=1) / np.sqrt(n_samples))
    return estimate, stderr


def gateaux_derivative(oracle, perturbation, x, method="finite_difference", seed=0):
    """Directional derivative of the conditional mean score at the truth.

    Returns (estimate, mc_stderr). The finite_difference method draws
    MC_SAMPLES observations at x once (common random numbers) and central-
    differences the Monte-Carlo mean of the score over the perturbation
    scale, with step GATEAUX_STEP. The analytic method evaluates the closed form

        (g0 - g_hat + theta0*(e_hat - e0)) * E[T - e0 | x]
        + (e0 - e_hat) * (E[Y - g0 | x] - theta0 * E[T - e0 | x])

    with the conditional expectations taken exactly from the oracle, where
    they vanish; its stderr is 0. It draws nothing, so it reads no seed.
    """
    if method not in ("finite_difference", "analytic"):
        raise ConfigError(f"unknown method {method!r}")
    if method == "finite_difference":
        return _score_derivative(_orthogonal_score, oracle, perturbation, x, seed)
    x, g0x, e0x, theta0x, dg, de = _perturbed_nuisances(oracle, perturbation, x)
    exp_t_resid = oracle.e0(x) - e0x
    exp_y_resid = marginal_outcome(oracle, x) - g0x
    estimate = (-dg + theta0x * de) * exp_t_resid + (-de) * (
        exp_y_resid - theta0x * exp_t_resid
    )
    return estimate + 0.0, 0.0  # +0.0 normalizes a signed zero


def non_orthogonal_control(oracle, perturbation, x, seed=0):
    """Same machinery applied to the naive score (y - g - theta*t) * t.

    That score is first-order sensitive to outcome-model perturbations: for a
    constant shift delta_g = c the derivative is -c * e0(x). Returns
    (estimate, mc_stderr) so callers can test rejection of zero.
    """
    return _score_derivative(
        lambda t, y, g, e, theta: (y - g - theta * t) * t,
        oracle, perturbation, x, seed,
    )


def constant_perturbation(c_g, c_e=0.0):
    return NuisancePerturbation(
        delta_g=lambda x: c_g,
        delta_e=lambda x: c_e,
        label=f"const(dg={c_g}, de={c_e})",
    )


def coordinate_perturbation(scale_g, coord=0, scale_e=0.0):
    def dg(x):
        return scale_g * float(np.atleast_1d(x)[coord])

    def de(x):
        return scale_e * float(np.atleast_1d(x)[coord])

    return NuisancePerturbation(dg, de, label=f"linear(x{coord}; {scale_g}, {scale_e})")


def radial_perturbation(scale_g, scale_e=0.0):
    def bump(x):
        return float(np.exp(-0.5 * np.sum(np.square(x))))

    return NuisancePerturbation(
        delta_g=lambda x: scale_g * bump(x),
        delta_e=lambda x: scale_e * bump(x),
        label=f"radial({scale_g}, {scale_e})",
    )


def standard_perturbations(d=1):
    """The ten-direction family used by the orthogonality check suites.

    Spans constants, single-coordinate linear maps, radial bumps, and mixed
    directions; three of the directions carry a constant outcome shift with
    |c| >= 0.5 so the negative control has something to reject.
    """
    second = min(1, d - 1)
    return [
        constant_perturbation(1.0),
        constant_perturbation(0.0, 0.08),
        coordinate_perturbation(1.0, coord=0),
        coordinate_perturbation(0.0, coord=0, scale_e=0.02),
        radial_perturbation(1.0),
        radial_perturbation(0.0, 0.05),
        constant_perturbation(-0.5, 0.05),
        coordinate_perturbation(0.5, coord=second),
        NuisancePerturbation(
            delta_g=lambda x: 1.0 + 0.5 * float(np.atleast_1d(x)[0]),
            delta_e=lambda x: -0.03 * float(np.exp(-np.sum(np.square(x)))),
            label="mixed(affine g, radial e)",
        ),
        constant_perturbation(0.7, -0.05),
    ]
