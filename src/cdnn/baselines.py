"""Closed-form reference estimators: pooled OLS, per-arm OLS, and a
residual-on-residual average-effect estimator with cross-fitting."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import _require_both_arms
from .errors import ConfigError, DegenerateArmError, OverlapError, ShapeError
from .errors import _is_count, _is_finite_number


@dataclass
class LinearModel:
    coefficients: np.ndarray
    intercept: float
    ridge_fallback: bool = False

    def predict(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.intercept + X @ self.coefficients


def _lstsq_with_fallback(A, y, context):
    """Least squares with a tiny-ridge fallback when A is rank deficient."""
    beta, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < A.shape[1]:
        warnings.warn(f"{context}: rank-deficient design, ridge fallback (lambda=1e-8)")
        gram = A.T @ A + 1e-8 * np.eye(A.shape[1])
        beta = np.linalg.solve(gram, A.T @ y)
        return beta, True
    return beta, False


def ols_lr1(data):
    """Least squares of y on [x, t]; the effect estimate is the t coefficient.

    Returns (model, ite) where ite(X) is the constant treatment coefficient
    broadcast over the query points.
    """
    _require_both_arms(data, "ols_lr1")
    n, d = data.x.shape
    if n <= d + 2:
        raise ShapeError(f"need n > d+2 samples, got n={n}, d={d}")
    A = np.column_stack([np.ones(n), data.x, data.t.astype(float)])
    beta, fell_back = _lstsq_with_fallback(A, data.y, "ols_lr1")
    model = LinearModel(beta[1:], float(beta[0]), fell_back)
    tau = float(beta[-1])

    def ite(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.full(X.shape[0], tau)

    return model, ite


def ols_lr2(data):
    """Separate least squares per arm; effect is the prediction difference."""
    n, d = data.x.shape
    models = {}
    for arm, name in ((1, "treated"), (0, "control")):
        idx = data.t == arm
        n_arm = int(idx.sum())
        if n_arm <= d + 2:
            raise DegenerateArmError(f"{name} arm has {n_arm} samples, need > {d + 2}")
        A = np.column_stack([np.ones(n_arm), data.x[idx]])
        beta, fell_back = _lstsq_with_fallback(A, data.y[idx], f"ols_lr2[{name}]")
        models[arm] = LinearModel(beta[1:], float(beta[0]), fell_back)

    def ite(X):
        return models[1].predict(X) - models[0].predict(X)

    return models[1], models[0], ite


def _ridge_fit(X, y, lam):
    n = X.shape[0]
    A = np.column_stack([np.ones(n), X])
    penalty = lam * np.eye(A.shape[1])
    penalty[0, 0] = 0.0  # intercept unpenalized
    beta = np.linalg.solve(A.T @ A + penalty, A.T @ y)
    return LinearModel(beta[1:], float(beta[0]))


def _check_dml_settings(folds=2, crossfit=True, ridge_lambda=1e-3, clamp=(0.01, 0.99)):
    """The one check of dml_ate's settings, with its defaults: folds an integer
    >= 2, crossfit true or false, ridge_lambda a finite number >= 0, and clamp
    two numbers with 0 < lo < hi < 1. `cdnn bench` runs it before any work."""
    if not _is_count(folds, least=-math.inf):
        raise ConfigError(f"bad config value: folds must be an integer, got {folds!r}")
    if folds < 2:
        raise ConfigError(f"bad config value: dml folds must be >= 2, got {folds}")
    if not isinstance(crossfit, bool):
        raise ConfigError(f"bad config value: crossfit must be true or false, got {crossfit!r}")
    if not (_is_finite_number(ridge_lambda) and ridge_lambda >= 0):
        raise ConfigError(
            f"bad config value: dml ridge_lambda must be a finite number >= 0, got {ridge_lambda!r}"
        )
    if not (isinstance(clamp, (list, tuple)) and len(clamp) == 2
            and all(map(_is_finite_number, clamp)) and 0 < clamp[0] < clamp[1] < 1):
        raise ConfigError(
            f"bad config value: dml clamp must be two numbers 0 < lo < hi < 1, got {clamp!r}"
        )


def dml_ate(
    data,
    folds=2,
    crossfit=True,
    ridge_lambda=1e-3,
    clamp=(0.01, 0.99),
    oracle_g=None,
    oracle_e=None,
    seed=0,
):
    """Average effect via residual-on-residual regression.

    Nuisances are ridge-regularized linear fits of y on x and t on x,
    cross-fit over `folds` folds, one row each when folds exceed the rows
    (set crossfit=False to fit on all rows, the whole-data protocol). Exact
    nuisance callables can be injected through oracle_g / oracle_e,
    bypassing fitting. Returns (ate, stderr); a setting outside
    _check_dml_settings' contract raises ConfigError.
    """
    _check_dml_settings(folds, crossfit, ridge_lambda, clamp)
    _require_both_arms(data, "dml_ate")
    lo, hi = clamp
    n = len(data)
    X, T, Y = data.x, data.t.astype(float), data.y

    if oracle_g is not None or oracle_e is not None:
        if oracle_g is None or oracle_e is None:
            raise ShapeError("inject both oracle_g and oracle_e or neither")
        ghat = np.array([oracle_g(x) for x in X])
        ehat = np.array([oracle_e(x) for x in X])
    elif not crossfit:
        ghat = _ridge_fit(X, Y, ridge_lambda).predict(X)
        ehat = _ridge_fit(X, T, ridge_lambda).predict(X)
    else:
        ghat = np.empty(n)
        ehat = np.empty(n)
        # folds past the row count hold no row: with folds >= n, % folds and
        # % n assign the same one row per fold
        used = min(folds, n)
        assignment = np.random.default_rng(seed).permutation(n) % used
        for j in range(used):
            hold = assignment == j
            ghat[hold] = _ridge_fit(X[~hold], Y[~hold], ridge_lambda).predict(X[hold])
            ehat[hold] = _ridge_fit(X[~hold], T[~hold], ridge_lambda).predict(X[hold])

    n_clamped = int(np.sum((ehat < lo) | (ehat > hi)))
    if n_clamped:
        warnings.warn(f"dml_ate: clamped {n_clamped} propensity estimates to [{lo}, {hi}]")
        ehat = np.clip(ehat, lo, hi)

    t_resid = T - ehat
    y_resid = Y - ghat
    denom = float(np.sum(t_resid * t_resid))
    if denom < 1e-8:
        raise OverlapError("treatment residual variance is numerically zero")
    ate = float(np.sum(t_resid * y_resid) / denom)
    psi = (y_resid - ate * t_resid) * t_resid
    stderr = float(np.sqrt(np.sum(psi * psi)) / denom)
    return ate, stderr
