"""Numerically exercise the theory behind the residual formulation.

Everything here runs against an exact oracle built from a synthetic DGP, so
each identity can be checked to floating-point precision and each moment
condition to Monte-Carlo precision.
"""

import numpy as np

import cdnn
from cdnn.theory import constant_perturbation, standard_perturbations

spec = cdnn.named_dgp("confound-hetero", seed=2)
oracle = cdnn.oracle_of(spec)
x = np.array([0.4, -0.3, 0.1, 0.0, 0.2])

print("== mixture identity ==")
print(f"e0(x) f(1,x) + (1-e0(x)) f(0,x) = {cdnn.marginal_outcome(oracle, x):.12f}")
print(f"g0(x)                           = {oracle.g0(x):.12f}")
print()

print("== residual decomposition h(t,x) = theta(x) (t - e(x)) ==")
direct = {}
for t in (1, 0):
    direct[t], factored = cdnn.residualized_h(oracle, t, x)
    print(f"t={t}: f(t,x) - g0(x) = {direct[t]:+.12f}   "
          f"theta0(x)(t - e0(x)) = {factored:+.12f}")
print(f"arm difference recovers the effect: "
      f"{direct[1] - direct[0]:.12f}"
      f" vs theta0(x) = {oracle.theta0(x):.12f}")
print()

print("== conditional moment of the score at the truth ==")
rng = np.random.default_rng(0)
t_draws, y_draws = oracle.sample_observations(x, 200_000, rng)
resid = t_draws - oracle.e0(x)
psi = (y_draws - oracle.g0(x) - oracle.theta0(x) * resid) * resid
print(f"MC mean of psi: {psi.mean():+.5f}  "
      f"(3 stderr = {3 * psi.std() / np.sqrt(len(psi)):.5f})")
print()

print("== Gateaux derivatives along nuisance perturbations ==")
print(f"{'direction':38s} {'finite diff':>12s} {'3*stderr':>10s} {'analytic':>9s}")
for pert in standard_perturbations(spec.d)[:6]:
    fd, se = cdnn.gateaux_derivative(oracle, pert, x, seed=4)
    an, _ = cdnn.gateaux_derivative(oracle, pert, x, method="analytic")
    print(f"{pert.label:38s} {fd:+12.6f} {3 * se:10.6f} {an:9.1f}")
print()

print("== negative control: the naive score is not orthogonal ==")
pert = constant_perturbation(1.0)
fd, se = cdnn.non_orthogonal_control(oracle, pert, x, seed=4)
print(f"naive-score derivative under a unit outcome shift: {fd:+.4f} "
      f"(3 stderr = {3 * se:.4f}; analytic -e0(x) = {-oracle.e0(x):+.4f})")
print("the orthogonal score's derivative sits at zero; the naive one does not.")
