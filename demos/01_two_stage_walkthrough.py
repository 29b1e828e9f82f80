"""Walk through the two-stage estimator on a heterogeneous confounded DGP.

Stage 1 learns the outcome from covariates alone (treatment edges pinned to
zero), stage 2 introduces the treatment either against the stage-1 residual
(explicit variant) or against the raw outcome with the covariate encoding
frozen (freezing variant). The per-unit effect is the stage-2 prediction
difference between the two treatment settings.
"""

import numpy as np

import cdnn
from cdnn.data import concat_datasets

spec = cdnn.named_dgp("confound-hetero", seed=7)
data = cdnn.generate(spec, 2000)
train, val, test = cdnn.split(data, cdnn.SplitSpec.ihdp(), seed=1)
pool = concat_datasets([train, val])
oracle = cdnn.oracle_of(spec)

print(f"data: n={len(data)}, d={data.d}, treated fraction {data.t.mean():.2f}")
print(f"true effect surface: 1 + 2*x0 (sd {np.std(data.theta):.2f}), noise sigma 0.5")
print()

# ---- stage 1: outcome from covariates only --------------------------------
config = cdnn.CdnnConfig(ensemble_size=1, seed=3)
stage1 = cdnn.fit_stage1(pool, config)
print("stage 1 trained:", len(stage1.training_log.train_mse), "epochs,",
      f"best validation MSE {min(stage1.training_log.val_mse):.3f}")

probe = test.x[:5]
p0, _ = stage1.network.forward_batch(probe, np.zeros(5))
p1, _ = stage1.network.forward_batch(probe, np.ones(5))
print("treatment suppression: predictions at t=0 and t=1 identical ->",
      bool(np.array_equal(p0, p1)))

residuals = cdnn.compute_residuals(stage1, pool)
print(f"residual mean {np.mean(residuals.y):+.4f} "
      f"(sd {np.std(residuals.y):.3f})")
print()

# ---- stage 2, both variants ------------------------------------------------
models = {}
for variant in ("freezing", "explicit_residual"):
    model = models[variant] = cdnn.fit(pool, variant, cdnn.CdnnConfig(seed=5))
    pred = cdnn.predict_ite(model, test.x)
    truth_fn = np.array([oracle.theta0(x) for x in test.x])
    print(f"{variant:17s}: sqrt_pehe {cdnn.sqrt_pehe(pred, test.theta):.3f}, "
          f"eps_ate {cdnn.eps_ate(pred, test.theta):.3f}, "
          f"corr with true effect {np.corrcoef(pred, truth_fn)[0, 1]:.3f}")

# the freezing variant reuses the stage-1 encoding bitwise
s1, s2 = models["freezing"].members[0]
d = s1.network.covariate_width
print()
print("freezing contract: stage-2 covariate matrix identical to stage-1's ->",
      bool(np.array_equal(s2.network.weight(0)[:d, :], s1.network.weight(0)[:d, :])))
