"""Run a small replication benchmark and print the report table.

The same experiment is expressible as a JSON config for the command line
(`cdnn bench --config ...`); here the config dict is built inline. Fits are
kept small: on a 2-vCPU Xeon with OPENBLAS_NUM_THREADS=1 the demo ran in
1.6-2.2 s, and in 2.7-2.8 s under `taskset -c 0`.
"""

from cdnn import bench

config = bench.config_from_dict(
    {
        "dgp": {"family": "confound-hetero", "seed": 11},
        "n": 1000,
        "replications": 3,
        "split": {"scheme": "ihdp_63_27_10"},
        "estimators": [
            {"name": "cdnn_freezing", "ensemble_size": 1, "epochs": 150},
            {"name": "cdnn_explicit", "ensemble_size": 1, "epochs": 150},
            {"name": "ols_lr1"},
            {"name": "ols_lr2"},
            {"name": "dml"},
        ],
        "seed": 4,
    }
)

report = bench.run(config)

print("per-replication rows:")
for row in report.rows:
    status = "ok" if row.ok else f"error: {row.error}"
    pehe = f"{row.sqrt_pehe:.3f}" if row.ok else "   - "
    eps = f"{row.eps_ate:.3f}" if row.ok else "   - "
    print(f"  rep {row.replication}  {row.estimator:14s} sqrt_pehe {pehe}  "
          f"eps_ate {eps}  [{status}]")

print()
print(report.to_markdown())
print("the misspecified pooled regression cannot express a varying effect, so")
print("its sqrt_pehe is pinned near the effect's standard deviation (~2); dml")
print("targets only the average, so its per-unit error is equally pinned.")
