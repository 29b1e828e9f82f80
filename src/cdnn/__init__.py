"""Two-stage controlled neural network estimation of individual treatment
effects, with verifiable identities, classical baselines, synthetic
ground-truth data, and a replication benchmark harness."""

from .data import (
    AffineSurface,
    ConstantPropensity,
    Dataset,
    DgpSpec,
    LogisticPropensity,
    ReplicationSet,
    SigmoidSurface,
    SplitSpec,
    generate,
    load_csv,
    make_replications,
    named_dgp,
    oracle_of,
    split,
    write_csv,
)
from .estimator import (
    CdnnConfig,
    CdnnEstimator,
    Stage1Model,
    Stage2Model,
    compute_residuals,
    fit,
    fit_stage1,
    fit_stage2_explicit,
    fit_stage2_freezing,
    load_checkpoint,
    predict_ite,
    save_checkpoint,
)
from .baselines import LinearModel, dml_ate, ols_lr1, ols_lr2
from .metrics import ate_error_signed, eps_ate, sqrt_pehe
from .nn import (
    FreezeMask,
    Network,
    OptimizerState,
    backward,
    gradient_check,
    mse_loss,
    step,
    swish,
)
from .theory import (
    NuisanceOracle,
    NuisancePerturbation,
    ScoreInput,
    gateaux_derivative,
    marginal_outcome,
    non_orthogonal_control,
    residualized_h,
    score_psi,
    standard_perturbations,
)

__version__ = "0.1.0"
