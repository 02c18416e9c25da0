"""Gradient-affinity prediction of multi-task learning gains and task grouping.

The pipeline: generate a synthetic task suite, train one joint model while
recording per-task losses and shared-parameter gradients, turn those signals
into pairwise and group affinity scores, refine the scores into per-task gain
predictions with a two-stage ensemble (scalar spline-plus-ridge map followed
by per-task residual correction), and pick budgeted task groups maximizing
predicted total gain via branch and bound.
"""

from .affinity import (
    AffinityMatrix,
    GroupAffinity,
    group_affinity,
    pairwise_affinity,
    step_affinity,
)
from .engine import (
    Architecture,
    ModelParams,
    Trace,
    TrainConfig,
    TrainedModel,
    TrainingDiverged,
    forward_loss,
    init_params,
    sgd_momentum_step,
    shared_gradient,
    train_groups,
    train_mtl,
    train_stl,
)
from .ensemble import (
    EnsemblePredictor,
    TrainingPair,
    build_training_pairs,
    fit_predictor,
    fit_residual,
    fit_stage1,
    predict,
    predict_from_matrix,
    predict_stage1,
)
from .experiment import (
    ExperimentConfig,
    StageError,
    compare_ablations,
    reference_config,
    run_experiment,
)
from .gains import (
    GainRecord,
    StlCache,
    measure_gain,
    measure_gains_batch,
    relative_gain,
    sample_training_groups,
)
from .metrics import EvalReport, evaluate, mse, pearson, r_squared
from .ridge import CvConfig, RidgeModel, fit_cv
from .selector import (
    SelectionProblem,
    SelectionResult,
    build_problem,
    enumerate_candidate_groups,
    select_branch_and_bound,
    select_exhaustive,
)
from .splines import SplineSpec, basis_expand, basis_matrix, fit_knots
from .suite import TaskDataset, TaskSuite, TaskSuiteSpec, generate_suite, load_suite, save_suite

__version__ = "0.1.0"
