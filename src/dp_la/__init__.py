"""Differentially private tabular learning pipelines with a privacy audit.

Public surface: DP mechanisms, data handling, the logistic baseline, the three
DP pipelines, the membership-inference audit, and the sweep runner.
"""

from .audit import (
    AttackModel,
    AuditReport,
    MiaOutcome,
    attack_features,
    privacy_leakage,
    run_mia,
    train_attack,
    true_revealed_records,
    utility_loss,
)
from .data import (
    ColumnKind,
    Dataset,
    FourWaySplit,
    TabularSchema,
    four_way_split,
    load_csv,
    preprocess,
    synth_generate,
)
from .experiment import (
    ExperimentConfig,
    SweepResults,
    SynthSpec,
    emit_report,
    load_config,
    run_sweep,
    summarize,
)
from .mechanisms import (
    PrivacyBudget,
    RngState,
    Sensitivity,
    SensitivityNorm,
    empirical_dp_check,
    gaussian_sigma,
    laplace_scale,
    sample_laplace,
)
from .model import LogisticModel, TrainConfig, accuracy, predict, predict_proba, train
from .pipelines import (
    DpMethod,
    Release,
    TeacherEnsemble,
    Victim,
    input_perturb,
    objective_perturb_train,
    pate_predict,
    pate_train,
    run_pipeline,
    victim_view,
)

__version__ = "0.1.0"
