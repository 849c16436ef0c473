"""Effort-estimation toolkit.

Parses the bundled project dataset, fits a log-linear regression and a
one-hidden-layer network, scores predictions on five accuracy criteria,
and runs the attribute-removal study behind the `effortlab` CLI.
"""

from .ablation import (
    AblationTable,
    AttributeRanking,
    RankedAttribute,
    Scenario,
    rank_attributes,
    run_ablation,
    run_scenario,
    scenarios,
)
from .ann import (
    AnnConfig,
    AnnModel,
    TrainingTrace,
    forward,
    gradient,
    predict_effort_ann,
    predict_frame,
    train,
)
from .dataset import (
    AttributeSummary,
    DatasetSummary,
    ProjectRecord,
    RawRecord,
    Violation,
    bundled_dataset_path,
    filter_complete,
    load_dataset,
    parse_dataset,
    serialize_records,
    summarize,
    validate_derived,
)
from .errors import (
    CollinearityError,
    DegenerateInputError,
    DomainError,
    EffortlabError,
    InsufficientDataError,
    ParseError,
    SchemaError,
    TransformError,
)
from .metrics import (
    MetricsReport,
    evaluate,
    mean_error,
    mmre,
    pred,
    r_squared,
    rmse,
)
from .numerics import (
    LinearSystemSolution,
    NormalityReport,
    f_upper_tail_p,
    normality_test,
    regularized_incomplete_beta,
    solve_least_squares,
    t_two_sided_p,
)
from .regression import (
    ModelFrame,
    RegressionFit,
    StepwiseStep,
    StepwiseTrace,
    build_candidate_frame,
    build_frame,
    fit_ols,
    predict_effort,
    stepwise_select,
    vif,
)

__version__ = "0.1.0"

__all__ = [
    "AblationTable",
    "AnnConfig",
    "AnnModel",
    "AttributeRanking",
    "AttributeSummary",
    "CollinearityError",
    "DatasetSummary",
    "DegenerateInputError",
    "DomainError",
    "EffortlabError",
    "InsufficientDataError",
    "LinearSystemSolution",
    "MetricsReport",
    "ModelFrame",
    "NormalityReport",
    "ParseError",
    "ProjectRecord",
    "RankedAttribute",
    "RawRecord",
    "RegressionFit",
    "Scenario",
    "SchemaError",
    "StepwiseStep",
    "StepwiseTrace",
    "TrainingTrace",
    "TransformError",
    "Violation",
    "build_candidate_frame",
    "build_frame",
    "bundled_dataset_path",
    "evaluate",
    "f_upper_tail_p",
    "filter_complete",
    "fit_ols",
    "forward",
    "gradient",
    "load_dataset",
    "mean_error",
    "mmre",
    "normality_test",
    "parse_dataset",
    "pred",
    "predict_effort",
    "predict_effort_ann",
    "predict_frame",
    "r_squared",
    "rank_attributes",
    "regularized_incomplete_beta",
    "render_report",
    "rmse",
    "run",
    "run_ablation",
    "run_scenario",
    "scenarios",
    "serialize_records",
    "solve_least_squares",
    "stepwise_select",
    "summarize",
    "t_two_sided_p",
    "train",
    "validate_derived",
    "vif",
]


def __getattr__(name: str):
    # The CLI is imported on first use, so that `python -m effortlab.cli`
    # does not find it already imported by the package.
    if name in ("render_report", "run"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
