"""Effort-estimation toolkit.

Parses the bundled project dataset, fits a log-linear regression and a
one-hidden-layer network, scores predictions on five accuracy criteria,
and runs the attribute-removal study behind the `effortlab` CLI.
"""

import importlib

# The public names, by the module that defines them: `__all__` is built
# from this table. A name's module, and numpy with the model layers, is
# imported when the name is first used.
_MODULES = {
    "ablation": ("AblationTable", "AttributeRanking", "RankedAttribute",
                 "Scenario", "rank_attributes", "run_ablation",
                 "run_scenario", "scenarios"),
    "ann": ("AnnConfig", "AnnModel", "TrainingTrace", "predict_frame",
            "train"),
    "cli": ("render_report", "run"),
    "dataset": ("AttributeSummary", "DatasetSummary", "ProjectRecord",
                "RawRecord", "Violation", "bundled_dataset_path",
                "filter_complete", "load_dataset", "parse_dataset",
                "summarize", "validate_derived"),
    "errors": ("CollinearityError", "DegenerateInputError", "DomainError",
               "EffortlabError", "InsufficientDataError", "ParseError",
               "SchemaError", "TransformError"),
    "metrics": ("MetricsReport", "evaluate"),
    "regression": ("ModelFrame", "RegressionFit", "StepwiseStep",
                   "StepwiseTrace", "build_candidate_frame", "build_frame",
                   "fit_ols", "stepwise_select", "vif"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items()
              for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Each public name is read off its module on every use and never
    # bound here, so that `import effortlab` loads no numpy, `validate`
    # and `summarize` never do, `python -m effortlab.cli` does not find
    # the CLI already imported by the package, and a name is always what
    # its module holds at that moment.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
