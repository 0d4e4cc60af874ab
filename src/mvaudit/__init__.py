"""Probabilistic audit of a two-candidate runoff with contested mail votes."""

__version__ = "0.1.0"

from .data import (
    ElectionDataset,
    aggregate_red,
    load_dataset,
    parse_dataset,
    reversal_threshold,
    serialize_dataset,
)
from .montecarlo import CalibrationReport, ModelParameters, calibrate
from .prediction import (
    AnalysisResult,
    PredictionInterval,
    ReversalReport,
    analyze_dataset,
    prediction_interval,
    reversal_probability,
)
from .scenario import ScenarioResult, build_reversal_scenario
from .special import (
    TailProbability,
    log_gamma,
    reg_inc_beta,
    student_t_cdf,
    student_t_quantile,
    student_t_sf,
)
from .wls import RegressionFit, fit_through_origin

__all__ = [
    "__version__",
    "ElectionDataset",
    "parse_dataset",
    "load_dataset",
    "serialize_dataset",
    "aggregate_red",
    "reversal_threshold",
    "RegressionFit",
    "fit_through_origin",
    "ReversalReport",
    "PredictionInterval",
    "AnalysisResult",
    "reversal_probability",
    "prediction_interval",
    "analyze_dataset",
    "ScenarioResult",
    "build_reversal_scenario",
    "ModelParameters",
    "CalibrationReport",
    "calibrate",
    "TailProbability",
    "log_gamma",
    "reg_inc_beta",
    "student_t_sf",
    "student_t_cdf",
    "student_t_quantile",
]
