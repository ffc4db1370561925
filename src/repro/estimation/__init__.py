"""Estimation: fast cycle-count and hybrid area models (paper Section IV)."""

from .area import (
    AreaEstimate,
    RawArea,
    corrected_areas,
    hybrid_area,
    raw_analysis,
    raw_area,
)
from .cache import CachedTemplateModels, EstimationCaches, LRUCache
from .characterize import TemplateModels, characterize_templates
from .counts import Counts
from .cycles import (
    CycleEstimate,
    PipeSchedule,
    estimate_cycles,
    transfer_cycles,
)
from .estimator import Estimate, Estimator, default_estimator
from .features import N_FEATURES, design_features
from .nn import MLP, MLPConfig, fit_linear
from .plan import Analysis, Plan, compile_plan
from .power import PowerEstimate, estimate_power
from .samples import generate_sample_design
from .store import load_estimator, save_estimator
from .train import CorrectionModels, train_corrections
from .validation import CrossValidationReport, cross_validate

__all__ = [
    "Analysis",
    "AreaEstimate",
    "CachedTemplateModels",
    "CorrectionModels",
    "CrossValidationReport",
    "cross_validate",
    "Counts",
    "CycleEstimate",
    "Estimate",
    "EstimationCaches",
    "Estimator",
    "LRUCache",
    "MLP",
    "MLPConfig",
    "N_FEATURES",
    "PipeSchedule",
    "Plan",
    "PowerEstimate",
    "RawArea",
    "TemplateModels",
    "characterize_templates",
    "compile_plan",
    "corrected_areas",
    "default_estimator",
    "design_features",
    "estimate_cycles",
    "estimate_power",
    "fit_linear",
    "generate_sample_design",
    "hybrid_area",
    "load_estimator",
    "raw_analysis",
    "raw_area",
    "save_estimator",
    "train_corrections",
    "transfer_cycles",
]
