"""Experiment harness: one runner per paper table, plus latency."""

from . import paper_reference
from .runner import (
    ABLATIONS,
    NoiseSpec,
    SweepError,
    class_dependent_noise,
    estimator_registry,
    run_ablation,
    run_comparison,
    run_latency,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    uniform_noise,
)
from .sweeps import sweep_config_field
from .settings import (
    CLASS_DEPENDENT_RATES,
    DATASETS,
    UNIFORM_ETAS,
    ExperimentSettings,
)

__all__ = [
    "ExperimentSettings", "DATASETS", "UNIFORM_ETAS", "CLASS_DEPENDENT_RATES",
    "NoiseSpec", "uniform_noise", "class_dependent_noise",
    "estimator_registry", "run_comparison",
    "run_table1", "run_table2", "run_table3", "run_table4", "run_table5",
    "run_ablation", "run_latency", "ABLATIONS", "SweepError",
    "paper_reference", "sweep_config_field",
]
