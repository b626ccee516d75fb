"""Experiment-harness settings.

The paper's experiments run at full dataset scale with 5 seeds on a
V100; this harness defaults to CPU-sized runs and scales up through
environment variables:

* ``REPRO_SCALE``  — dataset scale factor (default 0.1);
* ``REPRO_SEEDS``  — number of repeated runs (default 1);
* ``REPRO_ETAS``   — comma-separated uniform noise rates.

Model hyper-parameters for experiments live here so every table uses
identical settings.
"""

from __future__ import annotations

import dataclasses
import os

from ..baselines import BaselineConfig
from ..core import CLFDConfig
from ..data.word2vec import Word2VecConfig

__all__ = ["ExperimentSettings", "DATASETS", "UNIFORM_ETAS",
           "CLASS_DEPENDENT_RATES"]

DATASETS = ("cert", "umd-wikipedia", "openstack")
UNIFORM_ETAS = (0.1, 0.2, 0.3, 0.45)
# η₁₀ = 0.3, η₀₁ = 0.45 (§IV-A2).
CLASS_DEPENDENT_RATES = (0.3, 0.45)


def _env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


@dataclasses.dataclass
class ExperimentSettings:
    """Scale/seed settings plus per-model configurations."""

    scale: float = 0.1
    seeds: int = 1
    etas: tuple[float, ...] = UNIFORM_ETAS

    @classmethod
    def from_env(cls) -> "ExperimentSettings":
        etas_env = os.environ.get("REPRO_ETAS")
        etas = (tuple(float(e) for e in etas_env.split(","))
                if etas_env else UNIFORM_ETAS)
        return cls(
            scale=_env_float("REPRO_SCALE", 0.1),
            seeds=_env_int("REPRO_SEEDS", 1),
            etas=etas,
        )

    def clfd_config(self) -> CLFDConfig:
        """The CLFD configuration used in every experiment table."""
        return CLFDConfig.fast(
            ssl_epochs=8,
            word2vec=Word2VecConfig(dim=16, epochs=4),
        )

    def baseline_config(self) -> BaselineConfig:
        return BaselineConfig(
            epochs=10,
            word2vec=Word2VecConfig(dim=16, epochs=4),
        )
