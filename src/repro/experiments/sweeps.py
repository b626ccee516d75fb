"""Generic hyper-parameter sweeps over CLFD configurations.

Sweep any :class:`~repro.core.CLFDConfig` field across values and
measure test metrics plus corrector quality at each point — the tool
behind sensitivity analyses (q, β, τ, M, temperature) that go beyond
the paper's fixed settings.
"""

from __future__ import annotations

from typing import Sequence

from ..analysis.tables import SweepCell, cross_seed_table
from ..core import CLFD, CLFDConfig
from ..data import make_dataset
from ..metrics import evaluate_detector
from ..parallel import CellResult, TaskSpec
from ..train import seed_everything
from .runner import NoiseSpec, uniform_noise
from .settings import ExperimentSettings

__all__ = ["sweep_config_field"]

METRICS = ("f1", "fpr", "auc_roc", "tpr", "tnr")


def sweep_config_field(field: str, values: Sequence,
                       settings: ExperimentSettings | None = None,
                       dataset: str = "cert",
                       noise: NoiseSpec | None = None,
                       verbose: bool = False) -> dict[str, list[SweepCell]]:
    """Train CLFD once per (value, seed) and aggregate metrics.

    ``field`` must be a :class:`~repro.core.CLFDConfig` attribute
    (e.g. ``"q"``, ``"mixup_beta"``, ``"aux_batch_size"``,
    ``"supcon_variant"``).  Returns ``{metric: cells}`` for the test
    metrics (F1, FPR, AUC-ROC) and the corrector's TPR/TNR, one row per
    value named ``f"{field}={value}"``, in ``values`` order.
    """
    settings = settings or ExperimentSettings.from_env()
    base = settings.clfd_config()
    if not hasattr(base, field):
        raise AttributeError(f"CLFDConfig has no field {field!r}")
    noise = noise or uniform_noise(0.45)

    records = []
    for value in values:
        config = CLFDConfig(**{**base.__dict__, field: value})
        for seed in range(settings.seeds):
            rng = seed_everything(seed)
            train, test = make_dataset(dataset, rng, scale=settings.scale)
            noise(train, rng)
            model = CLFD(config).fit(train, rng=seed_everything(seed))
            metrics = evaluate_detector(test.labels(), *model.predict(test))
            metrics.update(model.correction_quality(train))
            spec = TaskSpec(model=f"{field}={value}", estimator="clfd",
                            config=config, dataset=dataset,
                            noise_kind=noise.kind, noise_params=noise.params,
                            seed=seed, scale=settings.scale)
            # Trained in-process, not a run-cache entry: no content key.
            records.append(CellResult(spec=spec, key="",
                                      metrics=metrics).record())
            if verbose:  # pragma: no cover
                print(f"{spec.describe()}: " + ", ".join(
                    f"{k}={v:.1f}" for k, v in metrics.items()), flush=True)
    return {metric: cross_seed_table(records, metric) for metric in METRICS}
