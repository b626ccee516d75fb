"""Shared infrastructure for the eight baselines of §IV-A3.

:class:`Estimator` is the repo-wide model contract: everything the
experiment harness, the serving layer, and the analysis tools train or
score — :class:`repro.core.CLFD`, :class:`repro.core.CoTeachingCLFD`,
and each baseline here — satisfies ``fit(train, rng=..., run=...)``,
``predict(dataset) -> (labels, scores)`` and
``predict_proba(dataset) -> (n, 2) probabilities``.  The protocol is
structural (:class:`typing.Protocol`): conformance is by signature, not
inheritance, so callers never need ``isinstance`` checks.

The paper adapts each baseline to sessions by replacing its image
network with CLFD's two-layer LSTM session encoder (§IV-A3), so the
baselines build on CLFD's own parts: :meth:`BaselineConfig.stage_config`
maps their hyper-parameters onto the :class:`~repro.core.CLFDConfig` a
:class:`~repro.core.stage.Stage` or :class:`~repro.core.LabelCorrector`
is built from, every model starts with CLFD's word2vec phase
(:func:`~repro.core.clfd.fit_vectorizer`), and stage-based models score
through the stage's :class:`~repro.core.encoder.InferenceForward`.
"""

from __future__ import annotations

import dataclasses
from typing import Protocol

import numpy as np

from ..core.clfd import fit_vectorizer
from ..core.config import CLFDConfig
from ..core.stage import Stage
from ..data.pipeline import SessionVectorizer
from ..data.sessions import SessionDataset
from ..data.word2vec import Word2VecConfig
from ..train import TrainRun

__all__ = ["Estimator", "BaselineConfig", "BaselineModel", "stage_probs"]


class Estimator(Protocol):
    """Structural contract shared by CLFD and every baseline.

    ``scores`` (the second element of :meth:`predict`) is a
    monotone-in-maliciousness number in ``[0, 1]`` usable for AUC and
    threshold calibration; :meth:`predict_proba` refines it into a
    two-column distribution ``[p(normal), p(malicious)]``.  For
    threshold detectors (DeepLog, LogBert) the distribution is derived
    from the anomaly score, so columns still sum to one.
    """

    def fit(self, train: SessionDataset,
            rng: np.random.Generator | None = None,
            run: TrainRun | None = None) -> "Estimator":
        """Train on the noisy labels of ``train``; returns ``self``.

        ``run`` checkpoints and journals the training (:mod:`repro.train`).
        """
        ...  # pragma: no cover - protocol stub

    def predict(self, dataset: SessionDataset
                ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(labels, malicious scores)`` for every session."""
        ...  # pragma: no cover - protocol stub

    def predict_proba(self, dataset: SessionDataset) -> np.ndarray:
        """Return an ``(n, 2)`` array of class probabilities."""
        ...  # pragma: no cover - protocol stub


@dataclasses.dataclass
class BaselineConfig:
    """Hyper-parameters shared across baselines (mirrors CLFDConfig)."""

    embedding_dim: int = 16
    hidden_size: int = 24
    lstm_layers: int = 2
    batch_size: int = 64
    lr: float = 0.005
    epochs: int = 10
    grad_clip: float = 5.0
    word2vec: Word2VecConfig | None = None

    def __post_init__(self):
        if self.word2vec is None:
            self.word2vec = Word2VecConfig(dim=self.embedding_dim, epochs=2)
        if self.word2vec.dim != self.embedding_dim:
            raise ValueError("word2vec.dim must equal embedding_dim")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")

    def stage_config(self, **fields) -> CLFDConfig:
        """The :class:`CLFDConfig` a CLFD stage is built from: this
        config's architecture, batching, optimiser and word2vec, plus the
        model's own stage ``fields`` (epochs, loss, temperature, ...)."""
        return CLFDConfig(
            embedding_dim=self.embedding_dim, hidden_size=self.hidden_size,
            lstm_layers=self.lstm_layers, batch_size=self.batch_size,
            lr=self.lr, grad_clip=self.grad_clip, word2vec=self.word2vec,
            **fields)


class BaselineModel:
    """Abstract baseline: fit on noisy labels, predict labels + scores."""

    name = "baseline"

    def __init__(self, config: BaselineConfig | None = None):
        self.config = config or BaselineConfig()
        self.vectorizer: SessionVectorizer | None = None
        self._fitted = False

    def fit(self, train: SessionDataset,
            rng: np.random.Generator | None = None,
            run: TrainRun | None = None) -> "BaselineModel":
        rng = rng or np.random.default_rng(0)
        run = run or TrainRun()
        self.vectorizer = fit_vectorizer(train, self.config.word2vec, rng,
                                         run)
        self._fit(train, rng, run)
        self._fitted = True
        return self

    def predict(self, dataset: SessionDataset) -> tuple[np.ndarray, np.ndarray]:
        if not self._fitted:
            raise RuntimeError(f"{type(self).__name__}.fit must be called first")
        return self._predict(dataset)

    def predict_proba(self, dataset: SessionDataset) -> np.ndarray:
        """Class probabilities ``[p(normal), p(malicious)]`` per session."""
        if not self._fitted:
            raise RuntimeError(f"{type(self).__name__}.fit must be called first")
        return self._predict_proba(dataset)

    # Subclass hooks: ``_fit``, and at least one of ``_predict`` and
    # ``_predict_proba`` (each defaults to a view of the other).
    def _fit(self, train: SessionDataset, rng: np.random.Generator,
             run: TrainRun) -> None:
        raise NotImplementedError

    def _predict(self, dataset: SessionDataset) -> tuple[np.ndarray, np.ndarray]:
        """Default: the argmax label and ``p(malicious)`` of
        :meth:`_predict_proba`, for softmax-headed models."""
        probs = self._predict_proba(dataset)
        return probs.argmax(axis=1), probs[:, 1]

    def _predict_proba(self, dataset: SessionDataset) -> np.ndarray:
        """Default: treat the malicious score as ``p(malicious)``.

        Threshold detectors (DeepLog, LogBert) keep this derivation so
        the Estimator protocol holds uniformly.
        """
        _, scores = self._predict(dataset)
        scores = np.clip(np.asarray(scores, dtype=np.float64), 0.0, 1.0)
        return np.stack([1.0 - scores, scores], axis=1)


def stage_probs(stage: Stage, dataset: SessionDataset) -> np.ndarray:
    """Softmax probabilities of every session through ``stage``'s
    inference forward.

    Unlike :meth:`Stage.predict_proba` this reads no fitted flag: the
    baselines train a stage's encoder and head themselves, and ULC and
    DivMix score it between epochs.
    """
    forward = stage.inference_forward()
    return forward.probs(forward.encode_dataset(dataset))
