"""Shared infrastructure for the eight baselines of §IV-A3.

:class:`Estimator` is the repo-wide model contract: everything the
experiment harness, the serving layer, and the analysis tools train or
score — :class:`repro.core.CLFD`, :class:`repro.core.CoTeachingCLFD`,
and each baseline here — satisfies ``fit(train, rng=...)``,
``predict(dataset) -> (labels, scores)`` and
``predict_proba(dataset) -> (n, 2) probabilities``.  The protocol is
structural (:class:`typing.Protocol`): conformance is by signature, not
inheritance, so callers never need ``isinstance`` checks.

The paper adapts each baseline to sessions by replacing its image
network with a two-hidden-layer LSTM session encoder (§IV-A3); the
:class:`EncoderClassifier` building block below is that adaptation.
"""

from __future__ import annotations

import dataclasses
from typing import Protocol

import numpy as np

from .. import nn
from ..core.clfd import _restore_vectorizer, _vectorizer_phase_state
from ..core.encoder import SessionEncoder, SoftmaxClassifier
from ..data.pipeline import SessionVectorizer
from ..data.sessions import SessionDataset, iter_batches
from ..data.word2vec import Word2VecConfig
from ..train import TrainRun

__all__ = ["Estimator", "BaselineConfig", "BaselineModel",
           "EncoderClassifier"]


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
            rng: np.random.Generator | None = None) -> "Estimator":
        """Train on the noisy labels of ``train``; returns ``self``."""
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


class BaselineModel:
    """Abstract baseline: fit on noisy labels, predict labels + scores."""

    name = "baseline"
    # fit() accepts ``run=`` — the word2vec stage is a phase checkpoint
    # for every baseline, and the sequence-LM baselines additionally
    # resume their epoch loops through :class:`~repro.train.Trainer`.
    supports_train_run = True

    def __init__(self, config: BaselineConfig | None = None):
        self.config = config or BaselineConfig()
        self.vectorizer: SessionVectorizer | None = None
        self._fitted = False

    def fit(self, train: SessionDataset,
            rng: np.random.Generator | None = None,
            run: TrainRun | None = None) -> "BaselineModel":
        rng = rng or np.random.default_rng(0)
        run = run or TrainRun()
        state = run.load_phase("vectorizer")
        if state is not None:
            self.vectorizer = _restore_vectorizer(state, rng)
        else:
            self.vectorizer = SessionVectorizer.fit(
                train, config=self.config.word2vec, rng=rng
            )
            run.save_phase("vectorizer",
                           _vectorizer_phase_state(self.vectorizer, rng))
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

    # Subclass hooks -----------------------------------------------------
    def _fit(self, train: SessionDataset, rng: np.random.Generator,
             run: TrainRun) -> None:
        raise NotImplementedError

    def _predict(self, dataset: SessionDataset) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _predict_proba(self, dataset: SessionDataset) -> np.ndarray:
        """Default: treat the malicious score as ``p(malicious)``.

        Correct as-is for models whose ``_predict`` already returns a
        probability; threshold detectors keep this derivation so the
        Estimator protocol holds uniformly.  Softmax-headed models
        override it with their actual distribution.
        """
        _, scores = self._predict(dataset)
        scores = np.clip(np.asarray(scores, dtype=np.float64), 0.0, 1.0)
        return np.stack([1.0 - scores, scores], axis=1)


class EncoderClassifier(nn.Module):
    """LSTM session encoder + FCNN head trained end to end.

    The §IV-A3 adaptation applied to the image-domain baselines: their
    ResNets are replaced by this sequence model.
    """

    def __init__(self, config: BaselineConfig, rng: np.random.Generator):
        super().__init__()
        self.encoder = SessionEncoder(config.embedding_dim, config.hidden_size,
                                      rng, num_layers=config.lstm_layers)
        self.head = SoftmaxClassifier(config.hidden_size, rng)

    def forward(self, x, lengths=None) -> nn.Tensor:
        """Logits for a batch of embedded sessions."""
        return self.head(self.encoder(x, lengths))

    def probs(self, x, lengths=None) -> nn.Tensor:
        return nn.softmax(self.forward(x, lengths), axis=-1)

    def predict_dataset(self, dataset: SessionDataset,
                        vectorizer: SessionVectorizer,
                        batch_size: int = 256) -> tuple[np.ndarray, np.ndarray]:
        """Label + malicious-score inference over a whole dataset."""
        probs = self.probs_dataset(dataset, vectorizer, batch_size)
        return probs.argmax(axis=1), probs[:, 1]

    def probs_dataset(self, dataset: SessionDataset,
                      vectorizer: SessionVectorizer,
                      batch_size: int = 256) -> np.ndarray:
        """Softmax probabilities for every session, through the
        Tensor-free inference forward (the same bits as :meth:`probs`)."""
        all_probs = []
        for batch in iter_batches(dataset, batch_size):
            x, lengths = vectorizer.transform(dataset, indices=batch)
            all_probs.append(self.head.probs_numpy(
                self.encoder.encode_numpy(x, lengths)))
        return np.concatenate(all_probs, axis=0)
