"""One CLFD stage: an LSTM session encoder plus a two-layer head.

Both CLFD stages, the label corrector (§III-A) and the fraud detector
(§III-B), pre-train an encoder and then train a two-layer FCNN with
mixup-GCE on its frozen representations (Algorithm 1, lines 13–19).
:class:`Stage` owns what they share:

* building the encoder and head under ``config.compute_dtype``;
* the fitted flag;
* the learned state, :meth:`state_dict` / :meth:`load_state_dict`,
  which phase checkpoints, ``.npz`` archives and
  :func:`~repro.core.persistence.model_fingerprint` all go through;
* :meth:`fit_head`, the one call mapping config fields onto
  :func:`~repro.core.training.train_classifier_head`, and
  :meth:`parameters` for the baselines that train encoder and head
  end to end (:mod:`repro.baselines`);
* inference: :meth:`inference_forward`, :meth:`encode`,
  :meth:`predict`, :meth:`predict_proba`.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.pipeline import SessionVectorizer
from ..data.sessions import SessionDataset
from ..train import TrainRun
from .config import CLFDConfig
from .encoder import InferenceForward, SessionEncoder, SoftmaxClassifier
from .training import train_classifier_head

__all__ = ["Stage"]


class Stage:
    """Encoder + two-layer head; see the module docstring."""

    def __init__(self, config: CLFDConfig, vectorizer: SessionVectorizer,
                 rng: np.random.Generator):
        self.config = config
        self.vectorizer = vectorizer
        self._rng = rng
        with nn.default_dtype(config.compute_dtype):
            self.encoder = SessionEncoder(config.embedding_dim,
                                          config.hidden_size,
                                          rng, num_layers=config.lstm_layers)
            self.classifier = SoftmaxClassifier(self.encoder.output_dim, rng)
        self.classifier_loss_history: list[float] = []
        self._fitted = False

    # ------------------------------------------------------------------
    # Learned state
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The learned arrays: ``{"encoder": {...}, "classifier": {...}}``."""
        return {"encoder": self.encoder.state_dict(),
                "classifier": self.classifier.state_dict()}

    def load_state_dict(self, state: dict, *, copy: bool = True) -> "Stage":
        """Restore :meth:`state_dict` output and mark the stage fitted.

        Keys other than the stage's own are ignored, so a phase
        checkpoint loads as it is.  ``copy=False`` binds the arrays
        (see :meth:`repro.nn.Module.load_state_dict`).
        """
        self.encoder.load_state_dict(state["encoder"], copy=copy)
        self.classifier.load_state_dict(state["classifier"], copy=copy)
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def parameters(self) -> list[nn.Parameter]:
        """The encoder's parameters, then the head's: what a model
        training the stage end to end optimises."""
        return self.encoder.parameters() + self.classifier.parameters()

    def fit_head(self, features: np.ndarray, labels: np.ndarray, *,
                 rng: np.random.Generator | None = None,
                 epochs: int | None = None, run: TrainRun | None = None,
                 scope: str = "head") -> list[float]:
        """Train the head on frozen ``features`` with the config's loss.

        ``rng`` defaults to the stage's own generator and ``epochs`` to
        ``config.classifier_epochs``.  Returns (and keeps as
        ``classifier_loss_history``) the per-epoch loss history.
        """
        config = self.config
        self.classifier_loss_history = train_classifier_head(
            self.classifier, features, labels,
            self._rng if rng is None else rng,
            loss=config.classifier_loss, q=config.q, beta=config.mixup_beta,
            epochs=config.classifier_epochs if epochs is None else epochs,
            batch_size=config.batch_size, lr=config.lr,
            grad_clip=config.grad_clip, run=run, scope=scope)
        return self.classifier_loss_history

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def inference_forward(self) -> InferenceForward:
        """The encoder and head as the NumPy inference forward every
        prediction runs."""
        return self.encoder.inference_forward(
            head=self.classifier.head(),
            table=self.vectorizer.embedding_table(self.encoder.dtype),
            max_len=self.vectorizer.max_len,
            batch_size=self.config.batch_size, **self._scoring())

    def _scoring(self) -> dict:
        """Extra :class:`InferenceForward` options; the head scores alone."""
        return {}

    def encode(self, dataset: SessionDataset) -> np.ndarray:
        """Frozen-encoder representations ``v_i`` of every session."""
        self._require_fitted()
        return self.inference_forward().encode_dataset(dataset)

    def predict(self, dataset: SessionDataset, *,
                return_embeddings: bool = False):
        """Classify sessions: returns (labels, malicious scores).

        ``return_embeddings=True`` appends the encoded representations
        (the same array classification ran on) as a third element.
        """
        self._require_fitted()
        return self.inference_forward().predict(
            dataset, return_embeddings=return_embeddings)

    def predict_proba(self, dataset: SessionDataset) -> np.ndarray:
        """Class probabilities ``[p(normal), p(malicious)]`` per session:
        the head's softmax, or the two-column form of a centroid score."""
        self._require_fitted()
        forward = self.inference_forward()
        return forward.probs(forward.encode_dataset(dataset))

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(
                f"{type(self).__name__}.fit must be called first")
