"""CLFD's fraud detector (§III-B, Algorithm 1).

Stage 1 — *supervised pre-training*: a fresh LSTM session encoder is
trained with the confidence-weighted supervised contrastive loss
(Eq. 5–6).  Every batch S of R sessions is joined by an auxiliary batch
S¹ of M corrected-malicious sessions so the minority class is always
represented among the contrast candidates.

Stage 2 — *mixup-based classifier training*: a two-layer FCNN is trained
with mixup-GCE over the frozen encoded representations, supervised by
the corrected labels.  The FCNN performs test-time inference; a
centroid-proximity alternative implements the "w/o classifier" ablation.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.pipeline import SessionVectorizer
from ..data.sessions import MALICIOUS, NORMAL, SessionDataset, iter_batches
from ..losses import sup_con_loss
from ..train import TrainRun
from .config import CLFDConfig
from .encoder import InferenceForward, SessionEncoder, SoftmaxClassifier
from .training import train_classifier_head

__all__ = ["FraudDetector"]


class FraudDetector:
    """Weighted sup-con encoder + mixup-GCE FCNN (Algorithm 1)."""

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
        self.supcon_loss_history: list[float] = []
        self.classifier_loss_history: list[float] = []
        self.centroids: np.ndarray | None = None
        self._fitted = False

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, train: SessionDataset, corrected_labels: np.ndarray,
            confidences: np.ndarray,
            run: TrainRun | None = None) -> "FraudDetector":
        """Run Algorithm 1 given the label corrector's outputs."""
        run = run or TrainRun()
        corrected_labels = np.asarray(corrected_labels, dtype=np.int64)
        confidences = np.asarray(confidences, dtype=np.float64)
        if corrected_labels.shape != (len(train),):
            raise ValueError("corrected_labels must cover the training set")
        if confidences.shape != (len(train),):
            raise ValueError("confidences must cover the training set")

        # Embed the whole training set once; every sup-con batch of
        # every epoch then slices the cached array.
        self.vectorizer.precompute(train)
        try:
            self._pretrain_supcon(train, corrected_labels, confidences, run)
            features = self._encode_dataset(train)
        finally:
            self.vectorizer.evict(train)
        self.classifier_loss_history = train_classifier_head(
            self.classifier, features, corrected_labels, self._rng,
            loss=self.config.classifier_loss, q=self.config.q,
            beta=self.config.mixup_beta,
            epochs=self.config.classifier_epochs,
            batch_size=self.config.batch_size, lr=self.config.lr,
            grad_clip=self.config.grad_clip, run=run,
        )
        self._fit_centroids(features, corrected_labels)
        self._fitted = True
        return self

    def _pretrain_supcon(self, train: SessionDataset,
                         labels: np.ndarray, confidences: np.ndarray,
                         run: TrainRun | None = None) -> None:
        run = run or TrainRun()
        config = self.config
        optimizer = nn.Adam(self.encoder.parameters(), lr=config.lr)
        malicious_pool = np.flatnonzero(labels == MALICIOUS)

        def batches(rng: np.random.Generator):
            return iter_batches(train, config.batch_size, rng)

        def step(batch: np.ndarray):
            if batch.size < 2:
                return None
            rows = batch
            if malicious_pool.size:
                aux = self._rng.choice(
                    malicious_pool,
                    size=min(config.aux_batch_size, malicious_pool.size),
                    replace=False,
                )
                rows = np.concatenate([batch, aux])
            x, lengths = self.vectorizer.transform(train, indices=rows)
            z = self.encoder(x, lengths)
            return sup_con_loss(
                z, labels[rows], temperature=config.temperature,
                confidences=confidences[rows],
                num_anchors=batch.size,
                variant=config.supcon_variant,
                threshold=config.filter_threshold,
            )

        trainer = run.trainer("supcon", self.encoder, optimizer,
                              grad_clip=config.grad_clip)
        self.supcon_loss_history = trainer.fit(
            batches, step, epochs=config.supcon_epochs, rng=self._rng)

    def _fit_centroids(self, features: np.ndarray,
                       labels: np.ndarray) -> None:
        """Class centers in representation space ("w/o classifier" path)."""
        centroids = np.zeros((2, features.shape[1]))
        for cls in (NORMAL, MALICIOUS):
            members = features[labels == cls]
            if members.size:
                centroids[cls] = members.mean(axis=0)
        self.centroids = centroids

    def _encode_dataset(self, dataset: SessionDataset) -> np.ndarray:
        return self.inference_forward().encode_dataset(dataset)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def inference_forward(self) -> InferenceForward:
        """The encoder and the FCNN head (or, for ``inference="centroid"``,
        the "w/o classifier" ablation's class centroids) as the NumPy
        inference forward every prediction runs."""
        dtype = self.encoder.dtype
        return self.encoder.inference_forward(
            head=self.classifier.head(),
            centroid=self.config.inference == "centroid",
            centroids=self.centroids,
            table=self.vectorizer.embedding_table(dtype),
            max_len=self.vectorizer.max_len,
            batch_size=self.config.batch_size)

    def predict(self, dataset: SessionDataset, *,
                return_embeddings: bool = False):
        """Classify test sessions: returns (labels, malicious scores).

        ``return_embeddings=True`` appends the encoded representations
        (the same array classification ran on) as a third element.
        Centroid inference scores by the softmin over the two centroid
        distances (:func:`~repro.core.encoder.centroid_scores`).
        """
        self._require_fitted()
        return self.inference_forward().predict(
            dataset, return_embeddings=return_embeddings)

    def predict_proba(self, dataset: SessionDataset) -> np.ndarray:
        """Class probabilities per session.

        FCNN inference returns the head's softmax; centroid inference
        ("w/o classifier" ablation) turns its softmin proximity score
        into a two-column distribution.
        """
        self._require_fitted()
        forward = self.inference_forward()
        return forward.probs(forward.encode_dataset(dataset))

    def encode(self, dataset: SessionDataset) -> np.ndarray:
        """Expose encoded representations (used by analyses/examples)."""
        self._require_fitted()
        return self._encode_dataset(dataset)

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("FraudDetector.fit must be called first")
