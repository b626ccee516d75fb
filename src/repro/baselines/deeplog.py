"""DeepLog baseline (Du et al. [16]).

DeepLog models normal behaviour as a next-log-key language model: an
LSTM is trained to predict the next activity id, using only sessions
the (noisy) labels mark as normal.  At inference, a session is anomalous
if too many of its transitions fall outside the model's top-k
predictions.  Noisy labels poison the "normal" training pool, which is
why DeepLog degrades in Tables I/II.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.sessions import NORMAL, SessionDataset, iter_batches
from ..train import TrainRun
from .base import BaselineConfig, BaselineModel

__all__ = ["DeepLogModel"]


class DeepLogModel(BaselineModel):
    """Next-key LSTM language model over activity ids."""

    name = "DeepLog"

    def __init__(self, config: BaselineConfig | None = None, top_k: int = 3,
                 threshold_quantile: float = 0.95):
        super().__init__(config)
        self.top_k = top_k
        # A session is malicious if its top-k miss fraction exceeds the
        # threshold calibrated at this quantile of the (noisily) normal
        # training sessions' scores — DeepLog's validation-set procedure.
        self.threshold_quantile = threshold_quantile
        self.miss_threshold: float | None = None
        self.embedding: nn.Embedding | None = None
        self.lstm: nn.LSTM | None = None
        self.out: nn.Linear | None = None

    def _fit(self, train: SessionDataset, rng: np.random.Generator,
             run: TrainRun) -> None:
        config = self.config
        vocab_size = len(train.vocab)
        self.embedding = nn.Embedding(vocab_size, config.embedding_dim, rng)
        self.lstm = nn.LSTM(config.embedding_dim, config.hidden_size, rng,
                            num_layers=config.lstm_layers)
        self.out = nn.Linear(config.hidden_size, vocab_size, rng)
        params = (self.embedding.parameters() + self.lstm.parameters()
                  + self.out.parameters())
        optimizer = nn.Adam(params, lr=config.lr)

        normal_idx = train.indices_with_noisy_label(NORMAL)
        normal = train[normal_idx]
        ids, lengths = normal.padded_ids(self.vectorizer.max_len)

        def batches(batch_rng: np.random.Generator):
            return iter_batches(normal, config.batch_size, batch_rng)

        def step(batch: np.ndarray):
            return self._lm_loss(ids[batch], lengths[batch])

        trainer = run.trainer(
            "lm",
            {"embedding": self.embedding, "lstm": self.lstm,
             "out": self.out},
            optimizer, grad_clip=config.grad_clip)
        trainer.fit(batches, step, epochs=config.epochs, rng=rng)

        # Calibrate the anomaly threshold on the training normal pool.
        train_scores = self._miss_fractions(normal)
        self.miss_threshold = float(
            np.quantile(train_scores, self.threshold_quantile)
        )

    def _lm_loss(self, ids: np.ndarray, lengths: np.ndarray):
        """Mean next-key cross-entropy over the valid transitions."""
        if ids.shape[1] < 2:
            return None
        inputs, targets = ids[:, :-1], ids[:, 1:]
        batch, steps = targets.shape
        rows = np.repeat(np.arange(batch), steps)
        cols = np.tile(np.arange(steps), batch)
        mask = (cols + 1 < lengths[rows]).astype(np.float64)
        total = mask.sum()
        if total == 0:
            return None
        logits = self.out(self.lstm(self.embedding(inputs))[0])
        log_probs = nn.log_softmax(logits, axis=-1)
        picked = log_probs[rows, cols, targets.ravel()]
        return -(picked * nn.Tensor(mask)).sum() * nn.Tensor(1.0 / total)

    def _miss_fractions(self, dataset: SessionDataset) -> np.ndarray:
        """Per-session fraction of transitions missing the top-k set."""
        ids, lengths = dataset.padded_ids(self.vectorizer.max_len)
        fractions = np.zeros(len(dataset))
        with nn.no_grad():
            for start in range(0, len(dataset), 256):
                rows = slice(start, min(start + 256, len(dataset)))
                batch_ids = ids[rows]
                logits = self.out(
                    self.lstm(self.embedding(batch_ids[:, :-1]))[0]
                ).data
                ranks = np.argsort(-logits, axis=-1)[:, :, : self.top_k]
                targets = batch_ids[:, 1:]
                hit = (ranks == targets[:, :, None]).any(axis=-1)
                steps = np.arange(targets.shape[1])[None, :]
                valid = steps + 1 < lengths[rows][:, None]
                counts = np.maximum(valid.sum(axis=1), 1)
                fractions[rows] = ((~hit) & valid).sum(axis=1) / counts
        return fractions

    def _predict(self, dataset: SessionDataset) -> tuple[np.ndarray, np.ndarray]:
        scores = self._miss_fractions(dataset)
        labels = (scores > self.miss_threshold).astype(np.int64)
        return labels, scores
