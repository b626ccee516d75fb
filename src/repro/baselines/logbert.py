"""LogBert baseline (Guo et al. [48]).

LogBert learns normal behaviour with masked-log-key prediction: random
positions of (noisily) normal sessions are masked and a transformer must
recover them.  At inference, sessions whose masked keys are poorly
predicted are anomalous.  Like DeepLog, it has no noise-robustness
mechanism — noisy "normal" sessions contaminate the model of normality.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.sessions import NORMAL, SessionDataset, iter_batches
from ..train import TrainRun
from .base import BaselineConfig, BaselineModel

__all__ = ["LogBertModel"]

_MASK_RATE = 0.3


class LogBertModel(BaselineModel):
    """Masked-key transformer over activity ids."""

    name = "LogBert"

    def __init__(self, config: BaselineConfig | None = None,
                 num_heads: int = 4, num_layers: int = 2, top_k: int = 3,
                 threshold_quantile: float = 0.9, score_rounds: int = 3):
        super().__init__(config)
        self.num_heads = num_heads
        self.num_layers = num_layers
        self.top_k = top_k
        # Calibrated on the (noisily) normal training sessions' scores.
        self.threshold_quantile = threshold_quantile
        # Averaging several independent masking rounds stabilises the
        # per-session score (each round masks different positions).
        self.score_rounds = score_rounds
        self.miss_threshold: float | None = None
        self.embedding: nn.Embedding | None = None
        self.encoder: nn.TransformerEncoder | None = None
        self.out: nn.Linear | None = None
        self.mask_id: int | None = None

    def _fit(self, train: SessionDataset, rng: np.random.Generator,
             run: TrainRun) -> None:
        config = self.config
        # Reserve an extra row in the embedding for the [MASK] token.
        vocab_size = len(train.vocab)
        self.mask_id = vocab_size
        self.embedding = nn.Embedding(vocab_size + 1, config.embedding_dim, rng)
        self.encoder = nn.TransformerEncoder(
            dim=config.embedding_dim, num_heads=self.num_heads,
            ff_dim=2 * config.embedding_dim, num_layers=self.num_layers,
            rng=rng, max_len=max(self.vectorizer.max_len, 8),
        )
        self.out = nn.Linear(config.embedding_dim, vocab_size, rng)
        params = (self.embedding.parameters() + self.encoder.parameters()
                  + self.out.parameters())
        optimizer = nn.Adam(params, lr=config.lr)

        normal = train[train.indices_with_noisy_label(NORMAL)]
        ids, lengths = normal.padded_ids(self.vectorizer.max_len)

        def batches(batch_rng: np.random.Generator):
            return iter_batches(normal, config.batch_size, batch_rng)

        def step(batch: np.ndarray):
            return self._mlm_loss(ids[batch], lengths[batch], rng)

        trainer = run.trainer(
            "mlm",
            {"embedding": self.embedding, "encoder": self.encoder,
             "out": self.out},
            optimizer, grad_clip=config.grad_clip)
        trainer.fit(batches, step, epochs=config.epochs, rng=rng)

        train_scores = self._session_scores(normal)
        self.miss_threshold = float(
            np.quantile(train_scores, self.threshold_quantile)
        )

    def _session_scores(self, dataset: SessionDataset) -> np.ndarray:
        """Average miss fraction over several independent mask rounds."""
        rounds = [
            self._miss_fractions(dataset, np.random.default_rng(1234 + i))
            for i in range(self.score_rounds)
        ]
        return np.mean(rounds, axis=0)

    def _mask(self, ids: np.ndarray, lengths: np.ndarray,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Mask ~30% of valid positions; guarantee one mask per session."""
        steps = np.arange(ids.shape[1])[None, :]
        valid = steps < lengths[:, None]
        mask = (rng.random(ids.shape) < _MASK_RATE) & valid
        for row in range(ids.shape[0]):
            if not mask[row].any() and lengths[row] > 0:
                mask[row, int(rng.integers(0, lengths[row]))] = True
        masked = ids.copy()
        masked[mask] = self.mask_id
        return masked, mask

    def _mlm_loss(self, ids: np.ndarray, lengths: np.ndarray,
                  rng: np.random.Generator):
        """Masked-key cross-entropy at the masked positions.

        The embedding rows are gathered in NumPy because the step
        (inherited from the original loop) deliberately detaches them;
        only the transformer and head receive gradients.
        """
        masked, mask = self._mask(ids, lengths, rng)
        if not mask.any():
            return None
        steps = np.arange(ids.shape[1])[None, :]
        attn_mask = (steps < lengths[:, None]).astype(np.float64)
        embedded = self.embedding.weight.data[masked]
        hidden = self.encoder(nn.Tensor(embedded), mask=attn_mask)
        log_probs = nn.log_softmax(self.out(hidden), axis=-1)
        batch, time = embedded.shape[:2]
        rows = np.repeat(np.arange(batch), time)
        cols = np.tile(np.arange(time), batch)
        picked = log_probs[rows, cols, ids.ravel()]
        weights = mask.astype(np.float64).ravel()
        return -(picked * nn.Tensor(weights)).sum() * nn.Tensor(
            1.0 / mask.sum())

    def _miss_fractions(self, dataset: SessionDataset,
                        rng: np.random.Generator) -> np.ndarray:
        """Per-session fraction of masked keys outside top-k predictions."""
        ids, lengths = dataset.padded_ids(self.vectorizer.max_len)
        fractions = np.zeros(len(dataset))
        with nn.no_grad():
            for start in range(0, len(dataset), 256):
                rows_slice = slice(start, min(start + 256, len(dataset)))
                batch_ids = ids[rows_slice]
                batch_lengths = lengths[rows_slice]
                masked, mask = self._mask(batch_ids, batch_lengths, rng)
                steps = np.arange(batch_ids.shape[1])[None, :]
                attn_mask = (steps < batch_lengths[:, None]).astype(np.float64)
                hidden = self.encoder(nn.Tensor(self.embedding(masked)),
                                      mask=attn_mask)
                logits = self.out(hidden).data
                ranks = np.argsort(-logits, axis=-1)[:, :, : self.top_k]
                hit = (ranks == batch_ids[:, :, None]).any(axis=-1)
                counts = np.maximum(mask.sum(axis=1), 1)
                fractions[rows_slice] = ((~hit) & mask).sum(axis=1) / counts
        return fractions

    def _predict(self, dataset: SessionDataset) -> tuple[np.ndarray, np.ndarray]:
        # Fixed seeds inside _session_scores keep inference reproducible.
        scores = self._session_scores(dataset)
        labels = (scores > self.miss_threshold).astype(np.int64)
        return labels, scores
