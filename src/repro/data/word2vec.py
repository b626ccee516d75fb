"""Skip-gram word2vec with negative sampling (SGNS).

The paper represents each activity by a word-to-vector embedding trained
on the session corpus (§III).  This implementation is a compact,
vectorised NumPy SGNS trainer — the same algorithm as word2vec, sized
for activity vocabularies of a few dozen tokens.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .sessions import SessionDataset

__all__ = ["Word2VecConfig", "SkipGramModel", "train_word2vec"]


@dataclasses.dataclass
class Word2VecConfig:
    """Hyper-parameters for SGNS training."""

    dim: int = 50
    window: int = 2
    negatives: int = 5
    epochs: int = 3
    lr: float = 0.05
    batch_size: int = 512
    # Unigram distribution exponent from the original word2vec paper.
    smoothing: float = 0.75

    def __post_init__(self):
        if self.dim < 1 or self.window < 1 or self.negatives < 1:
            raise ValueError("dim, window and negatives must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


class SkipGramModel:
    """Trained SGNS embeddings: input vectors indexed by activity id."""

    def __init__(self, vectors: np.ndarray):
        self.vectors = vectors

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.vectors.shape[0]

    def embed_ids(self, ids: np.ndarray) -> np.ndarray:
        """Lookup: ids of any shape -> embeddings with a trailing dim axis."""
        return self.vectors[np.asarray(ids, dtype=np.int64)]


def _skipgram_pairs(dataset: SessionDataset, window: int) -> np.ndarray:
    """All (center, context) id pairs within the window, across sessions."""
    pairs: list[tuple[int, int]] = []
    for session in dataset:
        seq = session.activities
        for i, center in enumerate(seq):
            lo = max(0, i - window)
            hi = min(len(seq), i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    pairs.append((center, seq[j]))
    if not pairs:
        raise ValueError("no skip-gram pairs; dataset has only length-1 sessions")
    return np.asarray(pairs, dtype=np.int64)


def _unigram_table(dataset: SessionDataset, vocab_size: int,
                   smoothing: float) -> np.ndarray:
    counts = np.zeros(vocab_size, dtype=np.float64)
    for session in dataset:
        np.add.at(counts, session.activities, 1.0)
    counts = np.maximum(counts, 1e-8) ** smoothing
    return counts / counts.sum()


def train_word2vec(dataset: SessionDataset,
                   config: Word2VecConfig | None = None,
                   rng: np.random.Generator | None = None) -> SkipGramModel:
    """Train SGNS embeddings over the sessions in ``dataset``.

    Returns a :class:`SkipGramModel` whose row ``i`` embeds activity id
    ``i`` of ``dataset.vocab`` (row 0, the pad token, stays ~zero because
    it never occurs in sessions).
    """
    config = config or Word2VecConfig()
    rng = rng or np.random.default_rng(0)
    vocab_size = len(dataset.vocab)
    pairs = _skipgram_pairs(dataset, config.window)
    noise = _unigram_table(dataset, vocab_size, config.smoothing)

    scale = 0.5 / config.dim
    w_in = rng.uniform(-scale, scale, size=(vocab_size, config.dim))
    w_out = np.zeros((vocab_size, config.dim))

    total_steps = config.epochs * max(1, -(-len(pairs) // config.batch_size))
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(pairs))
        for start in range(0, len(order), config.batch_size):
            batch = pairs[order[start:start + config.batch_size]]
            centers, contexts = batch[:, 0], batch[:, 1]
            negatives = rng.choice(vocab_size, p=noise,
                                   size=(len(batch), config.negatives))
            # Linear learning-rate decay, as in the reference word2vec.
            lr = config.lr * max(1.0 - step / total_steps, 1e-2)
            _sgns_step(w_in, w_out, centers, contexts, negatives, lr)
            step += 1
    return SkipGramModel(w_in)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    ex = np.exp(x[~positive])
    out[~positive] = ex / (1.0 + ex)
    return out


def _sgns_step(w_in: np.ndarray, w_out: np.ndarray, centers: np.ndarray,
               contexts: np.ndarray, negatives: np.ndarray, lr: float) -> None:
    """One SGNS gradient step over a batch (in-place updates)."""
    v_c = w_in[centers]                      # (B, D)
    u_pos = w_out[contexts]                  # (B, D)
    u_neg = w_out[negatives]                 # (B, K, D)

    pos_score = _stable_sigmoid((v_c * u_pos).sum(axis=1))          # (B,)
    neg_score = _stable_sigmoid(np.einsum("bd,bkd->bk", v_c, u_neg))

    g_pos = (pos_score - 1.0)[:, None]       # d/du_pos
    g_neg = neg_score[:, :, None]            # d/du_neg

    clip = 1.0  # bounds per-step movement; prevents norm blow-up on tiny vocabs
    grad_center = np.clip(g_pos * u_pos + (g_neg * u_neg).sum(axis=1),
                          -clip, clip)
    grad_pos = np.clip(g_pos * v_c, -clip, clip)
    grad_neg = np.clip(g_neg * v_c[:, None, :], -clip, clip)

    np.add.at(w_in, centers, -lr * grad_center)
    np.add.at(w_out, contexts, -lr * grad_pos)
    np.add.at(w_out, negatives.ravel(),
              -lr * grad_neg.reshape(-1, w_out.shape[1]))
