"""Vectorization pipeline: sessions -> padded embedding arrays.

Models in this repository consume ``(batch, time, dim)`` float arrays of
word2vec activity embeddings (the paper's *raw representation* x_i) plus
per-session lengths for mask-aware pooling.  :class:`SessionVectorizer`
owns that transformation.
"""

from __future__ import annotations

import numpy as np

from .sessions import SessionDataset
from .vocab import Vocabulary
from .word2vec import SkipGramModel, Word2VecConfig, train_word2vec

__all__ = ["SessionVectorizer"]


class SessionVectorizer:
    """Embeds sessions with a (trained or supplied) word2vec model.

    Parameters
    ----------
    model: trained :class:`SkipGramModel`.  Use :meth:`fit` to train one
        from a corpus in a single call.
    max_len: pad/truncate length for every batch (the paper fixes T per
        dataset; we default to the training corpus maximum).
    vocab: the activity vocabulary the embedding rows are indexed by.
        Optional for array-only workflows, but required by the serving
        layer to encode raw activity *tokens* (and persisted alongside
        the embeddings by :func:`repro.core.persistence.save_clfd`).
    """

    def __init__(self, model: SkipGramModel, max_len: int,
                 vocab: Vocabulary | None = None):
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        self.model = model
        self.max_len = max_len
        self.vocab = vocab
        # Epoch-persistent embedding cache: dataset identity -> fully
        # embedded (x, lengths).  Training loops re-embed the same
        # sessions every batch of every epoch; precomputing once turns
        # transform() into array slicing.  Entries keep a reference to
        # the dataset so an id() collision with a dead object is
        # impossible.
        self._cache: dict[int, tuple[SessionDataset, np.ndarray, np.ndarray]] = {}

    @classmethod
    def fit(cls, corpus: SessionDataset,
            config: Word2VecConfig | None = None,
            rng: np.random.Generator | None = None) -> "SessionVectorizer":
        """Train word2vec on ``corpus`` and return a ready vectorizer."""
        model = train_word2vec(corpus, config=config, rng=rng)
        return cls(model, max_len=corpus.max_length(), vocab=corpus.vocab)

    @property
    def dim(self) -> int:
        return self.model.dim

    def embedding_table(self, dtype) -> np.ndarray:
        """Every embedding row, in vocabulary-id order, cast to ``dtype``:
        the table the inference forward gathers activity ids from."""
        ids = np.arange(self.model.vocab_size)
        return self.model.embed_ids(ids).astype(dtype, copy=False)

    def precompute(self, dataset: SessionDataset) -> None:
        """Embed every session of ``dataset`` once and cache the result.

        Subsequent :meth:`transform` calls for the same dataset object
        (any ``indices``) slice the cached array instead of re-running
        the embedding lookup.  Call :meth:`evict` when done to release
        the (n, max_len, dim) buffer.
        """
        entry = self._cache.get(id(dataset))
        if entry is not None and entry[0] is dataset:
            return
        ids, lengths = dataset.padded_ids(self.max_len)
        self._cache[id(dataset)] = (dataset, self.model.embed_ids(ids), lengths)

    def evict(self, dataset: SessionDataset | None = None) -> None:
        """Drop the cache entry for ``dataset`` (or all entries)."""
        if dataset is None:
            self._cache.clear()
        else:
            self._cache.pop(id(dataset), None)

    def transform(self, dataset: SessionDataset,
                  indices: np.ndarray | None = None,
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(x, lengths)``: x is (n, max_len, dim) float64.

        ``indices`` selects a batch subset without materialising a new
        dataset object.  When the dataset has been :meth:`precompute`-d,
        this is a cache slice rather than an embedding pass.
        """
        entry = self._cache.get(id(dataset))
        if entry is not None and entry[0] is dataset:
            _, x, lengths = entry
            if indices is None:
                return x, lengths
            idx = np.asarray(indices)
            return x[idx], lengths[idx]
        subset = dataset if indices is None else dataset[np.asarray(indices)]
        ids, lengths = subset.padded_ids(self.max_len)
        return self.model.embed_ids(ids), lengths

    def transform_token_ids(self, dataset: SessionDataset,
                            indices: np.ndarray | None = None,
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Return raw padded ``(ids, lengths)`` for id-consuming models
        (DeepLog / LogBert operate on log keys rather than embeddings)."""
        subset = dataset if indices is None else dataset[np.asarray(indices)]
        return subset.padded_ids(self.max_len)
