"""Session datasets: data model, synthetic benchmarks, noise, embeddings."""

from .generators import (
    DATASET_GENERATORS,
    Archetype,
    CertLikeGenerator,
    OpenStackLikeGenerator,
    SessionGenerator,
    SplitSpec,
    WikiLikeGenerator,
    make_dataset,
)
from .noise import (
    apply_class_dependent_noise,
    apply_uniform_noise,
    empirical_noise_rates,
)
from .pipeline import SessionVectorizer
from .sessions import MALICIOUS, NORMAL, Session, SessionDataset, iter_batches
from .split_cache import cached_splits, clear_split_cache, split_cache_info
from .vocab import PAD_TOKEN, Vocabulary
from .word2vec import SkipGramModel, Word2VecConfig, train_word2vec

__all__ = [
    "NORMAL", "MALICIOUS", "Session", "SessionDataset", "iter_batches",
    "PAD_TOKEN", "Vocabulary",
    "Archetype", "SplitSpec", "SessionGenerator",
    "CertLikeGenerator", "WikiLikeGenerator", "OpenStackLikeGenerator",
    "DATASET_GENERATORS", "make_dataset",
    "cached_splits", "clear_split_cache", "split_cache_info",
    "apply_uniform_noise", "apply_class_dependent_noise",
    "empirical_noise_rates",
    "Word2VecConfig", "SkipGramModel", "train_word2vec",
    "SessionVectorizer",
]
