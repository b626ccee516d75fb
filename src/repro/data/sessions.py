"""Session data model: activity sequences with labels and batching helpers.

Terminology follows the paper (§III): a *session* is a sequence of user
activities; label 0 is normal, label 1 is malicious; ``noisy_label`` holds
the heuristic annotation actually visible to the learner while ``label``
keeps the ground truth for evaluation only.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Sequence

import numpy as np

from .vocab import Vocabulary

__all__ = ["NORMAL", "MALICIOUS", "Session", "SessionDataset", "iter_batches"]

NORMAL = 0
MALICIOUS = 1


@dataclasses.dataclass
class Session:
    """One user-activity session.

    Attributes
    ----------
    activities: activity ids (into a :class:`Vocabulary`), in time order.
    label: ground-truth class (0 normal / 1 malicious).
    noisy_label: the label visible to the learner; equals ``label`` until a
        noise process overwrites it.
    session_id: stable identifier (useful for debugging / joins).
    user: originating user id, carried through from the generator.
    """

    activities: list[int]
    label: int
    noisy_label: int = -1
    session_id: str = ""
    user: str = ""

    def __post_init__(self):
        if self.label not in (NORMAL, MALICIOUS):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        if self.noisy_label == -1:
            self.noisy_label = self.label
        if not self.activities:
            raise ValueError("a session must contain at least one activity")

    def __len__(self) -> int:
        return len(self.activities)

    def copy(self) -> "Session":
        """Independent copy; mutating one side never affects the other."""
        return Session(activities=list(self.activities), label=self.label,
                       noisy_label=self.noisy_label,
                       session_id=self.session_id, user=self.user)


class SessionDataset:
    """An ordered collection of sessions sharing one vocabulary."""

    def __init__(self, sessions: Sequence[Session], vocab: Vocabulary,
                 name: str = ""):
        self.sessions = list(sessions)
        self.vocab = vocab
        self.name = name

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.sessions)

    def __getitem__(self, index):
        if isinstance(index, (slice, list, np.ndarray)):
            if isinstance(index, slice):
                chosen = self.sessions[index]
            else:
                chosen = [self.sessions[int(i)] for i in index]
            return SessionDataset(chosen, self.vocab, name=self.name)
        return self.sessions[index]

    def __iter__(self) -> Iterator[Session]:
        return iter(self.sessions)

    # ------------------------------------------------------------------
    # Label views
    # ------------------------------------------------------------------
    def labels(self) -> np.ndarray:
        """Ground-truth labels (evaluation only)."""
        return np.array([s.label for s in self.sessions], dtype=np.int64)

    def noisy_labels(self) -> np.ndarray:
        """Labels visible to the learner."""
        return np.array([s.noisy_label for s in self.sessions], dtype=np.int64)

    def set_noisy_labels(self, labels: Sequence[int]) -> None:
        if len(labels) != len(self.sessions):
            raise ValueError("label count does not match session count")
        for session, label in zip(self.sessions, labels):
            session.noisy_label = int(label)

    def class_counts(self, noisy: bool = False) -> tuple[int, int]:
        """Return (#normal, #malicious) by ground-truth or noisy labels."""
        labels = self.noisy_labels() if noisy else self.labels()
        return int((labels == NORMAL).sum()), int((labels == MALICIOUS).sum())

    def indices_with_noisy_label(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.noisy_labels() == label)

    # ------------------------------------------------------------------
    # Tensor views
    # ------------------------------------------------------------------
    def max_length(self) -> int:
        return max(len(s) for s in self.sessions)

    def padded_ids(self, max_len: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Return (ids, lengths): ids is (n, max_len) padded with pad_id."""
        if max_len is None:
            max_len = self.max_length()
        n = len(self.sessions)
        ids = np.full((n, max_len), self.vocab.pad_id, dtype=np.int64)
        lengths = np.zeros(n, dtype=np.int64)
        for row, session in enumerate(self.sessions):
            seq = session.activities[:max_len]
            ids[row, :len(seq)] = seq
            lengths[row] = len(seq)
        return ids, lengths

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------
    def copy(self) -> "SessionDataset":
        """Deep copy of the sessions (vocabulary is shared, it is immutable).

        Noise processes overwrite ``Session.noisy_label`` in place, so
        cached pristine splits must hand out copies — see
        :func:`repro.data.split_cache.cached_splits`.
        """
        return SessionDataset([s.copy() for s in self.sessions], self.vocab,
                              name=self.name)


def iter_batches(dataset: SessionDataset, batch_size: int,
                 rng: np.random.Generator | None = None,
                 drop_last: bool = False) -> Iterator[np.ndarray]:
    """Yield index arrays covering the dataset in (shuffled) batches."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.arange(len(dataset))
    if rng is not None:
        order = rng.permutation(order)
    for start in range(0, len(order), batch_size):
        batch = order[start:start + batch_size]
        if drop_last and batch.size < batch_size:
            return
        yield batch
