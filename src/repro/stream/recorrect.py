"""Online label re-correction: refresh a served model from recent windows.

On a drift alarm (or a fixed period) the stream processor hands the
last K windows of sessions — with their *noisy* stream annotations —
to :func:`recorrect_model`, which re-runs the CLFD correction loop on
exactly the parts label noise can reach:

1. the corrector's **SSL encoder stays frozen** — it never saw labels,
   so drifting annotation quality cannot have poisoned it, and keeping
   it pins the representation space the reference statistics live in;
2. the corrector's classifier head is **re-trained** on the recent
   noisy labels (mixup-GCE, noise-robust by construction), then
   :meth:`~repro.core.label_corrector.LabelCorrector.correct` produces
   fresh corrected labels + confidences for the recent sessions;
3. the detector's classifier head is **fine-tuned** on the corrected
   labels over the frozen detector encoder, and the class centroids
   are re-fit — both through the same
   :meth:`~repro.core.stage.Stage.fit_head` batch training uses, so a
   :class:`~repro.train.TrainRun` journals their epochs (the stream
   processor writes no fine-tune snapshots: a crash replays the whole
   window from its head);
4. the refreshed model is persisted as a deterministic archive
   (``model-gen{n}.npz``) ready for the serving tier's rolling reload.

Sessions are rebuilt from raw activity tokens against the model's own
frozen vocabulary (:meth:`Vocabulary.encode_frozen`): novel tokens are
*dropped from training* but *counted* — they already raised the
monitor's ``oov_rate``, and training on padding would teach the head
that unknown means normal.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib

import numpy as np

from ..core import CLFD
from ..core.persistence import save_clfd
from ..data.sessions import Session, SessionDataset
from ..train import TrainRun
from .window import StreamSession

__all__ = ["RecorrectResult", "build_recent_dataset", "recorrect_model"]


@dataclasses.dataclass(frozen=True)
class RecorrectResult:
    """What one re-correction pass produced."""

    archive: pathlib.Path
    generation: int
    n_sessions: int
    n_dropped: int          # sessions empty after frozen-vocab encoding
    oov_tokens: int
    flipped: int            # corrected labels differing from noisy input
    corrector_loss: float   # final corrector-head epoch loss
    detector_loss: float    # final detector-head epoch loss

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["archive"] = str(self.archive)
        return payload


def build_recent_dataset(
        sessions: list[StreamSession],
        model: CLFD) -> tuple[SessionDataset | None, int, int]:
    """Encode stream sessions against the model's frozen vocabulary.

    Returns ``(dataset, dropped, oov_tokens)``; ``dataset`` is None
    when nothing survives encoding.  Integer activities are taken as
    already-encoded ids; token strings go through ``encode_frozen`` so
    OOV tokens are dropped (and tallied) instead of masquerading as
    padding.
    """
    vocab = model.vectorizer.vocab
    dropped = 0
    oov_tokens = 0
    encoded: list[Session] = []
    for session in sessions:
        if session.activities and isinstance(session.activities[0], str):
            if vocab is None:
                raise ValueError(
                    "archive has no vocabulary; stream events must carry "
                    "integer activity ids")
            ids, oov = vocab.encode_frozen(session.activities)
            oov_tokens += oov
        else:
            ids = [int(a) for a in session.activities]
        if not ids:
            dropped += 1
            continue
        encoded.append(Session(
            activities=ids, label=int(session.label),
            noisy_label=int(session.noisy_label),
            session_id=session.session_id, user=session.entity))
    if not encoded:
        return None, dropped, oov_tokens
    return (SessionDataset(encoded, vocab, name="stream-recent"),
            dropped, oov_tokens)


def recorrect_model(model: CLFD, sessions: list[StreamSession],
                    rng: np.random.Generator, *,
                    generation: int,
                    archive_dir: str | os.PathLike,
                    run: TrainRun | None = None,
                    head_epochs: int | None = None) -> RecorrectResult:
    """Re-correct recent labels and fine-tune the detector head.

    ``model`` must be a full-precision CLFD with both corrector and
    detector (quantized v3 archives drop the corrector; the processor
    refuses re-correction for those upfront).  The refreshed model is
    saved to ``archive_dir / model-gen{generation}.npz``.
    """
    if model.label_corrector is None:
        raise ValueError("re-correction needs an archive with a corrector "
                         "(full-precision v2 archive)")
    if model.fraud_detector is None:
        raise ValueError("re-correction needs an archive with a detector")
    run = run or TrainRun()
    config = model.config
    epochs = (config.classifier_epochs if head_epochs is None
              else int(head_epochs))

    recent, dropped, oov_tokens = build_recent_dataset(sessions, model)
    if recent is None:
        raise ValueError("no stream sessions survive frozen-vocab encoding")

    # Both heads train on the processor's checkpointed rng so resumed
    # streams replay identically.
    corrector = model.label_corrector
    corrector_history = corrector.fit_head(
        corrector.encode(recent), recent.noisy_labels(), rng=rng,
        epochs=epochs, run=run, scope="recorrect-head")
    labels, confidences = corrector.correct(recent)
    flipped = int(np.sum(labels != recent.noisy_labels()))

    detector = model.fraud_detector
    det_features = detector.encode(recent)
    detector_history = detector.fit_head(
        det_features, labels, rng=rng, epochs=epochs, run=run,
        scope="recorrect-detector")
    detector.fit_centroids(det_features, labels)

    model.corrected_labels = labels
    model.confidences = confidences
    archive = save_clfd(
        model, pathlib.Path(archive_dir) / f"model-gen{generation}.npz")
    return RecorrectResult(
        archive=archive, generation=generation,
        n_sessions=len(recent), n_dropped=dropped,
        oov_tokens=oov_tokens, flipped=flipped,
        corrector_loss=(float(corrector_history[-1])
                        if corrector_history else 0.0),
        detector_loss=(float(detector_history[-1])
                       if detector_history else 0.0))
