"""Distill a 1-layer student detector from a fitted CLFD teacher.

The teacher's mixup-GCE head produces calibrated soft scores (that is
the point of the noise-corrected training signal — see ChiMera/PLS in
PAPERS.md), so a much smaller student can be trained directly on
``teacher.predict_proba`` targets with plain soft-target cross-entropy:
no labels, no corrector, no contrastive pre-training.

The student is a :class:`~repro.core.fraud_detector.FraudDetector`
built from the teacher's config with ``lstm_layers=1`` (and no label
corrector), sharing the teacher's vectorizer — same vocabulary, same
embedding table — and trained **end-to-end** (encoder + head together)
through the existing :class:`~repro.train.TrainRun` trainer loop under
the ``distill`` scope, so checkpointing/journaling work exactly as for
any other phase.  Class centroids are fitted against the teacher's
hard labels so the ``inference="centroid"`` ablation keeps working.

The result is a normal fitted :class:`~repro.core.CLFD`: it persists
through :func:`~repro.core.persistence.save_clfd`, serves through the
engine, and quantizes through :mod:`repro.quant.quantize` — the
intended production stack is distill, then quantize the student.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .. import nn
from ..core.clfd import CLFD
from ..core.fraud_detector import FraudDetector
from ..data.sessions import SessionDataset, iter_batches
from ..losses import cce_loss
from ..train import TrainRun

__all__ = ["distill_student", "student_config"]


def student_config(teacher_config):
    """The student architecture: the teacher's config, one layer deep.

    ``use_label_corrector`` is switched off — the student never sees
    labels, so the corrector has nothing to correct.
    """
    return dataclasses.replace(teacher_config, lstm_layers=1,
                               use_label_corrector=False)


class _Student(nn.Module):
    """Encoder + head as one module, so the trainer sees every
    parameter (distillation trains the student end-to-end, unlike the
    two-stage teacher)."""

    def __init__(self, encoder, classifier):
        super().__init__()
        self.encoder = encoder
        self.classifier = classifier


def distill_student(teacher: CLFD, train: SessionDataset, *,
                    epochs: int | None = None, lr: float | None = None,
                    rng: np.random.Generator | None = None,
                    run: TrainRun | None = None) -> CLFD:
    """Train a 1-layer student on the teacher's soft scores.

    Returns a fitted CLFD (student detector, no corrector) ready for
    :func:`~repro.core.persistence.save_clfd`.  The per-epoch mean
    distillation loss is left on
    ``model.fraud_detector.classifier_loss_history``.
    """
    if teacher.vectorizer is None or teacher.fraud_detector is None:
        raise ValueError("distillation requires a fitted teacher with a "
                         "fraud detector")
    rng = rng if rng is not None else np.random.default_rng(0)
    config = student_config(teacher.config)
    epochs = epochs if epochs is not None else config.classifier_epochs
    lr = lr if lr is not None else config.lr

    targets = np.asarray(teacher.predict_proba(train), dtype=np.float64)

    model = CLFD(config)
    model.vectorizer = teacher.vectorizer
    detector = FraudDetector(config, model.vectorizer, rng)
    module = _Student(detector.encoder, detector.classifier)
    optimizer = nn.Adam(module.parameters(), lr=lr)
    dtype = detector.encoder.dtype

    def batches(batch_rng: np.random.Generator):
        return iter_batches(train, config.batch_size, batch_rng)

    def step(batch: np.ndarray):
        if batch.size < 2:
            return None
        x, lengths = model.vectorizer.transform(train, indices=batch)
        z = detector.encoder(x, lengths)
        probs = detector.classifier.probs(z)
        return cce_loss(probs, np.asarray(targets[batch], dtype=dtype))

    trainer = (run or TrainRun()).trainer("distill", module, optimizer,
                                          grad_clip=config.grad_clip)
    model.vectorizer.precompute(train)
    try:
        history = trainer.fit(batches, step, epochs=epochs, rng=rng)
        features = detector.inference_forward().encode_dataset(train)
    finally:
        model.vectorizer.evict(train)

    detector.classifier_loss_history = history
    detector.fit_centroids(features, targets.argmax(axis=1))
    model.fraud_detector = detector
    return model
