"""Shared training loop for CLFD's classifier heads.

Both the label corrector and the fraud detector end with a classifier
trained over *frozen* representations using the mixup-GCE loss
(Algorithm 1, lines 13–19).  This module implements that loop once,
and :meth:`repro.core.stage.Stage.fit_head` is its one caller: Sel-CL's
and CLDet's cross-entropy heads and stream re-correction train through
it too.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..augment import sample_mixup
from ..train import TrainRun
from .encoder import SoftmaxClassifier

__all__ = ["train_classifier_head"]


def train_classifier_head(classifier: SoftmaxClassifier, features: np.ndarray,
                          labels: np.ndarray, rng: np.random.Generator,
                          loss: str = "mixup_gce", q: float = 0.7,
                          beta: float = 0.3, epochs: int = 40,
                          batch_size: int = 100, lr: float = 0.005,
                          grad_clip: float = 5.0,
                          run: TrainRun | None = None,
                          scope: str = "head") -> list[float]:
    """Train a classifier head on fixed features.

    Parameters
    ----------
    features: encoded representations, shape (n, d) — already detached
        from their encoder.
    labels: the supervision labels (noisy for the corrector, corrected
        for the detector).
    loss: "mixup_gce" (Eq. 2–3), "gce" (Eq. 1) or "cce" — the latter two
        implement the "w/o mixup-GCE" and "w/o GCE" ablations.
    run/scope: checkpoint + journal wiring; the default inert run keeps
        this the plain in-memory loop.

    Returns the per-epoch mean training loss (useful for tests and
    debugging).
    """
    if loss not in ("mixup_gce", "gce", "cce"):
        raise ValueError(f"unknown classifier loss {loss!r}")
    labels = np.asarray(labels, dtype=np.int64)
    n = features.shape[0]
    if labels.shape != (n,):
        raise ValueError("labels must align with features")

    optimizer = nn.Adam(classifier.parameters(), lr=lr)
    onehot = nn.one_hot(labels, 2)

    def batches(batch_rng: np.random.Generator):
        order = batch_rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start:start + batch_size]

    dtype = classifier._dtype

    def step(batch: np.ndarray):
        """Algorithm 1, lines 13–19: mixup over the frozen features (in
        NumPy, since they carry no gradient), then the head's forward
        and the GCE of Eq. 1 over mixed targets (Eq. 2–3), or CCE, as
        one fused graph node."""
        if batch.size < 2:
            return None
        v = features[batch]
        if loss == "mixup_gce":
            mixup = sample_mixup(labels[batch], rng, beta=beta)
            lam = mixup.lam[:, None]
            v = v * lam + v[mixup.partner] * (1.0 - lam)
            targets = mixup.mixed_targets
        else:
            targets = onehot[batch]
        return nn.fused_head_loss(
            np.asarray(v, dtype=dtype), classifier.fc1.weight,
            classifier.fc1.bias, classifier.fc2.weight, classifier.fc2.bias,
            np.asarray(targets, dtype=dtype),
            loss="cce" if loss == "cce" else "gce", q=q)

    trainer = (run or TrainRun()).trainer(scope, classifier, optimizer,
                                          grad_clip=grad_clip)
    return trainer.fit(batches, step, epochs=epochs, rng=rng)
