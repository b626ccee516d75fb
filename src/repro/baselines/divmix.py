"""DivMix baseline — DivideMix-style co-teaching (Li et al. [31]).

Two networks are trained together.  After a cross-entropy warm-up, each
epoch proceeds as:

1. per-sample losses from network A are fit with a two-component
   1-D Gaussian mixture; the low-loss component is treated as *clean*;
2. clean samples keep their labels; noisy samples are re-labelled with
   network B's predictions (co-refinement);
3. each network trains on the resulting labels with mixup.

The GMM split is the essence of DivideMix; its semi-supervised MixMatch
machinery is reduced to co-refinement + mixup, which preserves the
method's behaviour at this scale (and its failure mode: the loss-based
split keys on *sample difficulty*, which session diversity confounds).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..augment import sample_mixup
from ..core.stage import Stage
from ..data.sessions import SessionDataset, iter_batches
from ..train import TrainRun
from .base import BaselineConfig, BaselineModel, stage_probs

__all__ = ["DivMixModel", "fit_two_component_gmm"]


def fit_two_component_gmm(values: np.ndarray, iterations: int = 20,
                          ) -> tuple[np.ndarray, float]:
    """EM for a 1-D two-component GMM; returns (P(low-loss comp), threshold).

    Used to split per-sample losses into clean (low) and noisy (high).
    """
    values = np.asarray(values, dtype=np.float64)
    lo, hi = values.min(), values.max()
    if hi - lo < 1e-12:
        return np.full(values.shape, 0.5), float(lo)
    mu = np.array([lo, hi])
    sigma = np.array([values.std() + 1e-6] * 2)
    pi = np.array([0.5, 0.5])
    for _ in range(iterations):
        # E-step.
        log_pdf = (-0.5 * ((values[:, None] - mu) / sigma) ** 2
                   - np.log(sigma) + np.log(pi))
        log_pdf -= log_pdf.max(axis=1, keepdims=True)
        resp = np.exp(log_pdf)
        resp /= resp.sum(axis=1, keepdims=True)
        # M-step.
        weight = resp.sum(axis=0) + 1e-12
        mu = (resp * values[:, None]).sum(axis=0) / weight
        var = (resp * (values[:, None] - mu) ** 2).sum(axis=0) / weight
        sigma = np.sqrt(var + 1e-8)
        pi = weight / len(values)
    low = int(np.argmin(mu))
    threshold = float(mu.mean())
    return resp[:, low], threshold


class DivMixModel(BaselineModel):
    """Two co-teaching networks with GMM loss-split label refinement."""

    name = "DivMix"

    def __init__(self, config: BaselineConfig | None = None,
                 warmup_epochs: int = 3, clean_threshold: float = 0.5,
                 mixup_beta: float = 0.3):
        super().__init__(config)
        self.warmup_epochs = warmup_epochs
        self.clean_threshold = clean_threshold
        self.mixup_beta = mixup_beta
        self.nets: list[Stage] = []

    def _fit(self, train: SessionDataset, rng: np.random.Generator,
             run: TrainRun) -> None:
        # Only the word2vec phase checkpoints: each epoch trains on labels
        # refined from the peer network, which a Trainer snapshot does
        # not hold, so the epoch loop cannot resume.
        del run
        config = self.config
        self.nets = [Stage(config.stage_config(), self.vectorizer, rng)
                     for _ in range(2)]
        optimizers = [nn.Adam(net.parameters(), lr=config.lr)
                      for net in self.nets]
        noisy = train.noisy_labels()

        for epoch in range(config.epochs):
            if epoch < self.warmup_epochs:
                for net, opt in zip(self.nets, optimizers):
                    self._train_epoch(net, opt, train, noisy, rng,
                                      use_mixup=False)
                continue
            # Co-divide: split by net-A losses, refine with net-B (and
            # vice versa), then train each net on its refined labels.
            refined = [self._refine_labels(peer=self.nets[1 - i],
                                           scorer=self.nets[i],
                                           train=train, noisy=noisy)
                       for i in range(2)]
            for i, (net, opt) in enumerate(zip(self.nets, optimizers)):
                self._train_epoch(net, opt, train, refined[i], rng,
                                  use_mixup=True)

    def _per_sample_losses(self, net: Stage, dataset: SessionDataset,
                           labels: np.ndarray) -> np.ndarray:
        probs = stage_probs(net, dataset)
        picked = probs[np.arange(len(labels)), labels]
        return -np.log(np.maximum(picked, 1e-12))

    def _refine_labels(self, peer: Stage, scorer: Stage,
                       train: SessionDataset,
                       noisy: np.ndarray) -> np.ndarray:
        losses = self._per_sample_losses(scorer, train, noisy)
        clean_prob, _ = fit_two_component_gmm(losses)
        is_clean = clean_prob > self.clean_threshold
        peer_probs = stage_probs(peer, train)
        # Co-refinement: only overwrite labels the GMM marks noisy AND the
        # peer is confident about; uncertain samples keep their labels
        # (DivideMix's soft-refinement, hardened).
        peer_label = peer_probs.argmax(axis=1)
        peer_confident = peer_probs.max(axis=1) > 0.8
        refined = np.where(~is_clean & peer_confident, peer_label, noisy)
        return refined.astype(np.int64)

    def _train_epoch(self, net: Stage, optimizer: nn.Adam,
                     train: SessionDataset, labels: np.ndarray,
                     rng: np.random.Generator, use_mixup: bool) -> None:
        config = self.config
        onehot = nn.one_hot(labels, 2)
        for batch in iter_batches(train, config.batch_size, rng):
            if batch.size < 2:
                continue
            x, lengths = self.vectorizer.transform(train, indices=batch)
            z = net.encoder(x, lengths)
            if use_mixup:
                mixup = sample_mixup(labels[batch], rng, beta=self.mixup_beta)
                lam = nn.Tensor(mixup.lam[:, None])
                z = z * lam + z[mixup.partner] * (1.0 - lam)
                targets = mixup.mixed_targets
            else:
                targets = onehot[batch]
            probs = nn.softmax(net.classifier(z), axis=-1)
            loss = -(nn.Tensor(targets) * probs.clip(1e-12, 1.0).log()).sum(axis=-1).mean()
            optimizer.zero_grad()
            loss.backward()
            nn.clip_grad_norm(net.parameters(), config.grad_clip)
            optimizer.step()

    def _predict_proba(self, dataset: SessionDataset) -> np.ndarray:
        # Ensemble the two networks, as DivideMix does at test time.
        return np.mean([stage_probs(net, dataset) for net in self.nets],
                       axis=0)
