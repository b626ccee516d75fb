"""Co-teaching label correction (the paper's third future-work item).

§V: *"We will also explore benefits of integrating supervised
contrastive learning model with co-teaching based noisy label learning
approaches."*

:class:`CoTeachingCorrector` trains two independently-seeded label
correctors and fuses their outputs:

* **agreement** sessions (both correctors assign the same label) get
  that label with the *product-rule* confidence;
* **disagreement** sessions keep the label of the more confident
  corrector, with its confidence discounted by the disagreement.

The fused corrector plugs into :class:`~repro.core.CLFD` through
:class:`CoTeachingCLFD`, which replaces only CLFD's corrector phase and
keeps the rest of Algorithm 1 intact — exactly the integration the
future-work sentence sketches.
"""

from __future__ import annotations

import numpy as np

from ..data.pipeline import SessionVectorizer
from ..data.sessions import SessionDataset
from ..train import TrainRun
from .clfd import CLFD
from .config import CLFDConfig
from .label_corrector import LabelCorrector

__all__ = ["CoTeachingCorrector", "CoTeachingCLFD"]


class CoTeachingCorrector:
    """Two label correctors cross-checking each other's corrections."""

    def __init__(self, config: CLFDConfig, vectorizer: SessionVectorizer,
                 rng: np.random.Generator):
        seeds = rng.integers(0, 2 ** 31, size=2)
        self.correctors = [
            LabelCorrector(config, vectorizer, np.random.default_rng(seed))
            for seed in seeds
        ]
        self._fitted = False

    def state_dict(self) -> dict:
        """``{"correctors": [state_dict, state_dict]}``."""
        return {"correctors": [corrector.state_dict()
                               for corrector in self.correctors]}

    def load_state_dict(self, state: dict) -> "CoTeachingCorrector":
        """Restore :meth:`state_dict` output and mark both fitted."""
        for corrector, saved in zip(self.correctors, state["correctors"]):
            corrector.load_state_dict(saved)
        self._fitted = True
        return self

    def fit(self, train: SessionDataset,
            rng: np.random.Generator | None = None,
            run: TrainRun | None = None) -> "CoTeachingCorrector":
        """Train both correctors.

        ``rng`` exists for :class:`~repro.baselines.Estimator`
        conformance; the two correctors draw their seeds at construction
        time, so it is unused here.  ``run`` scopes each corrector's
        checkpoints under ``"<i>/"``.
        """
        del rng
        run = run or TrainRun()
        for i, corrector in enumerate(self.correctors):
            corrector.fit(train, run=run.scoped(f"{i}/"))
        self._fitted = True
        return self

    def correct(self, dataset: SessionDataset) -> tuple[np.ndarray, np.ndarray]:
        """Fused (labels, confidences) from both correctors."""
        if not self._fitted:
            raise RuntimeError("CoTeachingCorrector.fit must be called first")
        (labels_a, conf_a), (labels_b, conf_b) = (
            corrector.correct(dataset) for corrector in self.correctors
        )
        agree = labels_a == labels_b
        labels = np.where(agree, labels_a,
                          np.where(conf_a >= conf_b, labels_a, labels_b))
        # Agreement: both correctors vouch — combine by the product rule
        # renormalised over the two classes.
        p_both = conf_a * conf_b
        p_neither = (1 - conf_a) * (1 - conf_b)
        agree_conf = p_both / np.maximum(p_both + p_neither, 1e-12)
        # Disagreement: trust the stronger view, discounted toward 0.5.
        disagree_conf = 0.5 + np.abs(conf_a - conf_b) / 2.0
        confidences = np.where(agree, agree_conf, disagree_conf)
        return labels.astype(np.int64), confidences

    def predict_proba(self, dataset: SessionDataset) -> np.ndarray:
        """Product-rule fusion of the two correctors' distributions."""
        if not self._fitted:
            raise RuntimeError("CoTeachingCorrector.fit must be called first")
        probs_a, probs_b = (corrector.predict_proba(dataset)
                            for corrector in self.correctors)
        fused = probs_a * probs_b
        return fused / np.maximum(fused.sum(axis=1, keepdims=True), 1e-12)

    def predict(self, dataset: SessionDataset) -> tuple[np.ndarray, np.ndarray]:
        """Test-time inference from the fused distribution."""
        probs = self.predict_proba(dataset)
        return probs.argmax(axis=1), probs[:, 1]

    def agreement_rate(self, dataset: SessionDataset) -> float:
        """Fraction of sessions the two correctors agree on."""
        (labels_a, _), (labels_b, _) = (
            corrector.correct(dataset) for corrector in self.correctors
        )
        return float((labels_a == labels_b).mean())


class CoTeachingCLFD(CLFD):
    """CLFD with the co-teaching corrector in place of the single one.

    Only the corrector phase differs (checkpoint tag ``"coteach"``); the
    vectorizer and detector phases, inference and
    :meth:`~repro.core.CLFD.correction_quality` are CLFD's, so the
    experiment harness and benches can use it as a drop-in ablation of
    the future-work idea.  Archives hold its detector only
    (``has_corrector: false``).
    """

    def __init__(self, config: CLFDConfig | None = None):
        super().__init__(config)
        if not self.config.use_fraud_detector:
            # The fused corrector scores through two stages, which no
            # CLFD inference path or archive holds.
            raise ValueError("CoTeachingCLFD needs use_fraud_detector=True")
        self.corrector: CoTeachingCorrector | None = None

    def _fit_corrector(self, train: SessionDataset, rng: np.random.Generator,
                       run: TrainRun) -> tuple[np.ndarray, np.ndarray]:
        corrector = CoTeachingCorrector(self.config, self.vectorizer, rng)

        def fit_corrector() -> dict:
            corrector.fit(train, run=run.scoped("coteach/"))
            labels, confidences = corrector.correct(train)
            return {"labels": labels, "confidences": confidences}

        state = self._fit_phase(run, "coteach", corrector, rng,
                                fit_corrector)
        self.corrector = corrector
        return state["labels"], state["confidences"]

    def corrector_stages(self) -> list[LabelCorrector]:
        if self.corrector is None:
            return []
        return list(self.corrector.correctors)
