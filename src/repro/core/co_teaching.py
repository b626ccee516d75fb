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

The fused corrector plugs into :class:`~repro.core.CLFD` via
:meth:`clfd_with_co_teaching`, keeping the rest of Algorithm 1 intact —
exactly the integration the future-work sentence sketches.
"""

from __future__ import annotations

import numpy as np

from ..data.pipeline import SessionVectorizer
from ..data.sessions import SessionDataset
from ..train import TrainRun, generator_state, set_generator_state
from .clfd import _restore_vectorizer, _vectorizer_phase_state
from .config import CLFDConfig
from .fraud_detector import FraudDetector
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


class CoTeachingCLFD:
    """CLFD with the co-teaching corrector in place of the single one.

    API-compatible with :class:`~repro.core.CLFD` for fit/predict/
    correction_quality, so the experiment harness and benches can use it
    as a drop-in ablation of the future-work idea.
    """

    supports_train_run = True

    def __init__(self, config: CLFDConfig | None = None):
        self.config = config or CLFDConfig()
        self.vectorizer: SessionVectorizer | None = None
        self.corrector: CoTeachingCorrector | None = None
        self.fraud_detector: FraudDetector | None = None
        self.corrected_labels: np.ndarray | None = None
        self.confidences: np.ndarray | None = None
        self._fitted = False

    def fit(self, train: SessionDataset,
            rng: np.random.Generator | None = None,
            run: TrainRun | None = None) -> "CoTeachingCLFD":
        rng = rng or np.random.default_rng(0)
        run = run or TrainRun()

        state = run.load_phase("vectorizer")
        if state is not None:
            self.vectorizer = _restore_vectorizer(state, rng)
        else:
            self.vectorizer = SessionVectorizer.fit(
                train, config=self.config.word2vec, rng=rng
            )
            run.save_phase("vectorizer",
                           _vectorizer_phase_state(self.vectorizer, rng))

        self.corrector = CoTeachingCorrector(self.config, self.vectorizer, rng)
        state = run.load_phase("coteach")
        if state is not None:
            for corrector, saved in zip(self.corrector.correctors,
                                        state["correctors"]):
                corrector.encoder.load_state_dict(saved["encoder"])
                corrector.classifier.load_state_dict(saved["classifier"])
                corrector._fitted = True
            self.corrector._fitted = True
            labels = state["labels"]
            confidences = state["confidences"]
            set_generator_state(rng, state["rng"])
        else:
            self.corrector.fit(train, run=run.scoped("coteach/"))
            labels, confidences = self.corrector.correct(train)
            run.save_phase("coteach", {
                "correctors": [
                    {"encoder": corrector.encoder.state_dict(),
                     "classifier": corrector.classifier.state_dict()}
                    for corrector in self.corrector.correctors
                ],
                "labels": labels,
                "confidences": confidences,
                "rng": generator_state(rng),
            })
        self.corrected_labels = labels
        self.confidences = confidences

        self.fraud_detector = FraudDetector(self.config, self.vectorizer, rng)
        state = run.load_phase("detector")
        if state is not None:
            detector = self.fraud_detector
            detector.encoder.load_state_dict(state["encoder"])
            detector.classifier.load_state_dict(state["classifier"])
            detector.centroids = state["centroids"]
            detector._fitted = True
            set_generator_state(rng, state["rng"])
        else:
            self.fraud_detector.fit(train, labels, confidences,
                                    run=run.scoped("detector/"))
            run.save_phase("detector", {
                "encoder": self.fraud_detector.encoder.state_dict(),
                "classifier": self.fraud_detector.classifier.state_dict(),
                "centroids": self.fraud_detector.centroids,
                "rng": generator_state(rng),
            })
        self._fitted = True
        return self

    def predict(self, dataset: SessionDataset, *,
                return_embeddings: bool = False):
        if not self._fitted:
            raise RuntimeError("CoTeachingCLFD.fit must be called first")
        return self.fraud_detector.predict(
            dataset, return_embeddings=return_embeddings)

    def predict_proba(self, dataset: SessionDataset) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("CoTeachingCLFD.fit must be called first")
        return self.fraud_detector.predict_proba(dataset)

    def correction_quality(self, train: SessionDataset) -> dict[str, float]:
        from ..metrics import true_rates

        if self.corrected_labels is None:
            raise RuntimeError("CoTeachingCLFD.fit must be called first")
        tpr, tnr = true_rates(train.labels(), self.corrected_labels)
        return {"tpr": tpr, "tnr": tnr}
