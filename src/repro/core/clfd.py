"""The CLFD facade: label corrector + fraud detector end to end.

Usage::

    config = CLFDConfig.fast()
    model = CLFD(config)
    model.fit(noisy_train, rng=np.random.default_rng(0))
    labels, scores = model.predict(test)

Ablations are configured through :class:`CLFDConfig` switches; see its
docstring for the Table IV/V mapping.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..data.pipeline import SessionVectorizer
from ..data.sessions import SessionDataset
from ..data.vocab import Vocabulary
from ..data.word2vec import SkipGramModel, Word2VecConfig
from ..train import TrainRun, generator_state, set_generator_state
from .config import CLFDConfig
from .fraud_detector import FraudDetector
from .label_corrector import LabelCorrector
from .stage import Stage

__all__ = ["CLFD", "fit_vectorizer"]


def fit_vectorizer(train: SessionDataset, config: Word2VecConfig,
                   rng: np.random.Generator, run: TrainRun
                   ) -> SessionVectorizer:
    """The "vectorizer" phase CLFD and every baseline start with.

    Restores word2vec from ``run``'s phase checkpoint, or trains it on
    ``train`` and saves that checkpoint: the vectors, ``max_len``, the
    vocabulary tokens and the generator state after training.
    """
    state = run.load_phase("vectorizer")
    if state is None:
        vectorizer = SessionVectorizer.fit(train, config=config, rng=rng)
        vocab = vectorizer.vocab
        run.save_phase("vectorizer", {
            "vectors": vectorizer.model.vectors,
            "max_len": int(vectorizer.max_len),
            "vocab": vocab.tokens() if vocab is not None else None,
            "rng": generator_state(rng),
        })
        return vectorizer
    tokens = state.get("vocab")
    set_generator_state(rng, state["rng"])
    return SessionVectorizer(SkipGramModel(state["vectors"]),
                             max_len=int(state["max_len"]),
                             vocab=Vocabulary(tokens[1:]) if tokens else None)


class CLFD:
    """Contrastive Learning based Fraud Detection (the paper's framework)."""

    def __init__(self, config: CLFDConfig | None = None):
        self.config = config or CLFDConfig()
        self.vectorizer: SessionVectorizer | None = None
        self.label_corrector: LabelCorrector | None = None
        self.fraud_detector: FraudDetector | None = None
        self.corrected_labels: np.ndarray | None = None
        self.confidences: np.ndarray | None = None

    # ------------------------------------------------------------------
    def fit(self, train: SessionDataset,
            rng: np.random.Generator | None = None,
            run: TrainRun | None = None) -> "CLFD":
        """Train on a noisy training set (``Session.noisy_label`` is used).

        Pipeline: word2vec activity embeddings → label corrector →
        corrected labels + confidences → fraud detector (Algorithm 1).
        Ablation switches in the config prune stages accordingly.

        ``run`` wires the training through the checkpointed runtime
        (:mod:`repro.train`): each pipeline stage becomes a first-class
        phase checkpoint ("vectorizer", "corrector", "detector"), inner
        epoch loops snapshot per epoch, and a resume run replays only
        the missing suffix — producing bit-identical final state.
        """
        rng = rng or np.random.default_rng(0)
        run = run or TrainRun()
        config = self.config

        self.vectorizer = fit_vectorizer(train, config.word2vec, rng, run)

        if config.use_label_corrector:
            labels, confidences = self._fit_corrector(train, rng, run)
        else:
            # "w/o LC": train the detector directly on the noisy labels
            # with unit confidences (vanilla supervised contrastive loss).
            labels = train.noisy_labels()
            confidences = np.ones(len(train))

        self.corrected_labels = labels
        self.confidences = confidences

        if config.use_fraud_detector:
            self._fit_detector(train, labels, confidences, rng, run)
        return self

    def _fit_corrector(self, train: SessionDataset, rng: np.random.Generator,
                       run: TrainRun) -> tuple[np.ndarray, np.ndarray]:
        """The "corrector" phase: fit the label corrector and return its
        (corrected labels, confidences) for ``train``."""
        corrector = LabelCorrector(self.config, self.vectorizer, rng)

        def fit_corrector() -> dict:
            corrector.fit(train, run=run.scoped("corrector/"))
            labels, confidences = corrector.correct(train)
            return {"ssl_history": corrector.ssl_loss_history,
                    "head_history": corrector.classifier_loss_history,
                    "labels": labels, "confidences": confidences}

        def restore(state: dict) -> None:
            corrector.ssl_loss_history = list(state["ssl_history"])
            corrector.classifier_loss_history = list(state["head_history"])

        state = self._fit_phase(run, "corrector", corrector, rng,
                                fit_corrector, restore)
        self.label_corrector = corrector
        return state["labels"], state["confidences"]

    def _fit_detector(self, train: SessionDataset, labels: np.ndarray,
                      confidences: np.ndarray, rng: np.random.Generator,
                      run: TrainRun) -> None:
        """The "detector" phase: Algorithm 1 on the corrected labels."""
        detector = FraudDetector(self.config, self.vectorizer, rng)

        def fit_detector() -> dict:
            detector.fit(train, labels, confidences,
                         run=run.scoped("detector/"))
            return {"supcon_history": detector.supcon_loss_history,
                    "head_history": detector.classifier_loss_history}

        def restore(state: dict) -> None:
            detector.supcon_loss_history = list(state["supcon_history"])
            detector.classifier_loss_history = list(state["head_history"])

        self._fit_phase(run, "detector", detector, rng, fit_detector, restore)
        self.fraud_detector = detector

    @staticmethod
    def _fit_phase(run: TrainRun, tag: str, stage, rng: np.random.Generator,
                   fit: Callable[[], dict],
                   restore: Callable[[dict], None] | None = None) -> dict:
        """Restore ``stage`` from phase checkpoint ``tag``, or ``fit()``
        it and save that checkpoint; returns the phase state.

        The state is the stage's :meth:`~repro.core.stage.Stage.state_dict`,
        what ``fit()`` returns (loss histories, corrected labels) and the
        generator state after the phase; a restore hands it to
        ``restore`` for what ``load_state_dict`` does not hold.  The
        stage is constructed before this call either way: construction
        consumes ``rng`` draws, so a resumed run's generator stays
        aligned with the original.  Callers attach the stage to the
        model only after this returns, so an interrupted fit leaves no
        half-trained stage to score with.
        """
        state = run.load_phase(tag)
        if state is not None:
            stage.load_state_dict(state)
            if restore is not None:
                restore(state)
            set_generator_state(rng, state["rng"])
            return state
        extra = fit()
        state = {**stage.state_dict(), **extra, "rng": generator_state(rng)}
        run.save_phase(tag, state)
        return state

    def corrector_stages(self) -> list[LabelCorrector]:
        """The fitted label-correcting stages: one, or none under
        "w/o LC"."""
        return [] if self.label_corrector is None else [self.label_corrector]

    # ------------------------------------------------------------------
    def predict(self, dataset: SessionDataset, *,
                return_embeddings: bool = False):
        """Classify sessions: returns ``(labels, malicious scores)``.

        With ``return_embeddings=True`` the encoded representations used
        for classification ride along as a third element, ``(labels,
        scores, embeddings)`` — the supported way for serving and
        representation analyses to obtain the encoder output without
        reaching into ``fraud_detector.encoder`` internals.  The
        embeddings come from whichever component performs inference
        (fraud detector, or label corrector under the "w/o FD"
        ablation), at zero extra forward cost.
        """
        return self._inference_component().predict(
            dataset, return_embeddings=return_embeddings)

    def inference_forward(self):
        """The NumPy inference forward :meth:`predict` scores with (see
        :class:`~repro.core.encoder.InferenceForward`); the serving
        engine scores its micro-batches through it."""
        return self._inference_component().inference_forward()

    def _inference_component(self) -> Stage:
        stage = (self.fraud_detector if self.config.use_fraud_detector
                 else self.label_corrector)
        if stage is None:
            raise RuntimeError("CLFD.fit must be called first")
        return stage

    def predict_proba(self, dataset: SessionDataset) -> np.ndarray:
        """Class probabilities ``[p(normal), p(malicious)]`` per session."""
        return self._inference_component().predict_proba(dataset)

    def correction_quality(self, train: SessionDataset) -> dict[str, float]:
        """Table III metrics: TPR/TNR of corrected labels vs ground truth."""
        from ..metrics import true_rates

        if self.corrected_labels is None:
            raise RuntimeError("CLFD.fit must be called first")
        tpr, tnr = true_rates(train.labels(), self.corrected_labels)
        return {"tpr": tpr, "tnr": tnr}
