"""Golden-path integration tests spanning every subsystem.

Each test walks a realistic multi-module workflow end to end, the way a
downstream user would chain the public API.
"""

import numpy as np
import pytest

from repro import CLFD, CLFDConfig
from repro.analysis import expected_calibration_error, representation_report
from repro.baselines import BASELINES, BaselineConfig
from repro.core import (
    estimate_noise_rates,
    load_clfd,
    save_clfd,
)
from repro.data import (
    Session,
    SessionDataset,
    SessionVectorizer,
    Vocabulary,
    Word2VecConfig,
    apply_uniform_noise,
    make_dataset,
)
from repro.metrics import best_f1_threshold, evaluate_detector
from tests.core.conftest import TINY


@pytest.fixture(scope="module")
def trained():
    """One trained CLFD + its noisy split, shared across this module."""
    rng = np.random.default_rng(42)
    train, test = make_dataset("cert", rng, scale=0.03)
    apply_uniform_noise(train, eta=0.2, rng=rng)
    model = CLFD(CLFDConfig(**TINY)).fit(train, rng=np.random.default_rng(42))
    return model, train, test


def test_train_evaluate_analyze_chain(trained):
    """fit → predict → metrics → representation report."""
    model, train, test = trained
    labels, scores = model.predict(test)
    metrics = evaluate_detector(test.labels(), labels, scores)
    assert metrics["auc_roc"] > 50.0

    _, _, features = model.predict(test, return_embeddings=True)
    report = representation_report(features, test.labels())
    assert report.num_samples == len(test)


def test_noise_forensics_chain(trained):
    """corrected labels → noise-rate estimate → calibration check."""
    model, train, _ = trained
    estimate = estimate_noise_rates(train, model.corrected_labels,
                                    model.confidences)
    assert 0.0 <= estimate.eta <= 1.0

    correct = model.corrected_labels == train.labels()
    ece = expected_calibration_error(model.confidences, correct)
    assert 0.0 <= ece <= 1.0


def test_persist_serve_threshold_chain(trained, tmp_path):
    """save → load → predict → tune an operating threshold."""
    model, _, test = trained
    path = tmp_path / "model.npz"
    save_clfd(model, path)
    served = load_clfd(path)
    labels, scores = served.predict(test)
    threshold, f1 = best_f1_threshold(test.labels(), scores)
    assert f1 >= evaluate_detector(test.labels(), labels, scores)["f1"] - 1e-9


def test_raw_logs_to_baseline_chain():
    """log-template flows → dataset → a DeepLog baseline."""
    vocab = Vocabulary()
    sessions = []
    rng = np.random.default_rng(1)
    for i in range(60):
        bad = i < 8
        entity = f"vm{i}"
        flow = (["create instance <*> ok", "boot <*> done", "run <*> fine",
                 "stop <*> clean"] if not bad else
                ["create instance <*> ok", "fail <*> code <*>",
                 "retry <*> now", "fail <*> code <*>"])
        sessions.append(Session([vocab.add(line) for line in flow],
                                label=int(bad), session_id=entity,
                                user=entity))
    dataset = SessionDataset(sessions, vocab)
    apply_uniform_noise(dataset, eta=0.1, rng=rng)

    config = BaselineConfig(embedding_dim=12, hidden_size=16, epochs=3,
                            batch_size=32,
                            word2vec=Word2VecConfig(dim=12, epochs=1))
    model = BASELINES["DeepLog"](config).fit(dataset,
                                             rng=np.random.default_rng(1))
    labels, scores = model.predict(dataset)
    assert scores[dataset.labels() == 1].mean() >= \
        scores[dataset.labels() == 0].mean()


def test_vectorizer_shared_across_models(trained):
    """A vectorizer trained once can feed several components."""
    _, train, test = trained
    vec = SessionVectorizer.fit(train, Word2VecConfig(dim=12, epochs=1),
                                rng=np.random.default_rng(3))
    x_train, _ = vec.transform(train, indices=np.arange(4))
    x_test, _ = vec.transform(test, indices=np.arange(4))
    assert x_train.shape[2] == x_test.shape[2] == 12
