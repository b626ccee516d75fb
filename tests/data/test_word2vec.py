"""Tests for the SGNS word2vec trainer and the vectorization pipeline."""

import numpy as np
import pytest

from repro.data import (
    NORMAL,
    Session,
    SessionDataset,
    SessionVectorizer,
    Vocabulary,
    Word2VecConfig,
    make_dataset,
    train_word2vec,
)


@pytest.fixture(scope="module")
def corpus():
    """A corpus with two disjoint co-occurrence cliques: {a,b} and {c,d}."""
    vocab = Vocabulary(["a", "b", "c", "d"])
    rng = np.random.default_rng(0)
    sessions = []
    for _ in range(120):
        if rng.random() < 0.5:
            tokens = [1, 2] * 4  # a-b clique
        else:
            tokens = [3, 4] * 4  # c-d clique
        sessions.append(Session(list(tokens), NORMAL))
    return SessionDataset(sessions, vocab)


@pytest.fixture(scope="module")
def model(corpus):
    return train_word2vec(corpus, Word2VecConfig(dim=8, epochs=5),
                          rng=np.random.default_rng(1))


def test_model_shape(model, corpus):
    assert model.vectors.shape == (len(corpus.vocab), 8)
    assert model.dim == 8
    assert model.vocab_size == 5


def test_cooccurring_tokens_are_similar(model):
    def cos(i, j):
        a, b = model.vectors[i], model.vectors[j]
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    assert cos(1, 2) > cos(1, 3)
    assert cos(3, 4) > cos(3, 2)


def test_embed_ids_shapes(model):
    out = model.embed_ids(np.zeros((3, 7), dtype=np.int64))
    assert out.shape == (3, 7, 8)


def test_training_is_deterministic(corpus):
    cfg = Word2VecConfig(dim=4, epochs=2)
    a = train_word2vec(corpus, cfg, rng=np.random.default_rng(5))
    b = train_word2vec(corpus, cfg, rng=np.random.default_rng(5))
    np.testing.assert_allclose(a.vectors, b.vectors)


def test_vectors_stay_bounded(corpus):
    model = train_word2vec(corpus, Word2VecConfig(dim=8, epochs=10, lr=0.1),
                           rng=np.random.default_rng(2))
    assert np.linalg.norm(model.vectors, axis=1).max() < 50.0


def test_config_validation():
    with pytest.raises(ValueError):
        Word2VecConfig(dim=0)
    with pytest.raises(ValueError):
        Word2VecConfig(epochs=0)
    with pytest.raises(ValueError):
        Word2VecConfig(negatives=0)


def test_length_one_corpus_raises():
    vocab = Vocabulary(["a"])
    ds = SessionDataset([Session([1], NORMAL)], vocab)
    with pytest.raises(ValueError):
        train_word2vec(ds)


def test_vectorizer_fit_and_transform():
    rng = np.random.default_rng(3)
    train, test = make_dataset("umd-wikipedia", rng, scale=0.02)
    vec = SessionVectorizer.fit(train, Word2VecConfig(dim=12, epochs=2),
                                rng=rng)
    x, lengths = vec.transform(train, indices=np.arange(5))
    assert x.shape == (5, train.max_length(), 12)
    assert lengths.shape == (5,)
    assert vec.dim == 12
    # Test set reuses the training max_len even if its own sessions differ.
    x_test, _ = vec.transform(test)
    assert x_test.shape[1] == train.max_length()


def test_vectorizer_token_ids():
    rng = np.random.default_rng(4)
    train, _ = make_dataset("openstack", rng, scale=0.02)
    vec = SessionVectorizer.fit(train, Word2VecConfig(dim=8, epochs=1),
                                rng=rng)
    ids, lengths = vec.transform_token_ids(train, indices=np.arange(3))
    assert ids.dtype == np.int64
    assert ids.shape == (3, train.max_length())
    assert (lengths <= train.max_length()).all()


def test_vectorizer_rejects_bad_max_len(model):
    with pytest.raises(ValueError):
        SessionVectorizer(model, max_len=0)


def test_padding_rows_embed_pad_vector():
    rng = np.random.default_rng(5)
    train, _ = make_dataset("cert", rng, scale=0.02)
    vec = SessionVectorizer.fit(train, Word2VecConfig(dim=8, epochs=1),
                                rng=rng)
    x, lengths = vec.transform(train, indices=np.arange(1))
    length = int(lengths[0])
    if length < vec.max_len:
        pad_vec = vec.model.vectors[train.vocab.pad_id]
        np.testing.assert_allclose(x[0, length], pad_vec)
