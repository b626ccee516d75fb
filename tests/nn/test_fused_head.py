"""The fused classifier-head kernel against the composed graph it replaces.

``nn.fused_head_loss`` repeats the composed head's NumPy expressions
operation for operation, so the contract is bitwise: the loss, all four
parameter gradients and the softmax probabilities must equal what
``gce_loss`` / ``cce_loss`` over ``SoftmaxClassifier.probs`` produce,
and full ``train_classifier_head`` runs must end in SHA-equal
parameters and loss histories.  The composed reference lives only here.
"""

import hashlib

import numpy as np
import pytest

from repro import nn
from repro.core.encoder import SoftmaxClassifier
from repro.core.training import train_classifier_head
from repro.losses import cce_loss, gce_loss

DIM = 24


def _head(dtype, seed=0, dim=DIM):
    with nn.default_dtype(dtype):
        return SoftmaxClassifier(dim, np.random.default_rng(seed))


def _params(head):
    return [head.fc1.weight, head.fc1.bias, head.fc2.weight, head.fc2.bias]


def _composed(head, x, targets, loss, q=0.7):
    probs = head.probs(x)
    if loss == "cce":
        return cce_loss(probs, targets)
    return gce_loss(probs, targets, q=q)


def _loss_and_grads(build, params):
    out = build()
    for p in params:
        p.zero_grad()
    out.backward()
    return out.data.tobytes(), [p.grad.tobytes() for p in params]


def _inputs(kind, n, dtype, seed, head=None):
    """Features and mixup-style soft targets; ``kind`` picks the regime
    (``"tied"`` makes ``head``'s two logits equal in every row)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, DIM))
    if kind == "large":          # logits far past softmax saturation
        x *= 1e3
    elif kind == "tied":
        head.fc2.weight.data[:, 1] = head.fc2.weight.data[:, 0]
        head.fc2.bias.data[:] = 0.25
    elif kind == "signed_zero":  # all-zero features with -0.0 entries
        x[:] = 0.0
        x[::2, ::3] = -0.0
    lam = rng.uniform(size=(n, 1))
    onehot = nn.one_hot(rng.integers(0, 2, size=n), 2)
    targets = lam * onehot + (1.0 - lam) * onehot[rng.permutation(n)]
    return x.astype(dtype), targets.astype(dtype)


@pytest.mark.parametrize("kind", ["normal", "large", "tied", "signed_zero"])
@pytest.mark.parametrize("n", [2, 6, 64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("loss", ["gce", "cce"])
def test_loss_and_gradients_bitwise_equal_composed(loss, dtype, n, kind):
    for seed in range(3):
        head = _head(dtype, seed)
        params = _params(head)
        x, targets = _inputs(kind, n, dtype, seed, head)
        with np.errstate(all="ignore"):
            want = _loss_and_grads(
                lambda: _composed(head, x, targets, loss), params)
            got = _loss_and_grads(
                lambda: nn.fused_head_loss(x, *params, targets, loss=loss),
                params)
        assert got[0] == want[0], f"loss differs (seed {seed})"
        for name, g, w in zip(("w1", "b1", "w2", "b2"), got[1], want[1]):
            assert g == w, f"{name} gradient differs (seed {seed})"


@pytest.mark.parametrize("kind", ["normal", "large", "tied", "signed_zero"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_probs_bitwise_equal_classifier_probs(dtype, kind):
    head = _head(dtype)
    x, _ = _inputs(kind, 64, dtype, 1, head)
    with np.errstate(all="ignore"):
        probs = head.probs_numpy(x)
        want = head.probs(x).data
    assert probs.dtype == want.dtype
    assert probs.tobytes() == want.tobytes()


def _fingerprint(head, history):
    digest = hashlib.sha256()
    for p in head.parameters():
        digest.update(p.data.tobytes())
    digest.update(np.asarray(history, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _train(loss, dtype, seed, run=None, head=None):
    rng = np.random.default_rng(seed)
    if head is None:
        head = _head(dtype, seed)
    features = rng.normal(size=(230, DIM)).astype(dtype)
    labels = (rng.random(230) < 0.25).astype(np.int64)
    history = train_classifier_head(head, features, labels, rng, loss=loss,
                                    epochs=6, batch_size=64, run=run)
    return head, history


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("loss", ["mixup_gce", "gce", "cce"])
def test_training_sha_equal_composed_program(loss, dtype, monkeypatch):
    fused = [_fingerprint(*_train(loss, dtype, seed)) for seed in range(2)]
    composed, calls = [], []
    for seed in range(2):
        head = _head(dtype, seed)

        def composed_head_loss(x, w1, b1, w2, b2, targets, loss, q):
            assert all(a is b for a, b in zip((w1, b1, w2, b2),
                                              _params(head)))
            calls.append(loss)
            return _composed(head, x, targets, loss, q)

        monkeypatch.setattr(nn, "fused_head_loss", composed_head_loss)
        composed.append(_fingerprint(*_train(loss, dtype, seed, head=head)))
    assert calls, "the composed reference never ran"
    assert fused == composed


def test_one_graph_node_per_head_step():
    rng = np.random.default_rng(0)
    head = _head(np.float64)
    n, batch_size = 230, 64
    features = rng.normal(size=(n, DIM))
    labels = (rng.random(n) < 0.25).astype(np.int64)
    with nn.profile() as prof:
        train_classifier_head(head, features, labels, rng, epochs=1,
                              batch_size=batch_size)
    steps = -(-n // batch_size)
    assert {op: s.nodes for op, s in prof.ops.items() if s.nodes} == \
        {"fused_head_loss": steps}


def test_features_requiring_grad_are_refused():
    head = _head(np.float64)
    x, targets = _inputs("normal", 6, np.float64, 0)
    with pytest.raises(ValueError, match="frozen"):
        nn.fused_head_loss(nn.Tensor(x, requires_grad=True),
                           *_params(head), targets)


def test_mismatched_dtype_and_unknown_loss_are_refused():
    head = _head(np.float64)
    x, targets = _inputs("normal", 6, np.float64, 0)
    with pytest.raises(ValueError, match="dtype"):
        nn.fused_head_loss(x.astype(np.float32), *_params(head), targets)
    with pytest.raises(ValueError, match="unknown head loss"):
        nn.fused_head_loss(x, *_params(head), targets, loss="mae")
    with pytest.raises(ValueError, match="q must be"):
        nn.fused_head_loss(x, *_params(head), targets, q=0.0)
