"""Property-based fuzzing of the autograd op registry.

Every public op and loss kernel is registered as an :class:`OpSpec` with
a builder that materialises a randomized trial — shapes, dtypes
(float32/float64), broadcast patterns, and (in *extreme* trials)
adversarial values: signed zeros, subnormals, huge magnitudes up to
±1e30 and exact ties.  Each trial checks:

* the forward output is finite and **keeps the input dtype** (no silent
  float64 upcasts on float32 graphs);
* backward produces finite gradients of the right dtype;
* on smooth float64 trials, analytic gradients match central finite
  differences (``check_gradients(raise_on_first=False)``), so a failure
  reports *every* bad entry, not just the first.

Failures shrink (smaller size re-run under the same seed) and carry a
copy-pastable repro string::

    from repro.nn.debug import fuzz_one
    fuzz_one('l2_normalize', seed=3, dtype='float32', extreme=True, size=1)

Trial generation is fully deterministic in (op name, seed, dtype,
extreme, size): the rng is seeded with the CRC32 of the op name, so the
pinned CI seed reproduces bit-for-bit on any machine.

Heavy dependencies (losses, fused kernels) are imported lazily inside
the builders to keep this module importable from ``repro.nn.__init__``
without cycles.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Callable, Sequence

import numpy as np

from ..gradcheck import check_gradients
from ..tensor import Tensor

__all__ = ["OpSpec", "FuzzFailure", "FuzzReport", "OP_REGISTRY",
           "fuzz_all", "fuzz_one", "covered_graph_ops"]

# Adversarial value pools per dtype: signed zeros, subnormals, tiny and
# huge magnitudes.  Entries are clipped per-spec to ``max_mag`` so ops
# with genuine overflow domains (exp, pow) are only fed values they are
# mathematically expected to survive.
_POOLS = {
    np.dtype(np.float64): (0.0, -0.0, 5e-324, 1e-310, -1e-310,
                           1e-30, -1e-30, 1.0, -1.0, 1e30, -1e30),
    np.dtype(np.float32): (0.0, -0.0, 1e-45, 1e-40, -1e-40,
                           1e-30, -1e-30, 1.0, -1.0, 1e30, -1e30),
}


def _values(rng: np.random.Generator, shape, dtype, extreme: bool, *,
            max_mag: float = 1e30, positive: bool = False,
            low: float = 0.0, spacing: float = 0.0,
            scale: float = 1.0) -> np.ndarray:
    """Random payload for one input.

    ``spacing > 0`` draws tie-free values from an evenly spaced grid
    (kink-avoidance for max/relu/clip in smooth trials); ``low``
    bounds magnitudes away from zero (domain restriction for log/div);
    ``positive`` folds everything positive; extreme trials sprinkle the
    adversarial pool over half the entries and plant one exact tie.
    """
    n = int(np.prod(shape)) if shape else 1
    if spacing > 0.0 and not extreme:
        grid = (np.arange(4 * n, dtype=np.float64) - 2.0 * n + 0.5) * spacing
        vals = rng.choice(grid, size=n, replace=False).reshape(shape)
    else:
        vals = rng.normal(scale=scale, size=shape)
    if extreme:
        pool = np.array(_POOLS[np.dtype(dtype)], dtype=np.float64)
        flat = vals.reshape(-1)
        k = max(1, flat.size // 2)
        idx = rng.choice(flat.size, size=k, replace=False)
        flat[idx] = rng.choice(pool, size=k)
    if positive:
        vals = np.abs(vals)
    if low > 0.0:
        tiny = np.abs(vals) < low
        vals = np.where(tiny, np.where(vals < 0, -low, low), vals)
    vals = np.clip(vals, -max_mag, max_mag)
    if extreme and vals.size >= 2:
        flat = vals.reshape(-1)
        i, j = rng.choice(flat.size, size=2, replace=False)
        flat[j] = flat[i]
    return np.asarray(vals, dtype=dtype)


def _t(rng, shape, dtype, extreme, **kw) -> Tensor:
    return Tensor(_values(rng, shape, dtype, extreme, **kw),
                  requires_grad=True)


def _const(arr, dtype) -> Tensor:
    return Tensor(np.asarray(arr, dtype=dtype))


@dataclasses.dataclass(frozen=True)
class OpSpec:
    """One fuzzable op: a trial builder plus the graph ops it covers."""

    name: str
    #: ``build(rng, dtype, extreme, size) -> (fn, params)`` where ``fn``
    #: returns a scalar Tensor and ``params`` are the leaves to check.
    build: Callable
    #: Backward-closure op names (profiler naming) this spec exercises —
    #: consumed by the graph lint's unfuzzed-op check.
    covers: tuple[str, ...]
    #: Whether smooth float64 trials run a full gradcheck (ops whose
    #: smooth trials cannot avoid kinks set this False).
    gradcheck: bool = True
    smooth_trials: int = 2
    extreme_trials: int = 2


@dataclasses.dataclass(frozen=True)
class FuzzFailure:
    """One failing trial with its minimal shrunk repro."""

    op: str
    seed: int
    dtype: str
    extreme: bool
    size: int
    messages: tuple[str, ...]

    @property
    def repro(self) -> str:
        return (f"fuzz_one({self.op!r}, seed={self.seed}, "
                f"dtype={self.dtype!r}, extreme={self.extreme}, "
                f"size={self.size})")

    def __str__(self) -> str:
        body = "\n".join(f"    {m}" for m in self.messages)
        return f"{self.op} [{self.repro}]:\n{body}"


@dataclasses.dataclass
class FuzzReport:
    """Outcome of a :func:`fuzz_all` sweep."""

    seed: int
    ops_run: list[str] = dataclasses.field(default_factory=list)
    trials: int = 0
    failures: list[FuzzFailure] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [f"fuzzed {len(self.ops_run)} ops, {self.trials} trials, "
                 f"{len(self.failures)} failing (seed={self.seed})"]
        lines.extend(str(f) for f in self.failures)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
OP_REGISTRY: dict[str, OpSpec] = {}


def _register(name: str, covers: Sequence[str], **spec_kwargs):
    def wrap(build):
        OP_REGISTRY[name] = OpSpec(name=name, build=build,
                                   covers=tuple(covers), **spec_kwargs)
        return build
    return wrap


def covered_graph_ops() -> set[str]:
    """Union of backward-closure op names the registry exercises."""
    out: set[str] = set()
    for spec in OP_REGISTRY.values():
        out.update(spec.covers)
    return out


def _broadcast_shapes(rng, m, n):
    """A random (lhs, rhs) broadcast pattern over an (m, n) base."""
    patterns = [((m, n), (m, n)), ((m, n), (n,)), ((m, n), (m, 1)),
                ((m, n), ()), ((m, 1), (1, n))]
    return patterns[int(rng.integers(len(patterns)))]


def _weighted_sum(x: Tensor) -> Tensor:
    """Reduce ``x`` to a scalar with fixed non-uniform weights, so
    gradcheck sees distinct per-entry gradients rather than all-ones.

    The weights are a pure function of the shape (no rng): gradcheck
    re-evaluates the closure many times, so it must be deterministic.
    """
    n = max(int(x.data.size), 1)
    w = ((np.arange(n, dtype=np.float64) % 7.0) - 3.0) * 0.31 + 0.05
    w = w.reshape(x.shape).astype(x.data.dtype)
    return (x * Tensor(w)).sum()


# -- elementwise arithmetic --------------------------------------------
@_register("add", covers=("__add__", "__mul__", "sum"))
def _build_add(rng, dtype, extreme, size):
    m, n = size + 1, size + 2
    sa, sb = _broadcast_shapes(rng, m, n)
    a = _t(rng, sa, dtype, extreme)
    b = _t(rng, sb, dtype, extreme)
    return lambda: _weighted_sum(a + b), [a, b]


@_register("mul", covers=("__mul__", "sum"))
def _build_mul(rng, dtype, extreme, size):
    m, n = size + 1, size + 2
    sa, sb = _broadcast_shapes(rng, m, n)
    a = _t(rng, sa, dtype, extreme, max_mag=1e15)
    b = _t(rng, sb, dtype, extreme, max_mag=1e15)
    return lambda: _weighted_sum(a * b), [a, b]


@_register("sub", covers=("__add__", "__mul__", "sum"))
def _build_sub(rng, dtype, extreme, size):
    m, n = size + 1, size + 2
    a = _t(rng, (m, n), dtype, extreme)
    b = _t(rng, (n,), dtype, extreme)
    return lambda: _weighted_sum(a - b), [a, b]


@_register("div", covers=("__mul__", "__pow__", "sum"))
def _build_div(rng, dtype, extreme, size):
    m, n = size + 1, size + 2
    a = _t(rng, (m, n), dtype, extreme, max_mag=1e15)
    # Denominators bounded away from zero: x/0 is a legitimate inf,
    # not an autograd bug.
    b = _t(rng, (m, n), dtype, extreme, low=0.3, max_mag=1e15)
    return lambda: _weighted_sum(a / b), [a, b]


@_register("pow", covers=("__pow__", "sum"))
def _build_pow(rng, dtype, extreme, size):
    x = _t(rng, (size + 1, size + 2), dtype, extreme,
           positive=True, low=0.2, max_mag=1e3)
    exponent = float(rng.choice([0.5, 0.7, 2.0, 3.0, -1.0]))
    return lambda: _weighted_sum(x ** exponent), [x]


# -- transcendental ----------------------------------------------------
@_register("exp", covers=("exp", "sum"))
def _build_exp(rng, dtype, extreme, size):
    x = _t(rng, (size + 1, size + 2), dtype, extreme, max_mag=50.0)
    return lambda: _weighted_sum(x.exp()), [x]


@_register("log", covers=("log", "sum"))
def _build_log(rng, dtype, extreme, size):
    # Smooth trials stay well off zero so finite differences converge;
    # extreme trials go down to 1e-6 (grad 1/x stays finite there).
    x = _t(rng, (size + 1, size + 2), dtype, extreme,
           positive=True, low=1e-6 if extreme else 0.2)
    return lambda: _weighted_sum(x.log()), [x]


@_register("sqrt", covers=("__pow__", "sum"))
def _build_sqrt(rng, dtype, extreme, size):
    x = _t(rng, (size + 1, size + 2), dtype, extreme,
           positive=True, low=1e-6 if extreme else 0.2)
    return lambda: _weighted_sum(x.sqrt()), [x]


@_register("tanh", covers=("tanh", "sum"))
def _build_tanh(rng, dtype, extreme, size):
    x = _t(rng, (size + 1, size + 2), dtype, extreme)
    return lambda: _weighted_sum(x.tanh()), [x]


@_register("sigmoid", covers=("sigmoid", "sum"))
def _build_sigmoid(rng, dtype, extreme, size):
    x = _t(rng, (size + 1, size + 2), dtype, extreme)
    return lambda: _weighted_sum(x.sigmoid()), [x]


@_register("gelu", covers=("gelu", "sum"))
def _build_gelu(rng, dtype, extreme, size):
    x = _t(rng, (size + 1, size + 2), dtype, extreme, max_mag=20.0)
    return lambda: _weighted_sum(x.gelu()), [x]


# -- kinked ops (smooth trials stay off the kink by construction) ------
@_register("relu", covers=("relu", "sum"))
def _build_relu(rng, dtype, extreme, size):
    x = _t(rng, (size + 1, size + 2), dtype, extreme, spacing=0.2)
    return lambda: _weighted_sum(x.relu()), [x]


@_register("leaky_relu", covers=("leaky_relu", "sum"))
def _build_leaky_relu(rng, dtype, extreme, size):
    x = _t(rng, (size + 1, size + 2), dtype, extreme, spacing=0.2)
    return lambda: _weighted_sum(x.leaky_relu()), [x]


@_register("clip", covers=("clip", "sum"))
def _build_clip(rng, dtype, extreme, size):
    # Bounds are even multiples of 0.1; the spacing grid produces odd
    # multiples, so no sample ever sits exactly on a clip boundary.
    x = _t(rng, (size + 1, size + 2), dtype, extreme, spacing=0.2)
    return lambda: _weighted_sum(x.clip(-0.8, 0.8)), [x]


@_register("max", covers=("max", "sum", "__mul__"))
def _build_max(rng, dtype, extreme, size):
    x = _t(rng, (size + 1, size + 2), dtype, extreme, spacing=0.2)
    axis = int(rng.integers(2))
    return (lambda: _weighted_sum(x.max(axis=axis)), [x])


# -- reductions and shape ops ------------------------------------------
@_register("sum_axis", covers=("sum",))
def _build_sum(rng, dtype, extreme, size):
    x = _t(rng, (size + 1, size + 2), dtype, extreme)
    axis = [None, 0, 1][int(rng.integers(3))]
    keep = bool(rng.integers(2))
    return (lambda: _weighted_sum(x.sum(axis=axis, keepdims=keep)), [x])


@_register("mean", covers=("sum", "__mul__"))
def _build_mean(rng, dtype, extreme, size):
    x = _t(rng, (size + 1, size + 2), dtype, extreme)
    axis = [None, 0, 1][int(rng.integers(3))]
    return lambda: _weighted_sum(x.mean(axis=axis)), [x]


@_register("reshape", covers=("reshape", "sum"))
def _build_reshape(rng, dtype, extreme, size):
    m, n = size + 1, size + 2
    x = _t(rng, (m, n), dtype, extreme)
    return lambda: _weighted_sum(x.reshape(n * m)), [x]


@_register("transpose", covers=("transpose", "sum"))
def _build_transpose(rng, dtype, extreme, size):
    x = _t(rng, (size + 1, size + 2, 2), dtype, extreme)
    axes = tuple(rng.permutation(3))
    return lambda: _weighted_sum(x.transpose(axes)), [x]


@_register("getitem_basic", covers=("__getitem__", "sum"))
def _build_getitem_basic(rng, dtype, extreme, size):
    x = _t(rng, (size + 2, size + 2), dtype, extreme)
    return lambda: _weighted_sum(x[1:, : size + 1]), [x]


@_register("getitem_advanced", covers=("__getitem__", "sum"))
def _build_getitem_advanced(rng, dtype, extreme, size):
    x = _t(rng, (size + 2, size + 1), dtype, extreme)
    # Duplicate rows on purpose: exercises the np.add.at scatter path.
    idx = rng.integers(0, size + 2, size=size + 3)
    return lambda: _weighted_sum(x[idx]), [x]


# gradcheck=False: the float64 round-trip through float32 quantizes the
# forward to ~1e-7 relative precision, which drowns the 1e-6 step of the
# float64 numeric gradient.  Finiteness/dtype/backward checks still run.
@_register("astype", covers=("astype", "sum"), gradcheck=False)
def _build_astype(rng, dtype, extreme, size):
    other = np.float64 if np.dtype(dtype) == np.float32 else np.float32
    x = _t(rng, (size + 1, size + 2), dtype, extreme, max_mag=1e15)
    return (lambda: _weighted_sum(x.astype(other).astype(dtype)), [x])


# -- linear algebra and joins ------------------------------------------
@_register("matmul", covers=("matmul", "sum"))
def _build_matmul(rng, dtype, extreme, size):
    m, k, n = size + 1, size + 2, size + 1
    kind = int(rng.integers(3))
    if kind == 0:                       # (m,k) @ (k,n)
        a = _t(rng, (m, k), dtype, extreme, max_mag=1e15)
        b = _t(rng, (k, n), dtype, extreme, max_mag=1e15)
    elif kind == 1:                     # batched (2,m,k) @ (2,k,n)
        a = _t(rng, (2, m, k), dtype, extreme, max_mag=1e15)
        b = _t(rng, (2, k, n), dtype, extreme, max_mag=1e15)
    else:                               # (m,k) @ (k,)
        a = _t(rng, (m, k), dtype, extreme, max_mag=1e15)
        b = _t(rng, (k,), dtype, extreme, max_mag=1e15)
    return lambda: _weighted_sum(a @ b), [a, b]


@_register("concat", covers=("concat", "sum"))
def _build_concat(rng, dtype, extreme, size):
    from ...nn.tensor import concat
    axis = int(rng.integers(2))
    a = _t(rng, (size + 1, size + 2), dtype, extreme)
    b = _t(rng, (size + 1, size + 2), dtype, extreme)
    return lambda: _weighted_sum(concat([a, b], axis=axis)), [a, b]


@_register("stack", covers=("stack", "sum"))
def _build_stack(rng, dtype, extreme, size):
    from ...nn.tensor import stack
    a = _t(rng, (size + 1,), dtype, extreme)
    b = _t(rng, (size + 1,), dtype, extreme)
    return lambda: _weighted_sum(stack([a, b], axis=0)), [a, b]


@_register("split", covers=("_split_piece", "sum", "tanh", "__mul__"))
def _build_split(rng, dtype, extreme, size):
    from ...nn.tensor import split
    x = _t(rng, (size + 1, 4), dtype, extreme)

    def fn():
        a, b = split(x, 2, axis=1)
        return _weighted_sum(a) + _weighted_sum(b.tanh())
    return fn, [x]


# -- functional.py -----------------------------------------------------
@_register("softmax", covers=("__add__", "__mul__", "exp", "__pow__", "sum"))
def _build_softmax(rng, dtype, extreme, size):
    from ...nn.functional import softmax
    x = _t(rng, (size + 1, size + 2), dtype, extreme)
    return lambda: _weighted_sum(softmax(x)), [x]


@_register("log_softmax", covers=("__add__", "__mul__", "exp", "log", "sum"))
def _build_log_softmax(rng, dtype, extreme, size):
    from ...nn.functional import log_softmax
    x = _t(rng, (size + 1, size + 2), dtype, extreme)
    return lambda: _weighted_sum(log_softmax(x)), [x]


@_register("cross_entropy", covers=("__getitem__", "sum", "__mul__",
                                    "__add__", "exp", "log"))
def _build_cross_entropy(rng, dtype, extreme, size):
    from ...nn.functional import cross_entropy
    n, c = size + 2, size + 1
    logits = _t(rng, (n, c), dtype, extreme)
    labels = rng.integers(0, c, size=n)
    return lambda: cross_entropy(logits, labels), [logits]


@_register("l2_normalize", covers=("__add__", "__mul__", "__pow__", "sum"))
def _build_l2_normalize(rng, dtype, extreme, size):
    from ...nn.functional import l2_normalize
    # Smooth trials stay off the zero vector (the gradient there is a
    # steep-but-finite eps ramp finite differences cannot track);
    # extreme trials deliberately include all-zero and subnormal rows.
    low = 0.0 if extreme else 0.2
    x = _t(rng, (size + 1, size + 2), dtype, extreme, low=low, max_mag=1e15)
    if extreme and rng.integers(2):
        x.data[0] = 0.0                       # force an all-zero row
    return lambda: _weighted_sum(l2_normalize(x)), [x]


@_register("cosine_similarity", covers=("__add__", "__mul__", "__pow__",
                                        "sum", "matmul", "transpose"))
def _build_cosine_similarity(rng, dtype, extreme, size):
    from ...nn.functional import cosine_similarity_matrix
    x = _t(rng, (size + 1, size + 2), dtype, extreme, low=0.0 if extreme
           else 0.2, max_mag=1e15)
    return lambda: _weighted_sum(cosine_similarity_matrix(x)), [x]


# -- fused recurrent kernels -------------------------------------------
@_register("fused_lstm_sequence", covers=("fused_lstm_sequence",),
           smooth_trials=1, extreme_trials=1)
def _build_fused_lstm_sequence(rng, dtype, extreme, size):
    from ...nn.fused import fused_lstm_sequence
    b, t, d, h = 2, size + 1, 2, 3
    x = _t(rng, (b, t, d), dtype, extreme, max_mag=1e4)
    h0 = _t(rng, (b, h), dtype, extreme, max_mag=1e4)
    c0 = _t(rng, (b, h), dtype, extreme, max_mag=1e4)
    w_x = _t(rng, (d, 4 * h), dtype, extreme, scale=0.3, max_mag=10.0)
    w_h = _t(rng, (h, 4 * h), dtype, extreme, scale=0.3, max_mag=10.0)
    bias = _t(rng, (4 * h,), dtype, extreme, scale=0.3, max_mag=10.0)

    def fn():
        h_seq, h_t, c_t = fused_lstm_sequence(x, h0, c0, w_x, w_h, bias)
        return (_weighted_sum(h_seq)
                + _weighted_sum(h_t)
                + _weighted_sum(c_t))
    return fn, [x, h0, c0, w_x, w_h, bias]


def _build_fused_head(loss):
    """Trial builder for :func:`fused_head_loss` with ``loss``: frozen
    features (no grad), the four head parameters, and mixup-style soft
    targets.  Extreme trials feed adversarial features up to 1e4, whose
    logits saturate the softmax to exact zeros and ones (the clip
    floor's regime) and plant ties."""

    def build(rng, dtype, extreme, size):
        from ...nn.fused import fused_head_loss
        n, d, h = size + 2, size + 1, size + 2
        x = _const(_values(rng, (n, d), dtype, extreme, max_mag=1e4), dtype)
        w1 = _t(rng, (d, h), dtype, extreme, scale=0.5, max_mag=10.0)
        b1 = _t(rng, (h,), dtype, extreme, scale=0.5, max_mag=10.0)
        w2 = _t(rng, (h, 2), dtype, extreme, scale=0.5, max_mag=10.0)
        b2 = _t(rng, (2,), dtype, extreme, scale=0.5, max_mag=10.0)
        lam = rng.uniform(size=(n, 1))
        onehot = np.eye(2)[rng.integers(0, 2, size=n)]
        targets = lam * onehot + (1.0 - lam) * onehot[rng.permutation(n)]
        return (lambda: fused_head_loss(x, w1, b1, w2, b2, targets,
                                        loss=loss, q=0.7),
                [w1, b1, w2, b2])
    return build


_register("fused_head_gce", covers=("fused_head_loss",))(
    _build_fused_head("gce"))
_register("fused_head_cce", covers=("fused_head_loss",))(
    _build_fused_head("cce"))


# -- loss kernels ------------------------------------------------------
def _probs_and_targets(rng, dtype, extreme, size):
    """(logits leaf, probs fn, targets) for the probability-space losses.

    Extreme trials feed ±50-magnitude logits, which drive float32
    softmax outputs to *exact* zeros and ones — the regime that used to
    blow up GCE's p**q gradient as q→0.
    """
    from ...nn.functional import softmax
    n, c = size + 2, 2
    scale = 50.0 if extreme else 1.0
    logits = _t(rng, (n, c), dtype, extreme=False, scale=scale)
    targets = np.zeros((n, c))
    targets[np.arange(n), rng.integers(0, c, size=n)] = 1.0
    return logits, (lambda: softmax(logits)), targets


@_register("gce_loss", covers=("clip", "__pow__", "__mul__", "__add__",
                               "sum", "exp"))
def _build_gce(rng, dtype, extreme, size):
    from ...losses.robust import gce_loss
    logits, probs, targets = _probs_and_targets(rng, dtype, extreme, size)
    return lambda: gce_loss(probs(), targets, q=0.7), [logits]


@_register("gce_loss_low_q", covers=("clip", "__pow__", "__mul__",
                                     "__add__", "sum", "exp"))
def _build_gce_low_q(rng, dtype, extreme, size):
    from ...losses.robust import gce_loss
    logits, probs, targets = _probs_and_targets(rng, dtype, extreme, size)
    return lambda: gce_loss(probs(), targets, q=1e-3), [logits]


@_register("cce_loss", covers=("clip", "log", "__mul__", "__add__",
                               "sum", "exp"))
def _build_cce(rng, dtype, extreme, size):
    from ...losses.robust import cce_loss
    logits, probs, targets = _probs_and_targets(rng, dtype, extreme, size)
    return lambda: cce_loss(probs(), targets), [logits]


@_register("mixup_gce", covers=("clip", "__pow__", "__mul__", "__add__",
                                "sum", "exp", "__getitem__"))
def _build_mixup_gce(rng, dtype, extreme, size):
    from ...augment.mixup import sample_mixup
    from ...losses.robust import gce_loss
    from ...nn.functional import softmax
    n, c = size + 2, 2
    labels = rng.integers(0, c, size=n)
    batch = sample_mixup(labels, rng, beta=0.3)
    if extreme:
        # λ exactly 0/1: the mixup-GCE edge the paper's Eq. 2 hits when
        # Beta(β, β) concentrates at the ends.  mixed_targets must stay
        # consistent with the mutated λ.
        from ...nn import one_hot
        batch.lam[: n // 2] = rng.choice([0.0, 1.0], size=n // 2)
        targets = one_hot(labels, c)
        batch.mixed_targets = (batch.lam[:, None] * targets
                               + (1.0 - batch.lam)[:, None]
                               * targets[batch.partner])
    features = _t(rng, (n, c), dtype, extreme=False,
                  scale=50.0 if extreme else 1.0)

    def fn():
        # λ adopts the feature dtype so a float32 graph stays float32.
        lam = Tensor(batch.lam[:, None].astype(features.data.dtype))
        mixed = features * lam + features[batch.partner] * (1.0 - lam)
        return gce_loss(softmax(mixed), batch.mixed_targets, q=0.7)
    return fn, [features]


@_register("nt_xent_loss", covers=("__add__", "__mul__", "__pow__", "sum",
                                   "matmul", "transpose", "exp", "log",
                                   "reshape", "__getitem__", "concat"))
def _build_nt_xent(rng, dtype, extreme, size):
    from ...losses.contrastive import nt_xent_loss
    n, d = size + 1, size + 2
    mag = 50.0 if extreme else 1.0
    z_a = _t(rng, (n, d), dtype, extreme=False, scale=mag)
    z_b = _t(rng, (n, d), dtype, extreme=False, scale=mag)
    if extreme:
        z_a.data[0] = 0.0                     # zero embedding row
    temperature = 0.01 if extreme else 0.5
    return (lambda: nt_xent_loss(z_a, z_b, temperature=temperature),
            [z_a, z_b])


@_register("sup_con_loss", covers=("__add__", "__mul__", "__pow__", "sum",
                                   "matmul", "transpose", "exp", "log",
                                   "reshape"))
def _build_sup_con(rng, dtype, extreme, size):
    from ...losses.contrastive import sup_con_loss
    n, d = size + 3, size + 2
    mag = 50.0 if extreme else 1.0
    z = _t(rng, (n, d), dtype, extreme=False, scale=mag)
    labels = rng.integers(0, 2, size=n)
    labels[:2] = (0, 1)                       # both classes present
    conf = rng.uniform(0.2, 1.0, size=n)
    if extreme:
        z.data[0] = 0.0
        conf[-1] = 0.0                        # fully distrusted label
    temperature = 0.01 if extreme else 0.5
    return (lambda: sup_con_loss(z, labels, temperature=temperature,
                                 confidences=conf, num_anchors=n - 1),
            [z])


# ----------------------------------------------------------------------
# Trial execution
# ----------------------------------------------------------------------
_DTYPES = {"float64": np.float64, "float32": np.float32}


def _trial_rng(name: str, seed: int, dtype_name: str, extreme: bool,
               size: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode()),
                                  zlib.crc32(dtype_name.encode()),
                                  int(extreme), size])


def fuzz_one(op: str, seed: int = 0, dtype: str = "float64",
             extreme: bool = False, size: int = 2) -> list[str]:
    """Run one deterministic trial; returns failure messages (empty=pass).

    This is the function named in every failure's repro string: calling
    it with the reported arguments regenerates the exact inputs.
    """
    spec = OP_REGISTRY.get(op)
    if spec is None:
        raise KeyError(f"unknown op {op!r}; registered: "
                       f"{sorted(OP_REGISTRY)}")
    np_dtype = _DTYPES[dtype]
    rng = _trial_rng(op, seed, dtype, extreme, size)
    messages: list[str] = []
    with np.errstate(all="ignore"):
        fn, params = spec.build(rng, np_dtype, extreme, size)
        try:
            out = fn()
        except Exception as exc:  # an op crashing on valid input IS a bug
            return [f"forward raised {type(exc).__name__}: {exc}"]
        if not np.isfinite(out.data).all():
            messages.append(
                f"non-finite forward output: {out.data!r}")
        if out.data.dtype != np.dtype(np_dtype):
            messages.append(
                f"dtype drift: inputs {np.dtype(np_dtype).name} -> "
                f"output {out.data.dtype.name}")
        if messages:
            return messages
        for p in params:
            p.zero_grad()
        try:
            out.backward()
        except Exception as exc:
            return [f"backward raised {type(exc).__name__}: {exc}"]
        for i, p in enumerate(params):
            if p.grad is None:
                continue
            if not np.isfinite(p.grad).all():
                messages.append(f"non-finite gradient for param #{i}")
            if p.grad.dtype != p.data.dtype:
                messages.append(
                    f"gradient dtype drift for param #{i}: data "
                    f"{p.data.dtype.name}, grad {p.grad.dtype.name}")
        if messages:
            return messages
        if spec.gradcheck and not extreme and np_dtype is np.float64:
            try:
                failures = check_gradients(fn, params,
                                           raise_on_first=False)
            except Exception as exc:
                return [f"gradcheck raised {type(exc).__name__}: {exc}"]
            messages.extend(str(f) for f in failures[:8])
            if len(failures) > 8:
                messages.append(f"... and {len(failures) - 8} more entries")
    return messages


def _shrunk(op: str, seed: int, dtype: str, extreme: bool,
            size: int) -> int:
    """Smallest size (>=1) at which the failing trial still fails."""
    best = size
    for candidate in range(size - 1, 0, -1):
        if fuzz_one(op, seed, dtype, extreme, candidate):
            best = candidate
    return best


def fuzz_all(seed: int = 0, ops: Sequence[str] | None = None,
             sizes: Sequence[int] = (2,)) -> FuzzReport:
    """Fuzz every registered op (or ``ops``); returns a :class:`FuzzReport`.

    Per op and size: ``smooth_trials`` seeds × {float64, float32} smooth
    trials (gradcheck on float64) plus ``extreme_trials`` seeds × both
    dtypes of adversarial-value trials.
    """
    report = FuzzReport(seed=seed)
    names = list(ops) if ops is not None else list(OP_REGISTRY)
    for name in names:
        spec = OP_REGISTRY[name]
        report.ops_run.append(name)
        plan = []
        for t in range(spec.smooth_trials):
            plan += [(seed + t, d, False) for d in ("float64", "float32")]
        for t in range(spec.extreme_trials):
            plan += [(seed + t, d, True) for d in ("float64", "float32")]
        for trial_seed, dtype, extreme in plan:
            for size in sizes:
                report.trials += 1
                messages = fuzz_one(name, trial_seed, dtype, extreme, size)
                if not messages:
                    continue
                small = _shrunk(name, trial_seed, dtype, extreme, size)
                if small != size:
                    messages = fuzz_one(name, trial_seed, dtype, extreme,
                                        small) or messages
                report.failures.append(FuzzFailure(
                    op=name, seed=trial_seed, dtype=dtype, extreme=extreme,
                    size=small, messages=tuple(messages)))
    return report
