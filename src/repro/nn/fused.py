"""Fused recurrent cell kernels with hand-derived backward closures.

The generic autograd path builds ~15 graph nodes per LSTM timestep (two
matmuls, adds, four gate slices, four activations, five elementwise
state ops); each gate slice's backward used to allocate a full
``(batch, 4*hidden)`` zero buffer and scatter through ``np.add.at``.
These kernels compute the whole gate block and state update in plain
NumPy in one forward pass and register **one backward closure per
output tensor**, writing parameter-gradient slices directly into the
shared ``.grad`` buffers.

``fused_lstm_sequence`` is a whole-layer kernel: the entire time loop
runs inside one forward and registers a **single** backward closure
that walks the sequence in reverse, scatters gate pre-activation
gradients into one ``(batch, time, gates)`` buffer, and computes every
weight gradient with one batched GEMM over all timesteps instead of one
small GEMM per step.  It is what the fused ``LSTM`` layer runs; the
composed-op cell (:class:`~repro.nn.lstm.LSTMCell`) stays as its
reference.

``fused_head_loss`` does the same for the two-layer classifier head
both CLFD stages train on frozen representations: Linear → LeakyReLU →
Linear → softmax → GCE or CCE in one node, whose NumPy expressions
repeat the composed graph's operation for operation, so its loss and
gradients are bit-identical to it (DESIGN.md §7).

The sequence kernel's time loop is the plain-NumPy function
:func:`lstm_recurrence`: it takes the time-major input projection and
writes into buffers the caller owns.  Training runs it with every row
live; the inference forward
(:class:`repro.core.encoder.InferenceForward`) runs it over a padded
batch with ``live`` (from :func:`live_rows`), stopping at the longest
row and confining each step's elementwise work to the row prefix that
still holds a live row.  Every GEMM keeps its full shape, so live cells
are bit-identical to the full grid (DESIGN.md §7); the cells skipped
are left at zero.

All kernels follow the engine's dtype: float32 inputs stay float32
throughout forward and backward.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "live_rows",
    "lstm_recurrence",
    "fused_lstm_sequence",
    "fused_head_loss",
    "head_forward",
]


def _sigmoid_inplace(x: np.ndarray) -> None:
    """Overwrite ``x`` with ``sigmoid(x)`` without temporaries."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)


def live_rows(lengths, time: int) -> tuple[int, ...]:
    """Per-step live-row prefix of a padded batch, for the sequence kernels.

    Entry ``t`` is ``n_t = 1 + max{b : len_b > t}``, the shortest row
    prefix holding every row still inside its sequence at step ``t``;
    there is one entry per step up to the longest row (lengths are
    clipped to ``time``).  Rows need not be sorted: a short row inside
    the prefix is simply computed as in the full grid.
    """
    lengths = np.minimum(np.asarray(lengths).astype(np.int64), time)
    steps = int(lengths.max(initial=0))
    alive = lengths[None, :] > np.arange(steps)[:, None]
    rank = np.arange(1, len(lengths) + 1)
    return tuple(int(n) for n in (alive * rank).max(axis=1, initial=0))


# ----------------------------------------------------------------------
# LSTM
# ----------------------------------------------------------------------
def lstm_recurrence(proj, w_h, h_all, c_all, act, tc_all, scratch, *,
                    h0_zero: bool, live=None) -> None:
    """The LSTM time loop over a precomputed input projection, in NumPy.

    ``proj`` is the time-major ``(T, B, 4*hidden)`` input projection
    ``x @ W_x + b``; ``w_h`` the ``(hidden, 4*hidden)`` recurrent matrix.
    The caller owns every output buffer: ``h_all``/``c_all`` are
    ``(T + 1, B, hidden)`` with the initial states in slot 0 (step
    ``t`` writes slot ``t + 1``), ``act`` ``(T, B, 4*hidden)`` receives
    the gate activations ``[i, f, g, o]``, ``tc_all`` ``(T, B, hidden)``
    ``tanh(c)`` (what the backward pass reads), and ``scratch`` is a
    ``(B, hidden)`` temporary.  ``h0_zero`` says the initial hidden
    state is all zero, which skips step 0's recurrent GEMM.

    ``live`` (from :func:`live_rows`) runs ``len(live)`` steps, step
    ``t`` updating rows ``[:live[t]]``; every state cell it skips is
    zero.  Only the GEMM sees every row: its output rows do not depend
    on each other, so a live row gets the full-grid bits.
    """
    batch, hs = scratch.shape
    steps = len(proj) if live is None else len(live)
    if live is not None:
        c_all[1:], h_all[1:] = 0.0, 0.0
    h, c = h_all[0], c_all[0]
    for t in range(steps):
        rows = batch if live is None else live[t]
        if t == 0 and h0_zero:
            np.copyto(act[t], proj[t])
        else:
            np.dot(h, w_h, out=act[t])
            act[t, :rows] += proj[t, :rows]
        gates = act[t, :rows]
        _sigmoid_inplace(gates[:, 0 * hs:2 * hs])   # input + forget
        np.tanh(gates[:, 2 * hs:3 * hs], out=gates[:, 2 * hs:3 * hs])
        _sigmoid_inplace(gates[:, 3 * hs:4 * hs])   # output
        i = gates[:, 0 * hs:1 * hs]
        f = gates[:, 1 * hs:2 * hs]
        g = gates[:, 2 * hs:3 * hs]
        o = gates[:, 3 * hs:4 * hs]
        c_new, tc = c_all[t + 1, :rows], tc_all[t, :rows]
        h_new, s = h_all[t + 1, :rows], scratch[:rows]
        np.multiply(f, c[:rows], out=c_new)
        np.multiply(i, g, out=s)
        c_new += s
        np.tanh(c_new, out=tc)
        np.multiply(o, tc, out=h_new)
        h, c = h_all[t + 1], c_all[t + 1]


def fused_lstm_sequence(x, h0, c0, w_x, w_h, bias):
    """Run a whole LSTM layer over time as one graph node.

    ``x`` is the layer input ``(batch, time, features)``.  The input
    projection ``x @ W_x + b`` for every timestep is computed as a single
    GEMM inside the kernel (no intermediate graph nodes), then the
    recurrence runs in plain NumPy.  Returns ``(h_seq, h_T, c_T)`` where
    ``h_seq`` is ``(batch, time, hidden)`` and ``h_T``/``c_T`` are the
    final states.  The single backward closure walks the sequence in
    reverse, filling one ``(batch, time, 4*hidden)`` pre-activation
    gradient buffer; every weight gradient is then one batched GEMM over
    all timesteps rather than ``time`` small per-step GEMMs.  The time
    loop is :func:`lstm_recurrence` with every row live.
    """
    x, h0, c0 = as_tensor(x), as_tensor(h0), as_tensor(c0)
    batch, time, feat = x.data.shape
    hs = w_h.shape[0]
    four_hs = 4 * hs
    dtype = x.data.dtype
    # Time-major (T, B, .) buffers: every per-step slice [t] is
    # contiguous, so GEMMs and in-place ufuncs never touch strided
    # memory inside the recurrence.  All buffers are allocated once; the
    # backward closure reads the ones ``forward_pass`` fills.
    x_tb = np.empty((time, batch, feat), dtype=dtype)
    flat = x_tb.reshape(time * batch, feat)
    proj2d = np.empty((time * batch, four_hs), dtype=dtype)
    proj = proj2d.reshape(time, batch, four_hs)
    act = np.empty((time, batch, four_hs), dtype=dtype)
    # One extra leading slot holds the initial state, so the backward
    # pass reads h_prev/c_prev as plain slices with no concatenation.
    c_all = np.empty((time + 1, batch, hs), dtype=dtype)
    h_all = np.empty((time + 1, batch, hs), dtype=dtype)
    tc_all = np.empty((time, batch, hs), dtype=dtype)
    scratch = np.empty((batch, hs), dtype=dtype)

    def forward_pass():
        np.copyto(x_tb, x.data.transpose(1, 0, 2))
        np.dot(flat, w_x.data, out=proj2d)
        np.add(proj2d, bias.data, out=proj2d)
        c_all[0], h_all[0] = c0.data, h0.data
        lstm_recurrence(proj, w_h.data, h_all, c_all, act, tc_all, scratch,
                        h0_zero=not (h0.requires_grad or h0.data.any()))

    forward_pass()

    # c_T's backward (which reverse-topological order runs first, since
    # c_T consumes h_seq) stashes its incoming grad here; the sequence
    # backward pops it as the initial dL/dc.
    pending_c: list[np.ndarray] = []

    def backward_seq():
        # Contiguous time-major copy of the incoming grad, plus
        # preallocated scratch: the reverse loop performs no
        # allocations at all — every elementwise op writes into a
        # reused buffer or directly into the d_pre slab.
        d_h_tb = np.ascontiguousarray(h_seq.grad.transpose(1, 0, 2))
        dc = np.zeros((batch, hs), dtype=dtype)
        if pending_c:
            np.copyto(dc, pending_c.pop())
        carry = np.zeros((batch, hs), dtype=dtype)
        dh = np.empty((batch, hs), dtype=dtype)
        s = np.empty((batch, hs), dtype=dtype)
        d_pre = np.empty_like(act)
        w_h_t = np.ascontiguousarray(w_h.data.T)
        for t in range(time - 1, -1, -1):
            np.add(d_h_tb[t], carry, out=dh)
            gates = act[t]
            i = gates[:, 0 * hs:1 * hs]
            f = gates[:, 1 * hs:2 * hs]
            g = gates[:, 2 * hs:3 * hs]
            o = gates[:, 3 * hs:4 * hs]
            tc = tc_all[t]
            np.multiply(tc, tc, out=s)       # dc += dh * o * (1 - tanh(c)^2)
            np.subtract(1.0, s, out=s)
            s *= o
            s *= dh
            dc += s
            c_prev = c_all[t]
            step = d_pre[t]
            np.subtract(1.0, i, out=s)       # d_gate_i = dc * g * i * (1-i)
            s *= i
            s *= g
            np.multiply(s, dc, out=step[:, 0 * hs:1 * hs])
            np.subtract(1.0, f, out=s)       # d_gate_f = dc * c_prev * f * (1-f)
            s *= f
            s *= c_prev
            np.multiply(s, dc, out=step[:, 1 * hs:2 * hs])
            np.multiply(g, g, out=s)         # d_gate_g = dc * i * (1 - g^2)
            np.subtract(1.0, s, out=s)
            s *= i
            np.multiply(s, dc, out=step[:, 2 * hs:3 * hs])
            np.subtract(1.0, o, out=s)       # d_gate_o = dh * tanh(c) * o * (1-o)
            s *= o
            s *= tc
            np.multiply(s, dh, out=step[:, 3 * hs:4 * hs])
            if t > 0 or h0.requires_grad:
                np.dot(step, w_h_t, out=carry)
            dc *= f
        d_pre_flat = d_pre.reshape(time * batch, four_hs)
        if x.requires_grad:
            x._accumulate((d_pre_flat @ w_x.data.T)
                          .reshape(time, batch, feat).transpose(1, 0, 2))
        if w_x.requires_grad:
            w_x._accumulate(flat.T @ d_pre_flat)
        if bias.requires_grad:
            bias._accumulate(d_pre_flat.sum(axis=0))
        if w_h.requires_grad:
            w_h._accumulate(h_all[:-1].reshape(time * batch, hs).T @ d_pre_flat)
        if h0.requires_grad:
            h0._accumulate(carry)
        if c0.requires_grad:
            c0._accumulate(dc)

    h_seq = Tensor._make(np.ascontiguousarray(h_all[1:].transpose(1, 0, 2)),
                         (x, h0, c0, w_x, w_h, bias), backward_seq)

    def backward_c_final():
        pending_c.append(c_final.grad)

    c_final = Tensor._make(c_all[-1].copy(), (h_seq,), backward_c_final)
    return h_seq, h_seq[:, -1, :], c_final


# ----------------------------------------------------------------------
# Classifier head
# ----------------------------------------------------------------------
# ``Tensor.leaky_relu``'s slope, through which ``SoftmaxClassifier`` runs.
_HEAD_SLOPE = 0.01


def head_forward(x, fc1, fc2):
    """The head's forward pass on payloads, expression for expression
    as ``SoftmaxClassifier.probs`` builds it from composed ops.

    ``fc1``/``fc2`` map an array to its affine image ``x @ w + b``.
    Returns ``(act, scale, exps, sums, inv, probs)``: the hidden
    activation, LeakyReLU's per-entry slope, and the max-shifted
    softmax's exponentials, row sums, ``sums ** -1.0`` (the composed
    division) and probabilities.  Reductions call the ufunc reductions
    that ``ndarray.max``/``ndarray.sum`` run, without their Python
    wrappers.  Training (:func:`fused_head_loss`) and every inference
    path (:class:`repro.core.encoder.InferenceForward`) run it.
    """
    hidden = fc1(x)
    scale = np.where(hidden > 0, 1.0, _HEAD_SLOPE).astype(
        hidden.dtype, copy=False)
    act = hidden * scale
    logits = fc2(act)
    shifted = logits + np.maximum.reduce(logits, -1, keepdims=True) * -1.0
    exps = np.exp(shifted)
    sums = np.add.reduce(exps, -1, keepdims=True)
    inv = sums ** -1.0
    return act, scale, exps, sums, inv, exps * inv


def fused_head_loss(x, w1, b1, w2, b2, targets, loss: str = "gce",
                    q: float = 0.7):
    """Mean GCE or CCE loss of a two-layer classifier head, as one node.

    ``x @ w1 + b1`` → LeakyReLU → ``@ w2 + b2`` → max-shifted softmax →
    clip → ``loss`` against the soft ``targets`` (one-hot labels or
    mixup interpolations), averaged over the batch: what
    ``gce_loss(classifier.probs(x), targets, q)`` (Eq. 1–2, clip floor
    1e-4) or ``cce_loss(...)`` (clip floor 1e-12) computes from ~20
    composed nodes.  The single backward closure writes the four
    parameter gradients directly.

    Every NumPy expression repeats the composed graph's, operation for
    operation (division is ``e * s ** -1.0``, ``1 - p**q`` is
    ``p**q * -1.0 + 1.0``, the pow backward ``(g*q) * p**(q-1)``, the
    clip backward ``g * mask``), so the loss and all four gradients are
    bit-identical to the composed path in float32 and float64.

    ``x`` holds frozen features: it may not require grad.
    """
    # The clip floors the composed losses use; a lazy import, because
    # repro.losses imports repro.nn.
    from ..losses.robust import _EPS, _PROB_FLOOR

    if loss not in ("gce", "cce"):
        raise ValueError(f"unknown head loss {loss!r}")
    if loss == "gce" and not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    x = as_tensor(x)
    if x.requires_grad:
        raise ValueError("fused_head_loss trains a head on frozen features; "
                         "x must not require grad")
    dtype = x.data.dtype
    if not (dtype == w1.data.dtype == b1.data.dtype == w2.data.dtype
            == b2.data.dtype) or dtype not in (np.float32, np.float64):
        raise ValueError("x and the head parameters must share one dtype, "
                         "float32 or float64")
    targets = np.asarray(targets, dtype=dtype)
    n = x.data.shape[0]
    if x.data.ndim != 2 or targets.shape != (n, w2.data.shape[1]):
        raise ValueError(f"x {x.data.shape} and targets {targets.shape} "
                         f"do not fit a {w2.data.shape[1]}-class head")
    floor = _PROB_FLOOR if loss == "gce" else _EPS

    act, scale, exps, sums, inv, probs = head_forward(
        x.data, lambda v: v @ w1.data + b1.data,
        lambda v: v @ w2.data + b2.data)
    clipped = np.clip(probs, floor, 1.0)
    keep = (probs >= floor) & (probs <= 1.0)
    if loss == "gce":
        per = np.add.reduce(
            targets * (clipped ** q * -1.0 + 1.0) * (1.0 / q), -1)
    else:
        per = np.add.reduce(targets * np.log(clipped), -1) * -1.0
    value = np.asarray(np.add.reduce(per, None) * (1.0 / n))

    def backward():
        g = out.grad * (1.0 / n)
        if loss == "gce":
            gp = (g * (1.0 / q) * targets * -1.0 * q) * clipped ** (q - 1.0)
        else:
            gp = g * -1.0 * targets / clipped
        gp = gp * keep
        g_inv = np.add.reduce(gp * exps, -1, keepdims=True)
        g_logits = (gp * inv + g_inv * -1.0 * sums ** -2.0) * exps
        if w2.requires_grad:
            w2._accumulate(act.T @ g_logits)
        if b2.requires_grad:
            b2._accumulate(np.add.reduce(g_logits, 0))
        if w1.requires_grad or b1.requires_grad:
            g_hidden = (g_logits @ w2.data.T) * scale
            if w1.requires_grad:
                w1._accumulate(x.data.T @ g_hidden)
            if b1.requires_grad:
                b1._accumulate(np.add.reduce(g_hidden, 0))

    out = Tensor._make(value, (x, w1, b1, w2, b2), backward)
    return out
