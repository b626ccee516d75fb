"""Contrastive losses: SimCLR NT-Xent and supervised-contrastive variants.

Three supervised variants from the paper are provided through one entry
point, :func:`sup_con_loss`:

* ``variant="weighted"`` — the paper's L_Sup (Eq. 5): each positive pair
  is weighted by the label-corrector confidences ``cᵢ·cₚ``;
* ``variant="unweighted"`` — L_Sup^uw (Eq. 18), the "w/o L_Sup" ablation;
* ``variant="filtered"`` — L_Sup^ftr (Eq. 20): pairs with
  ``cᵢ·cₚ ≤ τ`` are discarded.

Anchors are the first ``num_anchors`` rows (the training batch S); all
rows (S ∪ S¹, including the auxiliary malicious batch) act as candidates
A(xᵢ), exactly as in Algorithm 1.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor, cosine_similarity_matrix

__all__ = ["nt_xent_loss", "sup_con_loss"]

_NEG_INF = -1e9

# Per-(size, dtype) caches of the loss-geometry constants.  Both losses
# rebuild the same (m, m) diagonal mask and the NT-Xent positive-index
# arrays every call, and the losses run once per training step — for the
# small batch sizes the paper uses, allocating and filling these
# dominated the pure-Python side of the loss.  Entries are marked
# read-only so a cached array can never be mutated in place by a caller.
# Masks are cached per dtype: adding a float64 mask to float32 logits
# silently promoted the whole contrastive graph to float64.
_DIAG_MASKS: dict[tuple[int, np.dtype], np.ndarray] = {}
_NT_XENT_INDEX: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _diag_mask(m: int, dtype) -> np.ndarray:
    """Read-only (m, m) ``dtype`` matrix with ``_NEG_INF`` on the diagonal."""
    key = (m, np.dtype(dtype))
    mask = _DIAG_MASKS.get(key)
    if mask is None:
        mask = np.full((m, m), 0.0, dtype=key[1])
        np.fill_diagonal(mask, _NEG_INF)
        mask.setflags(write=False)
        _DIAG_MASKS[key] = mask
    return mask


def _nt_xent_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (rows, positives) index arrays for a 2n NT-Xent batch."""
    pair = _NT_XENT_INDEX.get(n)
    if pair is None:
        rows = np.arange(2 * n)
        positives = np.concatenate([np.arange(n, 2 * n), np.arange(0, n)])
        rows.setflags(write=False)
        positives.setflags(write=False)
        pair = _NT_XENT_INDEX[n] = (rows, positives)
    return pair


def nt_xent_loss(z_a: Tensor, z_b: Tensor, temperature: float = 1.0) -> Tensor:
    """SimCLR NT-Xent loss over two augmented views.

    ``z_a[i]`` and ``z_b[i]`` are representations of two augmentations of
    the same session; every other representation in the 2N batch is a
    negative.  Used for the label corrector's self-supervised
    pre-training (§III-A).
    """
    if z_a.shape != z_b.shape:
        raise ValueError(f"view shapes differ: {z_a.shape} vs {z_b.shape}")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    n = z_a.shape[0]
    from ..nn import concat

    z = concat([z_a, z_b], axis=0)                       # (2n, d)
    sims = cosine_similarity_matrix(z) * (1.0 / temperature)
    # Mask self-similarity out of the denominator.
    logits = sims + Tensor(_diag_mask(2 * n, sims.data.dtype))
    log_denom = _row_logsumexp(logits)
    rows, positives = _nt_xent_index(n)
    pos_logit = logits[rows, positives]
    return (log_denom - pos_logit).mean()


def sup_con_loss(z: Tensor, labels, temperature: float = 1.0,
                 confidences=None, num_anchors: int | None = None,
                 variant: str = "weighted",
                 threshold: float = 0.7) -> Tensor:
    """Supervised contrastive loss with confidence weighting (Eq. 5–6).

    Parameters
    ----------
    z: representations, shape (n, d). Rows ``[num_anchors:]`` are the
        auxiliary malicious batch S¹ (candidates only, never anchors).
    labels: corrected labels ŷ for all n rows.
    temperature: α in Eq. 6.
    confidences: label-corrector confidences c for all n rows. Required
        for the weighted and filtered variants.
    num_anchors: R, the anchor count (defaults to all rows).
    variant: "weighted" (paper), "unweighted" (Eq. 18) or "filtered"
        (Eq. 20 with ``threshold`` = τ).
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = z.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if num_anchors is None:
        num_anchors = n
    if not 1 <= num_anchors <= n:
        raise ValueError(f"num_anchors must be in [1, {n}]")
    if variant not in ("weighted", "unweighted", "filtered"):
        raise ValueError(f"unknown variant {variant!r}")

    weights = _pair_weights(labels, confidences, num_anchors, variant,
                            threshold, z.data.dtype)
    inv_anchors = np.asarray(1.0 / num_anchors, dtype=z.data.dtype)
    sims = cosine_similarity_matrix(z) * (1.0 / temperature)
    logits = sims + Tensor(_diag_mask(n, sims.data.dtype))
    log_denom = _row_logsumexp(logits)                    # (n,)
    # l_sup(i, p) = log_denom_i - logit_ip for each positive pair.
    pair_loss = (log_denom.reshape(n, 1) - logits)
    total = (pair_loss * Tensor(weights)).sum()
    return total * Tensor(inv_anchors)


def _pair_weights(labels: np.ndarray, confidences, num_anchors: int,
                  variant: str, threshold: float, dtype) -> np.ndarray:
    """The (n, n) matrix of per-pair coefficients
    ``mask(i,p) · w(i,p) / |B(x_i)|`` of :func:`sup_con_loss`."""
    n = labels.shape[0]
    if variant == "unweighted":
        pair_weights = np.ones((n, n))
    else:
        if confidences is None:
            raise ValueError(f"variant {variant!r} requires confidences")
        conf = np.asarray(confidences, dtype=np.float64)
        if conf.shape != (n,):
            raise ValueError(f"confidences must have shape ({n},)")
        pair_weights = np.outer(conf, conf)
        if variant == "filtered":
            pair_weights = (pair_weights > threshold).astype(np.float64)

    same_label = (labels[:, None] == labels[None, :]).astype(np.float64)
    np.fill_diagonal(same_label, 0.0)                     # B(x_i) excludes i
    positive_mask = same_label.copy()
    positive_mask[num_anchors:, :] = 0.0                  # only S rows anchor

    counts = positive_mask.sum(axis=1)                    # |B(x_i)|
    # 1/|B| per anchor; anchors with no positives contribute zero.
    inv_counts = np.divide(1.0, counts, out=np.zeros_like(counts),
                           where=counts > 0)
    return (positive_mask * pair_weights
            * inv_counts[:, None]).astype(dtype)


def _row_logsumexp(logits: Tensor) -> Tensor:
    """Row-wise log-sum-exp, numerically stabilised with a detached max.

    A non-finite row max (every entry masked out, or an upstream inf)
    would turn ``logits - row_max`` into NaN for the whole row; guarding
    the shift keeps the mask value itself as the result instead.
    """
    row_max = logits.data.max(axis=1, keepdims=True)
    row_max = Tensor(np.where(np.isfinite(row_max), row_max,
                              np.zeros((), dtype=row_max.dtype)))
    shifted = logits - row_max
    return (shifted.exp().sum(axis=1).log() + row_max.reshape(-1))
