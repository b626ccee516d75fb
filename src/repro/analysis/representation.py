"""Representation-space diagnostics.

The paper's central mechanism is geometric: supervised contrastive
learning pushes same-class sessions together and the two classes apart
(§I, §III-B).  This module quantifies that effect so users can verify
it on their own data:

* cosine **separation gap** — mean same-class minus mean cross-class
  cosine similarity;
* **silhouette score** over the two classes;
* **kNN label purity** — how often a session's neighbours share its
  label (the quantity Sel-CL's correction implicitly relies on);
* **centroid geometry** — class-centroid distance vs within-class
  spread (a Fisher-style separability ratio).
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "RepresentationReport",
    "cosine_separation_gap",
    "silhouette_score",
    "knn_label_purity",
    "centroid_separability",
    "representation_report",
]


def _validate(features: np.ndarray, labels: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-D array")
    if labels.shape != (features.shape[0],):
        raise ValueError("labels must align with features")
    if len(np.unique(labels)) < 2:
        raise ValueError("need at least two classes for separation metrics")
    return features, labels


def _unit_rows(features: np.ndarray) -> np.ndarray:
    return features / (np.linalg.norm(features, axis=1, keepdims=True)
                       + 1e-12)


def cosine_separation_gap(features: np.ndarray, labels) -> float:
    """Mean same-class cosine similarity minus mean cross-class one.

    Positive values mean classes form angular clusters; 0 means no
    class structure.
    """
    features, labels = _validate(features, labels)
    sims = _unit_rows(features) @ _unit_rows(features).T
    same = labels[:, None] == labels[None, :]
    off_diagonal = ~np.eye(len(labels), dtype=bool)
    return float(sims[same & off_diagonal].mean()
                 - sims[~same].mean())


def silhouette_score(features: np.ndarray, labels) -> float:
    """Mean silhouette coefficient over all samples (euclidean)."""
    features, labels = _validate(features, labels)
    n = features.shape[0]
    dists = np.linalg.norm(features[:, None, :] - features[None, :, :],
                           axis=2)
    scores = np.zeros(n)
    for i in range(n):
        own = labels == labels[i]
        own[i] = False
        a = dists[i, own].mean() if own.any() else 0.0
        b = np.inf
        for cls in np.unique(labels):
            if cls == labels[i]:
                continue
            other = labels == cls
            b = min(b, dists[i, other].mean())
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(scores.mean())


def knn_label_purity(features: np.ndarray, labels, k: int = 5) -> float:
    """Fraction of k nearest neighbours sharing the sample's label."""
    features, labels = _validate(features, labels)
    sims = _unit_rows(features) @ _unit_rows(features).T
    np.fill_diagonal(sims, -np.inf)
    k = min(k, len(labels) - 1)
    neighbours = np.argsort(-sims, axis=1)[:, :k]
    matches = labels[neighbours] == labels[:, None]
    return float(matches.mean())


def centroid_separability(features: np.ndarray, labels) -> float:
    """Fisher-style ratio: centroid distance / mean within-class spread."""
    features, labels = _validate(features, labels)
    centroids = {cls: features[labels == cls].mean(axis=0)
                 for cls in np.unique(labels)}
    classes = sorted(centroids)
    between = np.linalg.norm(centroids[classes[0]] - centroids[classes[1]])
    within = np.mean([
        np.linalg.norm(features[labels == cls] - centroids[cls], axis=1).mean()
        for cls in classes
    ])
    return float(between / (within + 1e-12))


@dataclasses.dataclass(frozen=True)
class RepresentationReport:
    """All diagnostics for one (features, labels) pair."""

    cosine_gap: float
    silhouette: float
    knn_purity: float
    centroid_ratio: float
    num_samples: int

    def __str__(self) -> str:
        return (f"cosine gap {self.cosine_gap:+.3f} | "
                f"silhouette {self.silhouette:+.3f} | "
                f"kNN purity {self.knn_purity:.3f} | "
                f"centroid ratio {self.centroid_ratio:.2f} "
                f"(n={self.num_samples})")


def representation_report(features: np.ndarray, labels,
                          k: int = 5) -> RepresentationReport:
    """Compute every diagnostic in one pass."""
    features, labels = _validate(features, labels)
    return RepresentationReport(
        cosine_gap=cosine_separation_gap(features, labels),
        silhouette=silhouette_score(features, labels),
        knn_purity=knn_label_purity(features, labels, k=k),
        centroid_ratio=centroid_separability(features, labels),
        num_samples=features.shape[0],
    )
