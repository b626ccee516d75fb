"""Save and load trained CLFD models.

A fitted :class:`~repro.core.CLFD` bundles four learned artifacts — the
word2vec embedding matrix, the corrector's encoder + head, and the
detector's encoder + head (plus its class centroids) — along with the
configuration needed to rebuild the module graph.  Everything is packed
into a single ``.npz`` archive so a trained detector can be shipped to
an inference service (see :mod:`repro.serve`) without the training data.
Each stage's arrays are its :meth:`~repro.core.stage.Stage.state_dict`
flattened under ``corrector/`` or ``detector/``; loading hands the same
nesting back to ``load_state_dict``.

Format notes
------------
* Version 2 adds the activity vocabulary (token strings in id order) so
  a serving process can encode raw activity tokens; version-1 archives
  still load, with ``vectorizer.vocab`` left as ``None``.
* Version 3 is the **quantized** inference-only format written by
  :func:`repro.quant.quantize_archive`: int8/float16 payloads with
  float32 scale companions and a ``meta["quant"]`` kind table.
  :func:`build_clfd` (and therefore :func:`load_clfd` and the serving
  cluster) transparently builds the low-precision runtime
  (:class:`repro.quant.QuantizedCLFD`) for such archives; v1/v2
  archives keep building the full CLFD.  ``load_clfd(path,
  precision=...)`` quantizes a full-precision archive on the fly.
* :func:`save_clfd` is atomic — the archive is written to a temp file in
  the target directory and renamed into place — and always writes a
  ``.npz`` suffix (``np.savez`` appends one silently, which used to
  break the ``save_clfd(m, "model")`` / ``load_clfd("model")``
  round-trip).  Both functions resolve suffix-less paths the same way;
  ``save_clfd`` returns the path actually written.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib

import numpy as np

from ..data.pipeline import SessionVectorizer
from ..data.vocab import Vocabulary
from ..data.word2vec import SkipGramModel
from ..nn.serialize import save_arrays
from .clfd import CLFD
from .config import CLFDConfig
from .fraud_detector import FraudDetector
from .label_corrector import LabelCorrector

__all__ = ["save_clfd", "load_clfd", "model_fingerprint", "read_archive",
           "build_clfd"]

_FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2, 3)


def _flatten_state(prefix: str, state: dict,
                   out: dict[str, np.ndarray]) -> None:
    """``{"encoder": {"w": a}}`` under ``p`` → ``out["p/encoder/w"] = a``."""
    for key, value in state.items():
        if isinstance(value, dict):
            _flatten_state(f"{prefix}/{key}", value, out)
        else:
            out[f"{prefix}/{key}"] = value


def _extract_state(prefix: str, archive: dict[str, np.ndarray]) -> dict:
    """The inverse of :func:`_flatten_state` for a stage's state: module
    parameter names are dotted, so ``/`` splits only the nesting."""
    state: dict = {}
    for key, value in archive.items():
        if key.startswith(prefix + "/"):
            part, _, name = key[len(prefix) + 1:].partition("/")
            if name:
                state.setdefault(part, {})[name] = value
            else:
                state[part] = value
    return state


def _normalize_path(path: str | os.PathLike) -> pathlib.Path:
    """Append ``.npz`` unless the path already carries the suffix."""
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def save_clfd(model: CLFD, path: str | os.PathLike) -> pathlib.Path:
    """Serialise a fitted CLFD model; returns the ``.npz`` path written."""
    if model.vectorizer is None:
        raise ValueError("cannot save an unfitted CLFD model")
    payload: dict[str, np.ndarray] = {}

    vocab = model.vectorizer.vocab
    meta = {
        "format_version": _FORMAT_VERSION,
        "config": dataclasses.asdict(model.config),
        "max_len": model.vectorizer.max_len,
        "has_corrector": model.label_corrector is not None,
        "has_detector": model.fraud_detector is not None,
        # Token strings in id order (including the pad token) so the
        # serving layer can encode raw sessions; None when the
        # vectorizer was built without a vocabulary.
        "vocab": vocab.tokens() if vocab is not None else None,
    }
    payload["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    payload["word2vec/vectors"] = model.vectorizer.model.vectors
    for name, stage in (("corrector", model.label_corrector),
                        ("detector", model.fraud_detector)):
        if stage is not None:
            _flatten_state(name, stage.state_dict(), payload)

    # Pinned zip metadata: identical models give identical bytes.
    return save_arrays(_normalize_path(path), payload)


def model_fingerprint(model: CLFD) -> str:
    """SHA-256 over every learned array of a fitted model.

    Bit-identical parameters — the resumable-training acceptance
    criterion — reduce to equal fingerprints, which the CI resume-smoke
    job and the kill-and-resume tests diff as plain strings.
    """
    import hashlib

    if model.vectorizer is None:
        raise ValueError("cannot fingerprint an unfitted CLFD model")
    arrays: dict[str, np.ndarray] = {
        "word2vec/vectors": model.vectorizer.model.vectors,
    }
    stages = {f"corrector{i}": stage
              for i, stage in enumerate(model.corrector_stages())}
    if model.fraud_detector is not None:
        stages["detector"] = model.fraud_detector
    for name, stage in stages.items():
        _flatten_state(name, stage.state_dict(), arrays)
    digest = hashlib.sha256()
    for key in sorted(arrays):
        value = np.ascontiguousarray(arrays[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(value.dtype).encode("utf-8"))
        digest.update(str(value.shape).encode("utf-8"))
        digest.update(value.tobytes())
    return digest.hexdigest()


def read_archive(
        path: str | os.PathLike) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a CLFD archive into ``(meta, arrays)`` without building it.

    ``meta`` is the decoded JSON header, ``arrays`` every learned array
    keyed as written by :func:`save_clfd` (the raw ``meta`` bytes are
    excluded).  This is the half of :func:`load_clfd` the serving
    cluster runs exactly once per archive — the arrays are then
    published into shared memory and every worker builds its model from
    views via :func:`build_clfd`.
    """
    path = pathlib.Path(path)
    if not path.exists():
        path = _normalize_path(path)
    with np.load(path) as archive:
        data = {key: archive[key] for key in archive.files}
    meta = json.loads(bytes(data.pop("meta")).decode("utf-8"))
    if meta["format_version"] not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported CLFD archive version {meta['format_version']}"
        )
    return meta, data


def build_clfd(meta: dict, arrays: dict[str, np.ndarray], *,
               bind: bool = False):
    """Assemble a ready-to-predict model from ``read_archive`` output.

    Full-precision (v1/v2) archives build a :class:`CLFD`; quantized
    (v3) archives build the low-precision inference runtime
    (:class:`repro.quant.QuantizedCLFD`) — both speak the inference
    surface the serving tier consumes.

    With ``bind=True`` the model's parameters (and the embedding matrix
    and centroids) *are* the provided arrays rather than copies — the
    zero-copy path used by cluster workers whose arrays are read-only
    shared-memory views.  Callers passing ``bind=True`` must keep the
    arrays' backing memory alive for the model's lifetime.
    """
    if meta.get("quant") is not None:
        from ..quant.runtime import build_quantized

        return build_quantized(meta, arrays, bind=bind)
    config = CLFDConfig.from_dict(meta["config"])

    model = CLFD(config)
    vectors = arrays["word2vec/vectors"]
    if not bind:
        vectors = vectors.copy()
    tokens = meta.get("vocab")
    vocab = Vocabulary(tokens[1:]) if tokens else None
    model.vectorizer = SessionVectorizer(SkipGramModel(vectors),
                                         max_len=int(meta["max_len"]),
                                         vocab=vocab)

    # Module construction consumes RNG draws; the exact seed is
    # irrelevant because every parameter is overwritten from the archive.
    rng = np.random.default_rng(0)
    copy = not bind
    if meta["has_corrector"]:
        model.label_corrector = LabelCorrector(
            config, model.vectorizer, rng).load_state_dict(
                _extract_state("corrector", arrays), copy=copy)
    if meta["has_detector"]:
        model.fraud_detector = FraudDetector(
            config, model.vectorizer, rng).load_state_dict(
                _extract_state("detector", arrays), copy=copy)
    return model


def load_clfd(path: str | os.PathLike, *, precision: str | None = None):
    """Restore a model saved by :func:`save_clfd` (any readable version).

    Accepts the same suffix-less paths as :func:`save_clfd`.  The
    returned model is ready for ``predict``; training state (corrected
    labels, loss histories) is not persisted.

    ``precision`` (``"int8"`` / ``"float16"`` / ``"float32"``)
    quantizes a full-precision archive on the fly and returns the
    low-precision runtime — the path ``ServeConfig(precision=...)``
    rides through.  ``None`` serves the archive as persisted (quantized
    v3 archives come back quantized either way).
    """
    meta, arrays = read_archive(path)
    if precision is not None:
        from ..quant.quantize import apply_precision

        meta, arrays = apply_precision(meta, arrays, precision)
    return build_clfd(meta, arrays)
