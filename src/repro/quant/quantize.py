"""Archive-level post-training quantization (persistence format v3).

:func:`quantize_arrays` turns a full-precision CLFD archive — the
``(meta, arrays)`` pair produced by
:func:`repro.core.persistence.read_archive` — into an inference-only
**quantized archive**:

* ``word2vec/vectors`` → row-scaled float16 (``fp16_rows``): rows are
  normalised to unit magnitude, stored as float16, with one float32
  scale per vocabulary row under ``word2vec/vectors/scale``.
* Every 2-D detector weight (LSTM gate projections, recurrent
  matrices, FCNN layers) → per-output-channel symmetric int8
  (``int8``, payload + ``<key>/scale``) at ``precision="int8"``; plain
  float16 (``fp16``) at ``"float16"``; float32 (``raw``) at
  ``"float32"``.
* Biases and ``detector/centroids`` stay float32 (``raw``) — 1-D
  arrays are a rounding error of the payload and the centroid gap
  feeds a sigmoid directly.

The corrector is **dropped**: a quantized archive serves, it does not
train, and the label corrector only exists for training.  Conversely an
archive without a detector has nothing to serve and refuses to
quantize.

``meta["quant"]`` records the precision and the per-key kind table, and
``format_version`` becomes 3, which routes
:func:`~repro.core.persistence.build_clfd` to the quantized runtime
(:mod:`repro.quant.runtime`).  :func:`quantize_archive` persists the
result through :func:`repro.nn.serialize.save_arrays`, whose pinned zip
metadata makes the output **bit-identical across runs** for the same
source archive.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np

from ..core.persistence import _normalize_path, read_archive
from ..nn.quant import quantize_fp16_rows, quantize_symmetric
from ..nn.serialize import save_arrays

__all__ = ["PRECISIONS", "SCALE_SUFFIX", "quantize_arrays",
           "apply_precision", "quantize_archive"]

#: Precisions a quantized archive (and ``ServeConfig.precision``) accepts.
PRECISIONS = ("float32", "float16", "int8")

#: Companion-array suffix: ``<key>/scale`` holds the float32 scales for
#: an ``int8`` or ``fp16_rows`` payload at ``<key>``.
SCALE_SUFFIX = "/scale"

#: Storage kind of each 2-D weight, per requested precision.
_MATRIX_KIND = {"int8": "int8", "float16": "fp16", "float32": "raw"}


def _kind_for(key: str, value: np.ndarray, precision: str) -> str:
    """Storage kind for one archive array (see module docstring)."""
    if key == "word2vec/vectors":
        return "fp16_rows"
    if (value.ndim == 2 and key != "detector/centroids"
            and np.issubdtype(value.dtype, np.floating)):
        return _MATRIX_KIND[precision]
    return "raw"


def quantize_arrays(meta: dict, arrays: dict[str, np.ndarray],
                    precision: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Quantize ``(meta, arrays)`` to an inference-only v3 archive.

    Returns the new ``(meta, arrays)`` pair; the inputs are not
    modified.  Deterministic: the same inputs always produce
    bit-identical output arrays.
    """
    if precision not in PRECISIONS:
        raise ValueError(f"precision must be one of {PRECISIONS}, "
                         f"got {precision!r}")
    if meta.get("quant") is not None:
        raise ValueError(
            f"archive is already quantized to "
            f"{meta['quant'].get('precision')!r}; quantize the "
            f"full-precision source instead")
    if not meta.get("has_detector"):
        raise ValueError("archive has no detector — nothing to serve; "
                         "refusing to quantize")

    qmeta = json.loads(json.dumps(meta))  # deep copy, JSON types only
    qmeta["format_version"] = 3
    qmeta["has_corrector"] = False  # inference-only: corrector dropped
    kinds: dict[str, str] = {}
    qarrays: dict[str, np.ndarray] = {}
    for key, value in arrays.items():
        if key.startswith("corrector/"):
            continue
        kind = _kind_for(key, value, precision)
        if kind == "int8":
            payload, scales = quantize_symmetric(value)
            qarrays[key] = payload
            qarrays[key + SCALE_SUFFIX] = scales
        elif kind == "fp16_rows":
            payload, scales = quantize_fp16_rows(value)
            qarrays[key] = payload
            qarrays[key + SCALE_SUFFIX] = scales
        elif kind == "fp16":
            qarrays[key] = value.astype(np.float16)
        else:
            qarrays[key] = value.astype(np.float32)
        kinds[key] = kind
    qmeta["quant"] = {"precision": precision, "arrays": kinds}
    return qmeta, qarrays


def apply_precision(meta: dict, arrays: dict[str, np.ndarray],
                    precision: str | None
                    ) -> tuple[dict, dict[str, np.ndarray]]:
    """Route an archive to the precision a server was asked to run at.

    ``None`` means "serve the archive as persisted" — full-precision
    archives stay on the float path, quantized archives serve at their
    stored precision.  An explicit precision quantizes a full-precision
    archive on the fly; asking a quantized archive for a *different*
    precision is an error (requantizing int8 would silently compound
    rounding), while asking for its own precision is a no-op.
    """
    current = (meta.get("quant") or {}).get("precision")
    if precision is None or precision == current:
        return meta, arrays
    if current is not None:
        raise ValueError(
            f"archive is quantized to {current!r} and cannot be served "
            f"at {precision!r}; quantize the full-precision source")
    return quantize_arrays(meta, arrays, precision)


def quantize_archive(src: str | os.PathLike, out: str | os.PathLike,
                     precision: str = "int8") -> pathlib.Path:
    """Quantize a persisted archive file to a v3 archive file.

    Reads ``src`` (any readable version), quantizes to ``precision``
    and writes ``out`` via the deterministic archive writer — the same
    source bytes always produce the same output bytes.  Returns the
    path written.
    """
    meta, arrays = read_archive(src)
    qmeta, qarrays = quantize_arrays(meta, arrays, precision)
    payload: dict[str, np.ndarray] = {
        "meta": np.frombuffer(json.dumps(qmeta).encode("utf-8"),
                              dtype=np.uint8),
    }
    payload.update(qarrays)
    return save_arrays(_normalize_path(out), payload)
