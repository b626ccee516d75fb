"""Low-precision inference: archive quantization + distillation.

The production path for cheap serving (DESIGN.md §13):

1. :func:`distill_student` — optionally shrink a fitted CLFD teacher
   into a 1-layer student trained on its soft scores.
2. :func:`quantize_archive` — turn the persisted archive into an
   inference-only v3 archive: per-channel symmetric int8 weights,
   row-scaled float16 embeddings, deterministic bytes.
3. Serve it — :func:`repro.core.persistence.load_clfd` (and therefore
   ``InferenceEngine``/``ClusterEngine``) transparently build the
   :class:`QuantizedCLFD` runtime for v3 archives, or quantize a
   full-precision archive on the fly via
   ``ServeConfig(precision="int8")``.
"""

from .distill import distill_student, student_config
from .quantize import (PRECISIONS, SCALE_SUFFIX, apply_precision,
                       quantize_archive, quantize_arrays)
from .runtime import (QuantWeight, QuantizedCLFD, QuantizedSkipGram,
                      build_quantized)

__all__ = [
    "PRECISIONS", "SCALE_SUFFIX",
    "quantize_arrays", "apply_precision", "quantize_archive",
    "QuantWeight", "QuantizedSkipGram", "QuantizedCLFD",
    "build_quantized",
    "distill_student", "student_config",
]
