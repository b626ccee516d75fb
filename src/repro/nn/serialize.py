"""Write arrays as ``.npz`` archives with deterministic bytes.

Model archives (:mod:`repro.core.persistence`) and quantized archives
(:mod:`repro.quant.quantize`) are written through :func:`save_arrays`,
so the same arrays always give the same file.
"""

from __future__ import annotations

import io
import os
import pathlib
import zipfile

import numpy as np

from ..durable import atomic_write

__all__ = ["save_arrays"]

#: Pinned zip member timestamp (the DOS epoch).  ``np.savez`` stamps the
#: wall clock into every member header, so two saves of identical arrays
#: differ byte-wise; :func:`save_arrays` pins this instead.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def save_arrays(path: str | os.PathLike,
                arrays: dict[str, np.ndarray]) -> pathlib.Path:
    """Write ``arrays`` as an ``.npz`` with **deterministic bytes**.

    ``np.savez`` embeds the current wall clock in every zip member
    header, so saving the same arrays twice yields different files —
    which breaks content-addressed workflows (and the quantizer's
    "same archive → bit-identical quantized bytes" guarantee).  This
    writer produces the same ``np.load``-compatible uncompressed zip of
    ``.npy`` members, but sorts keys and pins every member's timestamp
    to the DOS epoch, so bytes are a pure function of the arrays.

    Written through :func:`repro.durable.atomic_write` (durable).
    Returns the path written.
    """
    def write(fh):
        with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
            for key in sorted(arrays):
                buf = io.BytesIO()
                np.lib.format.write_array(
                    buf, np.ascontiguousarray(arrays[key]),
                    allow_pickle=False)
                info = zipfile.ZipInfo(f"{key}.npy", date_time=_ZIP_EPOCH)
                zf.writestr(info, buf.getvalue())

    return atomic_write(path, write, durable=True)
