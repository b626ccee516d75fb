"""Save/load model parameters as ``.npz`` archives.

Besides the classic :func:`save_module`/:func:`load_module` pair, this
module can read archive arrays **into caller-provided buffers**
(:func:`load_arrays_into`): the serving cluster allocates one
shared-memory segment, points numpy views at it, and fills those views
straight from the archive — one warm load, after which every worker
process maps the same bytes.
"""

from __future__ import annotations

import io
import os
import pathlib
import zipfile

import numpy as np

from ..durable import atomic_write
from .module import LoadReport, Module

__all__ = ["save_module", "load_module", "load_arrays", "load_arrays_into",
           "save_arrays"]

#: Pinned zip member timestamp (the DOS epoch).  ``np.savez`` stamps the
#: wall clock into every member header, so two saves of identical arrays
#: differ byte-wise; :func:`save_arrays` pins this instead.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def save_module(module: Module, path: str | os.PathLike) -> None:
    """Write the module's state dict to ``path`` (npz format)."""
    state = module.state_dict()
    if not state:
        raise ValueError("module has no parameters to save")
    np.savez(path, **state)


def load_module(module: Module, path: str | os.PathLike,
                strict: bool = True, *, copy: bool = True) -> Module:
    """Restore a state dict previously written by :func:`save_module`.

    Strict by default: an archive whose keys do not exactly match the
    module's parameters raises :class:`KeyError` (and shape mismatches
    raise :class:`ValueError`) instead of partially loading.  Pass
    ``strict=False`` to load the intersection deliberately — e.g. when
    warm-starting a related architecture; the skipped keys are recorded
    on ``module.last_load_report``.  ``copy=False`` binds the archive
    arrays without copying (see :meth:`Module.load_state_dict`).
    """
    state = load_arrays(path)
    report: LoadReport = module.load_state_dict(state, strict=strict,
                                                copy=copy)
    module.last_load_report = report
    return module


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


def load_arrays(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Read every array of an ``.npz`` archive into a plain dict."""
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}


def load_arrays_into(path: str | os.PathLike,
                     out: dict[str, np.ndarray]) -> list[str]:
    """Read archive arrays into caller-provided buffers, in place.

    Every key of ``out`` must exist in the archive with exactly the
    buffer's dtype and shape — a serving segment laid out for one model
    must never silently accept a different one.  Archive keys absent
    from ``out`` are ignored (callers choose what to map); the list of
    keys actually filled is returned.
    """
    filled: list[str] = []
    with np.load(path) as archive:
        available = set(archive.files)
        missing = sorted(set(out) - available)
        if missing:
            raise KeyError(f"archive {path} is missing array(s) {missing}")
        for key, buffer in out.items():
            value = archive[key]
            if value.dtype != buffer.dtype or value.shape != buffer.shape:
                raise ValueError(
                    f"buffer mismatch for {key!r}: archive has "
                    f"{value.dtype}{value.shape}, buffer is "
                    f"{buffer.dtype}{buffer.shape}")
            buffer[...] = value
            filled.append(key)
    return filled
