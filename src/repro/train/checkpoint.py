"""Atomic on-disk checkpoints for nested training state.

A checkpoint is one ``.npz`` archive per *tag* (``"corrector/ssl"``,
``"detector"``, ...) holding an arbitrary nested structure of NumPy
arrays, scalars, strings, lists and dicts — module state dicts,
optimizer moments, RNG state, epoch counters and loss histories all
snapshot through the same two calls:

    manager.save("corrector/ssl", {"model": module.state_dict(),
                                   "optimizer": optimizer.state_dict(),
                                   "rng": generator_state(rng),
                                   "epoch": 3})
    state = manager.load("corrector/ssl")

Arrays round-trip bit for bit (dtype and shape preserved, stored
uncompressed); everything else rides in a JSON sidecar entry inside the
same archive, with arbitrary-precision ints intact (PCG64 RNG state is
a 128-bit integer).  Crash posture: :mod:`repro.durable`.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np

from ..durable import atomic_write

__all__ = ["CheckpointManager"]

_META_KEY = "__meta__"
_ARRAY_SENTINEL = "__array__"
_SUFFIX = ".ckpt.npz"


def _flatten(value, key: str, arrays: dict[str, np.ndarray]):
    """Split a nested structure into (JSON skeleton, array payload)."""
    if isinstance(value, np.ndarray):
        arrays[key] = value
        return {_ARRAY_SENTINEL: key}
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        for sub in value:
            if not isinstance(sub, str):
                raise TypeError(f"checkpoint dict keys must be str, "
                                f"got {type(sub).__name__} under {key!r}")
        return {sub: _flatten(item, f"{key}/{sub}", arrays)
                for sub, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_flatten(item, f"{key}/{i}", arrays)
                for i, item in enumerate(value)]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot checkpoint {type(value).__name__} under {key!r}")


def _unflatten(skeleton, arrays: dict[str, np.ndarray]):
    if isinstance(skeleton, dict):
        if set(skeleton) == {_ARRAY_SENTINEL}:
            return arrays[skeleton[_ARRAY_SENTINEL]]
        return {key: _unflatten(item, arrays)
                for key, item in skeleton.items()}
    if isinstance(skeleton, list):
        return [_unflatten(item, arrays) for item in skeleton]
    return skeleton


class CheckpointManager:
    """Tagged, atomic snapshot store rooted at one directory."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def path(self, tag: str) -> pathlib.Path:
        return self.directory / (self._sanitize(tag) + _SUFFIX)

    @staticmethod
    def _sanitize(tag: str) -> str:
        if not tag:
            raise ValueError("checkpoint tag must be non-empty")
        name = tag.replace("/", "--")
        if name != name.strip(".") or os.sep in name:
            raise ValueError(f"invalid checkpoint tag {tag!r}")
        return name

    # ------------------------------------------------------------------
    def save(self, tag: str, state: dict) -> pathlib.Path:
        """Atomically write ``state`` (nested dict) under ``tag``."""
        arrays: dict[str, np.ndarray] = {}
        skeleton = _flatten(state, "root", arrays)
        meta = json.dumps(skeleton).encode("utf-8")
        payload = dict(arrays)
        payload[_META_KEY] = np.frombuffer(meta, dtype=np.uint8)
        return atomic_write(self.path(tag),
                            lambda fh: np.savez(fh, **payload),
                            durable=True)

    def load(self, tag: str) -> dict | None:
        """Return the snapshot for ``tag``, or None if absent."""
        target = self.path(tag)
        if not target.exists():
            return None
        with np.load(target) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = arrays.pop(_META_KEY)
        skeleton = json.loads(bytes(meta).decode("utf-8"))
        return _unflatten(skeleton, arrays)

    def has(self, tag: str) -> bool:
        return self.path(tag).exists()

    def remove(self, tag: str) -> None:
        self.path(tag).unlink(missing_ok=True)

    def tags(self) -> list[str]:
        """Every stored tag, sorted (``--`` undone back to ``/``)."""
        return sorted(
            p.name[: -len(_SUFFIX)].replace("--", "/")
            for p in self.directory.glob(f"*{_SUFFIX}")
        )

    def clear(self) -> None:
        for tag in self.tags():
            self.remove(tag)
