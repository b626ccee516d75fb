"""The Adam optimizer and global gradient-norm clipping."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .module import Parameter

__all__ = ["Adam", "clip_grad_norm"]

# Adam's moment decays and stabilizer: Kingma & Ba's defaults, which
# every model here trains with.
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clip norm (useful for logging / divergence checks).
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g ** 2).sum()) for g in grads)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


class Adam:
    """Adam (Kingma & Ba, 2015) — the optimizer the paper trains with.

    The moment decays and the stabilizer are fixed at Kingma & Ba's
    defaults; there is no weight decay.

    Adam is checkpointable: :meth:`state_dict` captures ``lr`` (a caller
    may change it mid-training), the step count and both moment buffers,
    and :meth:`load_state_dict` restores them bit for bit, so an
    interrupted run resumed from a snapshot takes exactly the update
    steps the uninterrupted run would have.
    """

    def __init__(self, parameters: Sequence[Parameter], lr: float = 0.005):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        self.lr = lr
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - _BETA1 ** self._step
        bias2 = 1.0 - _BETA2 ** self._step
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            m *= _BETA1
            m += (1.0 - _BETA1) * grad
            v *= _BETA2
            v += (1.0 - _BETA2) * grad ** 2
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + _EPS)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of ``lr``, the step count and the moment buffers."""
        return {
            "lr": float(self.lr),
            "step": int(self._step),
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`.

        Snapshots from before the moment decays became constants also
        carry ``beta1``/``beta2``/``eps``/``weight_decay``; those held
        the constants above and zero decay, so they are ignored.
        """
        self.lr = float(state["lr"])
        self._step = int(state["step"])
        self._m = self._load_buffers("m", state["m"])
        self._v = self._load_buffers("v", state["v"])

    def _load_buffers(self, name: str, stored: Sequence[np.ndarray]
                      ) -> list[np.ndarray]:
        """Validate per-parameter buffers against the parameter list."""
        stored = list(stored)
        if len(stored) != len(self.parameters):
            raise ValueError(
                f"{name} holds {len(stored)} buffers for "
                f"{len(self.parameters)} parameters")
        buffers = []
        for i, (p, value) in enumerate(zip(self.parameters, stored)):
            arr = np.array(value, copy=True)
            if arr.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}[{i}]: expected "
                    f"{p.data.shape}, got {arr.shape}")
            buffers.append(arr)
        return buffers
