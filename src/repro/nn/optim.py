"""Gradient-descent optimizers: SGD (with momentum) and Adam."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]


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


class Optimizer:
    """Base optimizer: holds parameters, exposes step() and zero_grad().

    Optimizers are checkpointable: :meth:`state_dict` captures every
    hyper-parameter and moment buffer (``lr`` included, since a caller
    may change it mid-training) and :meth:`load_state_dict` restores them
    bit for bit, so an interrupted run resumed from a snapshot takes
    exactly the update steps the uninterrupted run would have.
    """

    def __init__(self, parameters: Sequence[Parameter], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of hyper-parameters and internal buffers."""
        return {"lr": float(self.lr)}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        self.lr = float(state["lr"])

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


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, parameters: Sequence[Parameter], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                grad = v
            p.data -= self.lr * grad

    def state_dict(self) -> dict:
        state = super().state_dict()
        state.update(
            momentum=float(self.momentum),
            weight_decay=float(self.weight_decay),
            velocity=[v.copy() for v in self._velocity],
        )
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.momentum = float(state["momentum"])
        self.weight_decay = float(state["weight_decay"])
        self._velocity = self._load_buffers("velocity", state["velocity"])


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) — the optimizer the paper trains with."""

    def __init__(self, parameters: Sequence[Parameter], lr: float = 0.005,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad ** 2
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state.update(
            beta1=float(self.beta1),
            beta2=float(self.beta2),
            eps=float(self.eps),
            weight_decay=float(self.weight_decay),
            step=int(self._step),
            m=[m.copy() for m in self._m],
            v=[v.copy() for v in self._v],
        )
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.beta1 = float(state["beta1"])
        self.beta2 = float(state["beta2"])
        self.eps = float(state["eps"])
        self.weight_decay = float(state["weight_decay"])
        self._step = int(state["step"])
        self._m = self._load_buffers("m", state["m"])
        self._v = self._load_buffers("v", state["v"])
