"""Module base class: parameter registry and state dicts."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Tensor

__all__ = ["Module", "Parameter"]


class Parameter(Tensor):
    """A Tensor that is registered as a learnable parameter of a Module."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network building blocks.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; this base class discovers them for ``parameters()``,
    ``zero_grad()`` and ``state_dict()``.
    """

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{name}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    # ------------------------------------------------------------------
    # Training state
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter array, keyed by dotted path."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray], *,
                        copy: bool = True) -> None:
        """Load parameter arrays saved by :meth:`state_dict`.

        Raises :class:`KeyError` when the state dict is missing
        parameters or carries unexpected keys, and :class:`ValueError`
        on a shape mismatch: loading a mismatched archive must fail
        loudly, never silently produce a half-initialised model.

        ``copy=False`` *binds* the provided arrays instead of copying:
        when an array's dtype already matches the parameter's, the
        parameter's ``data`` becomes the array itself (zero-copy — the
        serving cluster binds read-only shared-memory views this way so
        N worker processes share one set of weights).  Arrays whose
        dtype differs are still copied, since a cast materialises a new
        buffer anyway.
        """
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={missing} "
                f"unexpected={unexpected}"
            )
        for name, param in own.items():
            value = np.asarray(state[name])
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"expected {param.shape}, got {value.shape}"
                )
            if not copy and value.dtype == param.data.dtype:
                param.data = value
            else:
                param.data = value.astype(param.data.dtype, copy=True)

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
