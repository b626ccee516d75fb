"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the substrate that replaces PyTorch in this reproduction.
It implements a :class:`Tensor` that records a dynamic computation graph
and can backpropagate gradients through every operation used by the
models in this repository (LSTMs, transformers, contrastive losses).

The design follows the classic tape-based approach: every operation
returns a new ``Tensor`` holding references to its inputs and a closure
that accumulates gradients into them.  ``Tensor.backward()`` performs a
topological sort and runs the closures in reverse order.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "as_tensor",
    "concat",
    "stack",
    "split",
    "set_default_dtype",
    "get_default_dtype",
    "default_dtype",
]

# Grad mode is *per-thread* (like torch): a serving thread scoring
# under no_grad() must not strip the graph out from under a training
# thread's forward pass in the same process — exactly what happens when
# the stream processor fine-tunes a model while its engine keeps
# serving concurrent requests.
_GRAD_STATE = threading.local()

_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_DEFAULT_DTYPE = np.dtype(np.float64)

# Optional profiler (see repro.nn.profiler).  When set, ``Tensor._make``
# reports every graph node created and ``backward()`` reports per-op
# wall time.  A single ``is not None`` check keeps the disabled-path
# overhead negligible.
_PROFILE_HOOK = None

# Optional anomaly detector (see repro.nn.debug.anomaly).  When set,
# every node created by ``_make`` is reported (the hook tags it with its
# creating op + traceback and validates the forward output), and every
# backward closure run is followed by a gradient check on its parents.
_ANOMALY_HOOK = None

# Sentinel installed in ``_backward`` once a graph has been released by
# ``backward(retain_graph=False)``; distinguishes "freed" from "leaf".
_FREED_GRAPH = object()


def _set_profile_hook(hook) -> None:
    global _PROFILE_HOOK
    _PROFILE_HOOK = hook


def _set_anomaly_hook(hook) -> None:
    global _ANOMALY_HOOK
    _ANOMALY_HOOK = hook


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (like torch.no_grad).

    The flag is thread-local, so inference threads holding ``no_grad``
    never disable graph recording for a concurrently-training thread.
    """
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations in this thread record gradients."""
    return getattr(_GRAD_STATE, "enabled", True)


def set_default_dtype(dtype) -> None:
    """Set the floating dtype used for tensor/parameter construction.

    Non-floating inputs to :class:`Tensor` are cast to this dtype, and
    the initializers in :mod:`repro.nn.init` allocate parameters in it.
    """
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in _SUPPORTED_DTYPES:
        raise ValueError(
            f"default dtype must be float32 or float64, got {dt}"
        )
    _DEFAULT_DTYPE = dt


def get_default_dtype() -> np.dtype:
    """Return the current default floating dtype."""
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def default_dtype(dtype):
    """Context manager scoping :func:`set_default_dtype`."""
    previous = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after NumPy broadcasting.

    Gradients of broadcast operations must be summed over the axes that
    were expanded during the forward pass.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to the default compute dtype (see
        :func:`set_default_dtype`) unless already a floating dtype.
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` when
        ``backward()`` is called on a downstream tensor.  This is a
        property of the *leaf* itself: constructing a parameter inside
        :func:`no_grad` must not freeze it — only graph recording is
        suppressed there (via :meth:`_make`).
    dtype:
        Optional explicit dtype for the payload.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev",
                 "name", "_ctx")

    def __init__(self, data, requires_grad: bool = False, name: str = "",
                 dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[], None] | None = None
        self._prev: tuple[Tensor, ...] = ()
        self.name = name
        # Anomaly-mode provenance (op name + creation traceback), set by
        # the anomaly hook; None outside ``nn.detect_anomaly()``.
        self._ctx = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """NumPy protocol: ``np.asarray(tensor)`` yields the payload.

        Without this, ``np.asarray`` would wrap the Tensor object in a
        dtype=object array that silently poisons downstream math.
        """
        arr = self.data
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        if copy:
            arr = arr.copy()
        return arr

    def astype(self, dtype) -> "Tensor":
        """Cast to ``dtype``; gradients are cast back on the way down."""
        out_data = self.data.astype(dtype, copy=False)

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad.astype(self.data.dtype, copy=False))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Graph mechanics
    # ------------------------------------------------------------------
    def _init_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)

    def _accumulate(self, grad: np.ndarray) -> None:
        self._init_grad()
        self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None,
                 retain_graph: bool = False) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (so scalars behave like losses).

        Unless ``retain_graph`` is set, the graph is released afterwards:
        every interior node drops its backward closure and parent links.
        Closures capture their output tensor, so a recorded graph is one
        big reference cycle that only the cyclic garbage collector could
        reclaim — training loops used to accumulate hundreds of MB of
        dead graphs between collections.  Freeing eagerly restores plain
        refcounted lifetime, and a second ``backward()`` on a freed root
        raises instead of silently compounding gradients.
        """
        if self._backward is _FREED_GRAPH:
            raise RuntimeError(
                "backward() through a graph that has already been freed; "
                "pass retain_graph=True to the first call to back-propagate "
                "through the same graph twice"
            )
        if not self.requires_grad and self._backward is None:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))

        # Interior (non-leaf) grads are transient scratch for this pass.
        # Without the reset, a second backward(retain_graph=True) over
        # the same graph re-propagates the root's own accumulated grad
        # and compounds superlinearly; leaves (and freed roots, which
        # behave like leaves) keep accumulating across calls as usual.
        for node in topo:
            if node._backward is not None and node._backward is not _FREED_GRAPH:
                node.grad = None

        self._accumulate(grad)
        hook = _PROFILE_HOOK
        anomaly = _ANOMALY_HOOK
        for node in reversed(topo):
            fn = node._backward
            if fn is None or fn is _FREED_GRAPH or node.grad is None:
                continue
            if hook is None:
                fn()
            else:
                start = time.perf_counter()
                fn()
                hook.record_backward(fn, time.perf_counter() - start)
            if anomaly is not None:
                anomaly.grads_computed(node)

        if not retain_graph:
            for node in topo:
                if node._backward is not None:
                    node._backward = _FREED_GRAPH
                    node._prev = ()

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[], None] | None) -> "Tensor":
        """Build a graph node."""
        requires = is_grad_enabled() and any(p.requires_grad
                                             for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._prev = tuple(parents)
            out._backward = backward
            if _PROFILE_HOOK is not None:
                _PROFILE_HOOK.record_node(backward)
        if _ANOMALY_HOOK is not None:
            _ANOMALY_HOOK.node_created(out, backward, parents)
        return out

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            # Python scalars stay "weak" (NEP 50): computing directly on
            # the payload keeps float32 graphs in float32, where wrapping
            # the scalar in a float64 0-d Tensor would silently upcast.
            scalar = float(other)
            out_data = np.asarray(self.data + scalar)

            def backward():
                if self.requires_grad:
                    self._accumulate(out.grad)

            out = Tensor._make(out_data, (self,), backward)
            return out
        other = as_tensor(other)
        out_data = np.asarray(self.data + other.data)

        def backward():
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            scalar = float(other)
            out_data = np.asarray(self.data * scalar)

            def backward():
                if self.requires_grad:
                    self._accumulate(out.grad * scalar)

            out = Tensor._make(out_data, (self,), backward)
            return out
        other = as_tensor(other)
        out_data = np.asarray(self.data * other.data)

        def backward():
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return self + (-float(other))
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return (-self) + float(other)
        return as_tensor(other) + (-self)

    def __truediv__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return self * (1.0 / float(other))
        other = as_tensor(other)
        return self * other ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return self ** -1.0 * float(other)
        return as_tensor(other) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)
        out_data = np.asarray(self.data ** exponent)

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1.0))

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Transcendental functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.asarray(np.exp(self.data))

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad * out_data)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def log(self) -> "Tensor":
        out_data = np.asarray(np.log(self.data))

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad / self.data)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out_data = np.asarray(np.tanh(self.data))

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad * (1.0 - out_data ** 2))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def sigmoid(self) -> "Tensor":
        out_data = np.asarray(1.0 / (1.0 + np.exp(-self.data)))

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad * out_data * (1.0 - out_data))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def relu(self) -> "Tensor":
        mask = np.asarray(self.data > 0)
        out_data = np.where(mask, self.data, 0.0)

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad * mask)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def leaky_relu(self) -> "Tensor":
        """LeakyReLU with slope 0.01 below zero."""
        mask = np.asarray(self.data > 0)
        # np.where over two python floats yields float64; cast back so a
        # float32 graph is not silently promoted.
        scale = np.where(mask, 1.0, 0.01).astype(
            self.data.dtype, copy=False)
        out_data = np.asarray(self.data * scale)

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad * scale)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def gelu(self) -> "Tensor":
        """Tanh approximation of the Gaussian error linear unit."""
        # Keep the constant a python float: np.sqrt returns a "strong"
        # np.float64 scalar that would promote float32 inputs (NEP 50).
        c = float(np.sqrt(2.0 / np.pi))
        x = self.data
        inner = c * (x + 0.044715 * x ** 3)
        t = np.asarray(np.tanh(inner))
        out_data = np.asarray(0.5 * x * (1.0 + t))

        def backward():
            if self.requires_grad:
                dt = (1.0 - t ** 2) * c * (1.0 + 3 * 0.044715 * x ** 2)
                self._accumulate(out.grad * (0.5 * (1.0 + t) + 0.5 * x * dt))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def clip(self, lo: float, hi: float) -> "Tensor":
        """Clamp values; gradient passes only inside the interval."""
        mask = np.asarray((self.data >= lo) & (self.data <= hi))
        out_data = np.asarray(np.clip(self.data, lo, hi))

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad * mask)

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = np.asarray(self.data.sum(axis=axis, keepdims=keepdims))

        def backward():
            if self.requires_grad:
                grad = out.grad
                if axis is not None and not keepdims:
                    grad = np.expand_dims(grad, axis)
                self._accumulate(np.broadcast_to(grad, self.shape).copy())

        out = Tensor._make(out_data, (self,), backward)
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = np.asarray(self.data.max(axis=axis, keepdims=keepdims))

        def backward():
            if self.requires_grad:
                grad = out.grad
                expanded = out_data
                if axis is not None and not keepdims:
                    grad = np.expand_dims(grad, axis)
                    expanded = np.expand_dims(out_data, axis)
                mask = (self.data == expanded).astype(np.float64)
                # Split gradient evenly among ties, matching subgradient choice.
                counts = mask.sum(axis=axis, keepdims=True) if axis is not None \
                    else mask.sum()
                self._accumulate(grad * mask / counts)

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.shape))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad.transpose(inverse))

        out = Tensor._make(out_data, (self,), backward)
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = np.asarray(self.data[index])
        basic = _is_basic_index(index)

        def backward():
            if self.requires_grad:
                # Write straight into the shared grad buffer: no
                # per-slice zeros allocation, and ``np.add.at`` (slow,
                # but duplicate-safe) only for advanced indexing.
                self._init_grad()
                if basic:
                    self.grad[index] += out.grad
                else:
                    np.add.at(self.grad, index, out.grad)

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = as_tensor(other)
        out_data = np.asarray(self.data @ other.data)

        def backward():
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad = np.outer(out.grad, other.data) if out.grad.ndim == 1 \
                        else np.einsum("...i,j->...ij", out.grad, other.data)
                else:
                    grad = out.grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad = np.outer(self.data, out.grad)
                elif other.data.ndim == 1:
                    # out[..., t] = Σ_d self[..., t, d] · other[d]
                    grad = (self.data * out.grad[..., None]) \
                        .reshape(-1, other.data.shape[0]).sum(axis=0)
                else:
                    grad = np.swapaxes(self.data, -1, -2) @ out.grad
                other._accumulate(_unbroadcast(grad, other.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)


_BASIC_INDEX_TYPES = (int, np.integer, slice, type(Ellipsis), type(None))


def _is_basic_index(index) -> bool:
    """True when ``index`` triggers NumPy basic (view) indexing only.

    Basic indices select each source element at most once, so gradient
    scatter can use an in-place ``+=`` on a view instead of ``np.add.at``.
    """
    if isinstance(index, tuple):
        return all(isinstance(i, _BASIC_INDEX_TYPES) for i in index)
    return isinstance(index, _BASIC_INDEX_TYPES)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy if already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward():
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * out_data.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(out.grad[tuple(slicer)])

    out = Tensor._make(out_data, tuple(tensors), backward)
    return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward():
        for i, tensor in enumerate(tensors):
            if tensor.requires_grad:
                tensor._accumulate(np.take(out.grad, i, axis=axis))

    out = Tensor._make(out_data, tuple(tensors), backward)
    return out


def _split_piece(tensor: Tensor, slicer: tuple) -> Tensor:
    """One output of :func:`split`: a view whose backward scatters its
    gradient into the parent's shared grad buffer via an in-place ``+=``
    (no ``np.zeros_like`` + ``np.add.at`` per slice)."""

    def backward():
        if tensor.requires_grad:
            tensor._init_grad()
            tensor.grad[slicer] += out.grad

    out = Tensor._make(tensor.data[slicer], (tensor,), backward)
    return out


def split(tensor: Tensor, size_or_sections, axis: int = -1) -> list[Tensor]:
    """Split ``tensor`` along ``axis`` (torch.split semantics).

    ``size_or_sections`` is either a chunk size (the last chunk may be
    smaller) or an explicit list of sizes summing to the axis length.
    """
    tensor = as_tensor(tensor)
    if axis < 0:
        axis += tensor.ndim
    if not 0 <= axis < tensor.ndim:
        raise ValueError(f"axis out of range for shape {tensor.shape}")
    length = tensor.shape[axis]
    if isinstance(size_or_sections, (int, np.integer)):
        size = int(size_or_sections)
        if size < 1:
            raise ValueError("split size must be >= 1")
        sizes = [size] * (length // size)
        if length % size:
            sizes.append(length % size)
    else:
        sizes = [int(s) for s in size_or_sections]
        if sum(sizes) != length:
            raise ValueError(
                f"split sizes {sizes} do not sum to axis length {length}"
            )
    head = (slice(None),) * axis
    pieces, start = [], 0
    for size in sizes:
        pieces.append(_split_piece(tensor, head + (slice(start, start + size),)))
        start += size
    return pieces
