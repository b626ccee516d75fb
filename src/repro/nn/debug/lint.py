"""Structural lint over a captured autograd graph (``repro lint-graph``).

The fuzzer (:mod:`repro.nn.debug.fuzz`) exercises ops in isolation; this
module checks the *composition* — the actual graph a training step
builds.  :func:`capture_graph` walks the parent links of a loss tensor
(before ``backward()`` frees them) and :func:`lint_graph` runs four
checks over the captured nodes:

* **detached-param** (error): a parameter that requires gradients but is
  not reachable from the loss — its gradient will silently stay ``None``
  and the optimizer will never move it.
* **dtype-mixing** (error): a node whose output dtype differs from one
  of its floating inputs without an explicit ``astype`` — the signature
  of a silent float32→float64 upcast (or a precision-losing downcast).
* **overlapping-views** (error) / **shared-buffer** (warning): sibling
  views of one buffer, as produced by ``split``/basic
  indexing.  Overlapping siblings double-route gradients through the
  same memory; non-overlapping fan-out is legal but flagged as a
  mutation hazard.
* **unfuzzed-op** (error): the graph contains an op whose backward
  closure is not covered by any registered fuzz spec — new ops must land
  with fuzz coverage (ISSUE 5 acceptance criterion).

``python -m repro lint-graph`` builds a representative CLFD training
step (CLFD's session encoder — fused LSTM stack, mean pooling →
supervised-contrastive loss + fused GCE classifier head on the frozen
encoding) and lints it, exiting 2 if any error-severity issue is found.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

import numpy as np

from .. import tensor as _tensor
from ..profiler import _op_name
from ..tensor import Tensor

__all__ = ["LintIssue", "capture_graph", "lint_graph", "lint_demo_graph"]


@dataclasses.dataclass(frozen=True)
class LintIssue:
    """One finding from :func:`lint_graph`."""

    check: str     # detached-param | dtype-mixing | overlapping-views |
                   # shared-buffer | unfuzzed-op
    severity: str  # "error" | "warning"
    message: str
    op: str = ""

    def __str__(self) -> str:
        tag = f" ({self.op})" if self.op else ""
        return f"[{self.severity}] {self.check}{tag}: {self.message}"


def _node_op(node: Tensor) -> str:
    backward = node._backward
    if backward is None:
        return "leaf"
    if backward is _tensor._FREED_GRAPH:
        return "<freed>"
    return _op_name(backward)


def capture_graph(root) -> list[Tensor]:
    """Every node reachable from ``root`` (a tensor or sequence of
    tensors) through parent links, deduplicated, root-first.

    Must run *before* ``backward()`` (or after ``backward(retain_graph=
    True)``): the default backward frees parent links, leaving nothing
    to walk.
    """
    roots = list(root) if isinstance(root, (list, tuple)) else [root]
    for r in roots:
        if r._backward is _tensor._FREED_GRAPH:
            raise ValueError(
                "graph has been freed by backward(); capture it before "
                "backward() or pass retain_graph=True")
    seen: set[int] = set()
    order: list[Tensor] = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        order.append(node)
        stack.extend(node._prev)
    return order


def _ultimate_base(arr: np.ndarray) -> np.ndarray:
    while arr.base is not None:
        arr = arr.base
    return arr


def _check_detached_params(nodes: Sequence[Tensor],
                           parameters: Iterable[Tensor]
                           ) -> list[LintIssue]:
    reachable = {id(n) for n in nodes}
    issues = []
    for i, param in enumerate(parameters):
        label = param.name or f"parameter #{i} (shape {param.data.shape})"
        if not param.requires_grad:
            issues.append(LintIssue(
                "detached-param", "error",
                f"{label} has requires_grad=False — the optimizer will "
                f"never update it"))
        elif id(param) not in reachable:
            issues.append(LintIssue(
                "detached-param", "error",
                f"{label} requires gradients but is not reachable from "
                f"the loss — its .grad will stay None"))
    return issues


def _check_dtype_mixing(nodes: Sequence[Tensor]) -> list[LintIssue]:
    issues = []
    for node in nodes:
        if not node._prev:
            continue
        op = _node_op(node)
        if op == "astype":       # the one op whose job is dtype change
            continue
        out_dtype = node.data.dtype
        in_dtypes = {p.data.dtype for p in node._prev
                     if np.issubdtype(p.data.dtype, np.floating)}
        mixed = in_dtypes - {out_dtype}
        if mixed or len(in_dtypes) > 1:
            described = ", ".join(sorted(str(d) for d in in_dtypes))
            issues.append(LintIssue(
                "dtype-mixing", "error",
                f"inputs ({described}) vs output ({out_dtype}) — a "
                f"silent promotion; use astype() to make the cast "
                f"explicit", op=op))
    return issues


def _check_shared_buffers(nodes: Sequence[Tensor]) -> list[LintIssue]:
    # Sibling views: nodes whose data is a view into their single
    # parent's buffer (split pieces, basic-index slices).
    views_by_parent: dict[int, list[Tensor]] = {}
    for node in nodes:
        if len(node._prev) != 1 or node.data.base is None:
            continue
        parent = node._prev[0]
        if _ultimate_base(node.data) is _ultimate_base(parent.data):
            views_by_parent.setdefault(id(parent), []).append(node)

    issues = []
    for siblings in views_by_parent.values():
        if len(siblings) < 2:
            continue
        overlap = False
        for i, a in enumerate(siblings):
            for b in siblings[i + 1:]:
                if np.shares_memory(a.data, b.data):
                    overlap = True
                    issues.append(LintIssue(
                        "overlapping-views", "error",
                        f"two views of one buffer overlap "
                        f"(shapes {a.data.shape} and {b.data.shape}) — "
                        f"gradients route through shared memory twice",
                        op=_node_op(a)))
        if not overlap:
            issues.append(LintIssue(
                "shared-buffer", "warning",
                f"{len(siblings)} views share one parent buffer "
                f"(split fan-out) — in-place writes to any one "
                f"of them would corrupt the others",
                op=_node_op(siblings[0])))
    return issues


def _check_unfuzzed_ops(nodes: Sequence[Tensor]) -> list[LintIssue]:
    from .fuzz import covered_graph_ops

    covered = covered_graph_ops()
    seen: set[str] = set()
    issues = []
    for node in nodes:
        if not node._prev:
            continue
        op = _node_op(node)
        if op in covered or op in seen or op == "<freed>":
            continue
        seen.add(op)
        issues.append(LintIssue(
            "unfuzzed-op", "error",
            f"op {op!r} appears in the graph but no fuzz spec covers "
            f"it — register one in repro.nn.debug.fuzz", op=op))
    return issues


def lint_graph(root, parameters: Iterable[Tensor] = ()) -> list[LintIssue]:
    """Run all lint checks over the graph reachable from ``root``.

    ``parameters`` (optional) are the tensors the optimizer will update;
    they power the detached-param check.  Errors first, then warnings.
    """
    nodes = capture_graph(root)
    issues = (_check_detached_params(nodes, parameters)
              + _check_dtype_mixing(nodes)
              + _check_shared_buffers(nodes)
              + _check_unfuzzed_ops(nodes))
    return sorted(issues, key=lambda i: (i.severity != "error", i.check))


def _demo_training_step() -> tuple[Tensor, list[Tensor]]:
    """A miniature CLFD training step built from CLFD's own modules: a
    :class:`~repro.core.encoder.SessionEncoder` (the fused LSTM stack
    with mean pooling over each session's valid steps) over a padded
    synthetic batch into the confidence-weighted sup-con loss, with an
    auxiliary malicious batch as extra candidates, plus the FCNN head
    trained on the frozen encoding through ``fused_head_loss`` — the
    op mix the fraud detector's Trainer runs.
    """
    from ...core.encoder import SessionEncoder, SoftmaxClassifier
    from ...losses.contrastive import sup_con_loss
    from ..functional import one_hot
    from ..fused import fused_head_loss

    rng = np.random.default_rng(0)
    n, aux, t, d, h = 6, 2, 4, 5, 4
    encoder = SessionEncoder(d, h, rng)
    classifier = SoftmaxClassifier(h, rng)
    x = rng.normal(size=(n + aux, t, d))
    lengths = rng.integers(1, t + 1, size=n + aux)
    z = encoder(x, lengths)
    labels = rng.integers(0, 2, size=n + aux)
    labels[:2] = (0, 1)
    labels[n:] = 1
    con = sup_con_loss(z, labels, temperature=0.5,
                       confidences=rng.uniform(0.5, 1.0, size=n + aux),
                       num_anchors=n)

    # The classifier head trains on frozen representations (Algorithm 1,
    # lines 13-19), through the same fused kernel the Trainer uses.
    head = [classifier.fc1.weight, classifier.fc1.bias,
            classifier.fc2.weight, classifier.fc2.bias]
    gce = fused_head_loss(z.detach().data[:n], *head,
                          one_hot(labels[:n], 2), loss="gce", q=0.7)

    params = []
    for prefix, module in (("enc", encoder), ("clf", classifier)):
        for name, param in module.named_parameters():
            param.name = f"{prefix}.{name}"
            params.append(param)
    return con + gce, params


def lint_demo_graph(verbose: bool = False) -> list[LintIssue]:
    """Build the demo CLFD training-step graph and lint it."""
    loss, params = _demo_training_step()
    issues = lint_graph(loss, params)
    if verbose:
        nodes = capture_graph(loss)
        ops = sorted({_node_op(n) for n in nodes if n._prev})
        print(f"lint-graph: {len(nodes)} nodes, "
              f"{len(ops)} distinct ops: {', '.join(ops)}")
        if issues:
            for issue in issues:
                print(f"  {issue}")
        else:
            print("  no issues found")
    return issues
