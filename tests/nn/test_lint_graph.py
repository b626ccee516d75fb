"""Graph lint: structural checks over captured autograd graphs."""

import numpy as np
import pytest

from repro.nn import Tensor, split
from repro.nn.debug import capture_graph, lint_graph
from repro.nn.debug.lint import lint_demo_graph


def _checks(issues):
    return {i.check for i in issues}


def test_demo_clfd_graph_is_clean():
    issues = lint_demo_graph()
    assert issues == [], [str(i) for i in issues]


def test_demo_step_is_built_from_clfds_encoder_and_head():
    from repro.nn.debug.lint import _demo_training_step, _node_op

    loss, params = _demo_training_step()
    ops = {_node_op(n) for n in capture_graph(loss) if n._prev}
    assert {"fused_lstm_sequence", "fused_head_loss"} <= ops
    # Two LSTM layers (SessionEncoder's default stack) and both FCNN
    # layers, all reachable from the loss.
    assert {p.name for p in params} == {
        f"enc.rnn.cells.{i}.{w}" for i in (0, 1)
        for w in ("w_x", "w_h", "bias")} | {
        f"clf.fc{i}.{w}" for i in (1, 2) for w in ("weight", "bias")}


def test_capture_graph_walks_all_parents():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    loss = ((a * b) + a).sum()
    nodes = capture_graph(loss)
    ids = {id(n) for n in nodes}
    assert {id(a), id(b), id(loss)} <= ids


def test_capture_graph_refuses_freed_graph():
    a = Tensor(np.ones(3), requires_grad=True)
    loss = (a * 2.0).sum()
    loss.backward()
    with pytest.raises(ValueError, match="freed"):
        capture_graph(loss)


def test_detached_param_not_reachable():
    a = Tensor(np.ones(3), requires_grad=True, name="used")
    orphan = Tensor(np.ones(3), requires_grad=True, name="orphan")
    loss = (a * 2.0).sum()
    issues = lint_graph(loss, [a, orphan])
    detached = [i for i in issues if i.check == "detached-param"]
    assert len(detached) == 1
    assert "orphan" in detached[0].message
    assert detached[0].severity == "error"


def test_detached_param_requires_grad_false():
    frozen = Tensor(np.ones(3), requires_grad=False, name="frozen")
    loss = (frozen * 2.0).sum()
    issues = lint_graph(loss, [frozen])
    assert any(i.check == "detached-param"
               and "requires_grad=False" in i.message for i in issues)


def test_dtype_mixing_flagged():
    a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
    loss = (a + b).sum()  # silent float32 -> float64 promotion
    issues = lint_graph(loss)
    mixing = [i for i in issues if i.check == "dtype-mixing"]
    assert mixing and mixing[0].severity == "error"


def test_explicit_astype_is_not_mixing():
    a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    loss = a.astype(np.float64).sum()
    issues = lint_graph(loss)
    assert "dtype-mixing" not in _checks(issues)


def test_split_fanout_warns_shared_buffer():
    a = Tensor(np.arange(8.0), requires_grad=True)
    parts = split(a, 2)
    loss = sum((p * p).sum() for p in parts[1:]) + (parts[0] ** 2).sum()
    issues = lint_graph(loss)
    shared = [i for i in issues if i.check == "shared-buffer"]
    assert shared and shared[0].severity == "warning"


def test_unfuzzed_op_flagged():
    x = Tensor(np.ones(3), requires_grad=True)

    def fn():
        def backward():
            x._accumulate(out.grad)

        out = Tensor._make(x.data * 1.0, (x,), backward)
        return out

    # Rename the closure so it reads as an op no fuzz spec covers.
    node = fn()
    node._backward.__qualname__ = "_totally_new_op"
    loss = node.sum()
    issues = lint_graph(loss)
    unfuzzed = [i for i in issues if i.check == "unfuzzed-op"]
    assert unfuzzed and "_totally_new_op" in unfuzzed[0].message


def test_errors_sort_before_warnings():
    a = Tensor(np.arange(8.0, dtype=np.float32), requires_grad=True)
    parts = split(a, 2)  # warning: shared-buffer fan-out
    b = Tensor(np.ones(2, dtype=np.float64), requires_grad=True)
    loss = (parts[0].astype(np.float64) * b).sum() \
        + sum((p * p).sum() for p in parts[1:]).astype(np.float64)
    orphan = Tensor(np.ones(1), requires_grad=True, name="orphan")
    issues = lint_graph(loss, [orphan])
    severities = [i.severity for i in issues]
    assert "error" in severities and "warning" in severities
    assert severities == sorted(severities, key=lambda s: s != "error")


def test_cli_lint_graph_exits_zero(capsys):
    from repro.cli import main

    assert main(["lint-graph"]) == 0
    out = capsys.readouterr().out
    assert "lint-graph:" in out
    assert "no issues found" in out
