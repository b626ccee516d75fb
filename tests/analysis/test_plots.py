"""Tests for ASCII plotting utilities."""

import numpy as np
import pytest

from repro.analysis import ascii_curve


def test_curve_contains_extremes_and_axes():
    xs = np.linspace(0, 1, 20)
    ys = xs ** 2
    plot = ascii_curve(xs, ys, title="parabola", y_label="y")
    assert "parabola" in plot
    assert "*" in plot
    assert "1.00" in plot and "0.00" in plot   # y-axis labels
    assert "(y)" in plot


def test_curve_flat_line_does_not_crash():
    plot = ascii_curve([0, 1, 2], [5.0, 5.0, 5.0])
    assert "*" in plot


def test_curve_dimensions():
    plot = ascii_curve(np.arange(5), np.arange(5), width=30, height=8)
    rows = plot.split("\n")
    data_rows = [r for r in rows if "|" in r]
    assert len(data_rows) == 8


def test_curve_validation():
    with pytest.raises(ValueError):
        ascii_curve([1], [1])
    with pytest.raises(ValueError):
        ascii_curve([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        ascii_curve([1, 2], [1, 2], width=4)

