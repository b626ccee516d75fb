"""Terminal plots: render curves as ASCII.

The experiment harness targets headless/CI environments, so quick
visual checks (noise-decay curves, loss histories) are rendered as text
rather than through a plotting stack.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ascii_curve"]


def ascii_curve(xs, ys, width: int = 60, height: int = 12,
                title: str = "", y_label: str = "") -> str:
    """Plot one curve: ``ys`` over ``xs`` on a character grid."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise ValueError("xs and ys must be equal-length 1-D with >= 2 points")
    if width < 8 or height < 3:
        raise ValueError("width must be >= 8 and height >= 3")

    lo, hi = float(ys.min()), float(ys.max())
    if hi - lo < 1e-12:
        hi = lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    x_lo, x_hi = float(xs.min()), float(xs.max())
    for x, y in zip(xs, ys):
        col = int(round((x - x_lo) / (x_hi - x_lo) * (width - 1)))
        row = int(round((hi - y) / (hi - lo) * (height - 1)))
        grid[row][col] = "*"

    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        if i == 0:
            label = f"{hi:8.2f} "
        elif i == height - 1:
            label = f"{lo:8.2f} "
        else:
            label = " " * 9
        lines.append(label + "|" + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(" " * 10 + f"{x_lo:<.3g}" + " " * (width - 12)
                 + f"{x_hi:>.3g}")
    if y_label:
        lines.append(f"({y_label})")
    return "\n".join(lines)
