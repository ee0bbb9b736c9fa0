"""Terminal plotting for the figure harnesses.

The benches run in a terminal, so each figure's *curves* (Figure 4's
speedup/error series) render as ASCII charts next
to the tables — enough to eyeball the reproduced shapes against the
paper's plots.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.util.validation import ReproError

__all__ = ["line_chart"]


def _scale(values: Sequence[float], lo: float, hi: float, height: int) -> List[int]:
    if hi <= lo:
        return [0 for _ in values]
    return [
        min(height - 1, max(0, int(round((v - lo) / (hi - lo) * (height - 1)))))
        for v in values
    ]


def line_chart(
    xs: Sequence,
    ys: Sequence[float],
    *,
    title: str = "",
    height: int = 10,
    logy: bool = False,
    marker: str = "o",
) -> str:
    """Render one series as an ASCII chart, one column per point."""
    if len(xs) != len(ys):
        raise ReproError("xs and ys must have equal length")
    if len(ys) == 0:
        raise ReproError("nothing to plot")
    vals = [math.log10(y) if logy else float(y) for y in ys]
    lo, hi = min(vals), max(vals)
    rows = _scale(vals, lo, hi, height)

    width = len(ys)
    grid = [[" "] * width for _ in range(height)]
    for col, row in enumerate(rows):
        grid[height - 1 - row][col] = marker

    def fmt_axis(v: float) -> str:
        real = 10**v if logy else v
        return f"{real:9.3g}"

    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        axis = fmt_axis(hi) if i == 0 else (fmt_axis(lo) if i == height - 1 else " " * 9)
        lines.append(f"{axis} |" + "".join(row) + "|")
    labels = [str(x) for x in xs]
    lines.append(" " * 10 + "^" * width)
    lines.append(" " * 10 + f"x: {labels[0]} .. {labels[-1]} ({width} points)")
    return "\n".join(lines)
