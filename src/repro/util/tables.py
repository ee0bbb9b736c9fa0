"""Plain-text table rendering for benchmark/figure output.

The benchmark harnesses regenerate each paper table/figure as text rows;
this module provides the shared renderer so every figure prints in a
consistent, diffable format.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = ["render_table"]


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    *,
    title: Optional[str] = None,
) -> str:
    """Render an ASCII table: the first column left-aligned, the rest
    right-aligned, which suits name-then-numbers benchmark rows."""
    cells: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        cells.append([str(c) for c in row])

    ncol = len(headers)
    widths = [max(len(r[i]) for r in cells) for i in range(ncol)]

    def fmt_row(row: List[str]) -> str:
        parts = [row[0].ljust(widths[0])]
        parts += [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])]
        return "| " + " | ".join(parts) + " |"

    sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(cells[0]))
    lines.append(sep)
    lines.extend(fmt_row(r) for r in cells[1:])
    return "\n".join(lines)
