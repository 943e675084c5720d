"""Fixed-width text tables for CLI reports and study summaries."""

from __future__ import annotations

import numpy as np


def report(table) -> str:
    """Fixed-width text table; floats at 6 significant digits."""
    def fmt(cell):
        if isinstance(cell, bool):
            return str(cell)
        if isinstance(cell, (int, np.integer)):
            return str(int(cell))
        if isinstance(cell, (float, np.floating)):
            return "" if np.isnan(cell) else f"{float(cell):.6g}"
        return str(cell)

    rows = [[fmt(c) for c in row] for row in table]
    ncols = max(len(r) for r in rows)
    widths = [max(len(r[j]) for r in rows if j < len(r)) for j in range(ncols)]
    lines = [
        "  ".join(c.rjust(widths[j]) for j, c in enumerate(r)).rstrip()
        for r in rows
    ]
    return "\n".join(lines) + "\n"
