"""Tables for CLI reports and study summaries: fixed-width text and CSV."""

from __future__ import annotations

import numpy as np


def _cell(cell, spec):
    """Floats formatted by spec and NaN as the empty string; the rest by str."""
    if isinstance(cell, (float, np.floating)):
        return "" if np.isnan(cell) else format(float(cell), spec)
    return str(cell)


def report(table) -> str:
    """Fixed-width text table; floats at 6 significant digits."""
    rows = [[_cell(c, ".6g") for c in row] for row in table]
    ncols = max(len(r) for r in rows)
    widths = [max(len(r[j]) for r in rows if j < len(r)) for j in range(ncols)]
    lines = [
        "  ".join(c.rjust(widths[j]) for j, c in enumerate(r)).rstrip()
        for r in rows
    ]
    return "\n".join(lines) + "\n"


def csv(table) -> str:
    """Comma-separated rows; floats at 10 significant digits."""
    return "".join(",".join(_cell(c, ".10g") for c in row) + "\n" for row in table)
