"""Time-sampled scalar series and their CSV export."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SampledSeries", "write_csv"]


# Rows are formatted a block at a time, so the Python floats of a long
# series never exist all at once.
_BLOCK_ROWS = 4


def write_csv(path, header, columns):
    """Write columns side by side as CSV rows at full double precision.

    Each entry of ``columns`` is a 1-d array (one column) or a 2-d array
    (one column per entry of a row), all with one row per line.  Values are
    written with 17 significant digits, so they read back bitwise.
    """
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = np.column_stack([c[start : start + _BLOCK_ROWS] for c in columns])
            for row in block.tolist():
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


@dataclass(frozen=True)
class SampledSeries:
    """(t_i, y_i) pairs with strictly increasing times and finite values."""

    t: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if t.ndim != 1 or y.ndim != 1 or t.shape != y.shape:
            raise ValueError("t and y must be 1-d arrays of equal length")
        if t.size == 0:
            raise ValueError("series must be non-empty")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise ValueError("series values must be finite")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)

    def __len__(self):
        return self.t.shape[0]

    def window(self, t_lo, t_hi) -> "SampledSeries":
        """Restrict to samples with t_lo <= t <= t_hi."""
        mask = (self.t >= t_lo) & (self.t <= t_hi)
        if not np.any(mask):
            raise ValueError(f"no samples in window [{t_lo}, {t_hi}]")
        return SampledSeries(self.t[mask], self.y[mask])
