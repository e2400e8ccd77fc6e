"""8-bit grayscale PGM export for matrix-valued artifacts.

Values are min-max normalized per matrix (dark = low, bright = high); a
constant matrix maps to all black. Binary (P5) format, deterministic bytes.
"""

from __future__ import annotations

import numpy as np


def to_gray(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    lo = m.min()
    span = m.max() - lo
    if span == 0.0:
        return np.zeros(m.shape, dtype=np.uint8)
    scaled = np.rint((m - lo) / span * 255.0)
    return scaled.astype(np.uint8)


def write_pgm(matrix: np.ndarray, path) -> None:
    gray = to_gray(matrix)
    if gray.ndim != 2:
        raise ValueError("PGM export needs a 2-d matrix")
    rows, cols = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())

