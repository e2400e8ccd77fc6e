"""Laterality geometry of a finished run of configs/laterality.json.

Reads each subject's best-matching node (bmus.csv) and the U-Matrix
clusters (clusters.csv) of the run tree and prints the clusters that the
left-dominant (CP-lh), right-dominant (CP-rh) and symmetric (CP-dp)
groups hit, their map centroids, whether the left and right clusters are
disjoint, and where the symmetric centroid falls along the axis from the
left centroid (t = 0) to the right one (t = 1).

    gaitsig run --config configs/laterality.json --out runs/laterality
    python scripts/laterality_geometry.py runs/laterality
"""

import csv
import sys
from pathlib import Path

import numpy as np

LEFT, RIGHT, SYMMETRIC = "CP-lh", "CP-rh", "CP-dp"


def main(run_dir: Path) -> int:
    with open(run_dir / "clusters.csv", encoding="utf-8", newline="") as fh:
        cluster = {(r["row"], r["col"]): int(r["cluster"]) for r in csv.DictReader(fh)}
    nodes = {}
    with open(run_dir / "bmus.csv", encoding="utf-8", newline="") as fh:
        for r in csv.DictReader(fh):
            nodes.setdefault(r["label"], []).append((r["row"], r["col"]))
    hits = {label: {cluster[n] for n in nodes[label]} for label in (LEFT, RIGHT, SYMMETRIC)}
    centroid = {label: np.array(nodes[label], dtype=float).mean(axis=0) for label in hits}
    for label, (row, col) in centroid.items():
        print(f"{label}: clusters {sorted(hits[label])}, map centroid ({row:.2f}, {col:.2f})")
    left, right = hits[LEFT] - {-1}, hits[RIGHT] - {-1}
    print(f"left/right clusters disjoint: {bool(left and right and not left & right)}")
    axis = centroid[RIGHT] - centroid[LEFT]
    t = float((centroid[SYMMETRIC] - centroid[LEFT]) @ axis / (axis @ axis))
    print(f"symmetric-group centroid along the left-right axis: t = {t:.3f} (between for 0 < t < 1)")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: python {sys.argv[0]} RUN_DIR")
    raise SystemExit(main(Path(sys.argv[1])))
