"""Laterality geometry of a finished run of configs/laterality.json.

Reads the map (som.json), the feature vectors (features.csv) and the
U-Matrix clusters (clusters.csv) of the run tree and prints the clusters
that the left-dominant (CP-lh), right-dominant (CP-rh) and symmetric
(CP-dp) groups hit, their map centroids, whether the left and right
clusters are disjoint, and where the symmetric centroid falls along the
axis from the left centroid (t = 0) to the right one (t = 1). The map
must have been trained on the raw vectors (features.zscore false).

    gaitsig run --config configs/laterality.json --out runs/laterality
    python scripts/laterality_geometry.py runs/laterality
"""

import sys
from pathlib import Path

import numpy as np

from gaitsig.data import CP_DP, CP_LH, CP_RH
from gaitsig.features import read_features_csv
from gaitsig.som import best_match, load_map_json


def main(run_dir: Path) -> int:
    som = load_map_json(run_dir / "som.json")
    ids = np.loadtxt(run_dir / "clusters.csv", dtype=int, delimiter=",", skiprows=1, ndmin=2)[:, 2]
    coords = som.grid_coords()
    nodes = {}
    features = read_features_csv(run_dir / "features.csv")
    for label, row in zip(features.labels, features.values):
        nodes.setdefault(label, []).append(best_match(som, row))
    hits = {label: {int(ids[n]) for n in nodes[label]} for label in (CP_LH, CP_RH, CP_DP)}
    centroid = {label: coords[nodes[label]].mean(axis=0) for label in hits}
    for label, (row, col) in centroid.items():
        print(f"{label.value}: clusters {sorted(hits[label])}, map centroid ({row:.2f}, {col:.2f})")
    left, right = hits[CP_LH] - {-1}, hits[CP_RH] - {-1}
    print(f"left/right clusters disjoint: {bool(left and right and not left & right)}")
    axis = centroid[CP_RH] - centroid[CP_LH]
    t = float((centroid[CP_DP] - centroid[CP_LH]) @ axis / (axis @ axis))
    print(f"symmetric-group centroid along the left-right axis: t = {t:.3f} (between for 0 < t < 1)")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: python {sys.argv[0]} RUN_DIR")
    raise SystemExit(main(Path(sys.argv[1])))
