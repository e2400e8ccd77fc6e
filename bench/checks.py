"""Output checks for the benchmark workloads.

Every check recomputes a property of the artifact tree apart from the
program: files are parsed here with the csv and json modules, and the
values are rebuilt from independent references (direct quadrature of the
CWT sum, per-node neighbour loops for the U-Matrix, union-find for the
clusters, Cohen's kappa from its definition). Nothing here imports
gaitsig. A failed check raises CheckError naming the file and the value.

    python3 bench/checks.py LAYOUT_JSON

runs every check of one round and prints one line per failure (exit 1 if
any). The benchmark runs the checks in that separate process so that its
own memory stays small: a spawned program's peak RSS starts from the RSS
of the process that spawned it.
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

JOINT_ORDER = ("Hip", "Knee", "Ankle")
SIDE_ORDER = ("Right", "Left")
N_SCALES = 12
SCALE_MIN, SCALE_MAX = 1.0, 25.0
HIGH_SCALE_ROWS = range(N_SCALES - 8, N_SCALES)  # the 8 largest scales
FEATURE_PCTS = [5.0 * k for k in range(20)]      # 0, 5, .., 95
UMATRIX_QUANTILE = 0.60


class CheckError(AssertionError):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass(frozen=True)
class Layout:
    """Where one workload round left its artifacts, and what it was asked
    to compute. `dataset_copy` is a second dataset CSV that must equal
    `dataset` byte for byte (the ingest step's output), or None."""

    dataset: Path
    dataset_copy: Path | None
    work: Path                # holds scalograms/, features.csv, som.json, ...
    n_subjects: int
    parts: tuple[tuple[str, str], ...]  # (joint, side) in canonical order
    has_eval: bool
    quadrature_samples: int
    sample_seed: int

    @classmethod
    def from_dict(cls, d: dict) -> "Layout":
        return cls(
            dataset=Path(d["dataset"]),
            dataset_copy=None if d["dataset_copy"] is None else Path(d["dataset_copy"]),
            work=Path(d["work"]),
            n_subjects=d["n_subjects"],
            parts=tuple(tuple(p) for p in d["parts"]),
            has_eval=d["has_eval"],
            quadrature_samples=d["quadrature_samples"],
            sample_seed=d["sample_seed"],
        )

    @cached_property
    def data(self) -> dict:
        return read_dataset(self.dataset)


# --- parsing ------------------------------------------------------------------


def read_dataset(path: Path) -> dict[str, tuple[str, dict[tuple[str, str], list[tuple[float, float]]]]]:
    """subject id -> (label, {(joint, side): [(pct, angle), ...]})."""
    subjects: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        require(next(reader) == ["subject_id", "label", "joint", "side", "pct", "angle_deg"],
                f"{path}: unexpected header")
        for sid, label, joint, side, pct, angle in reader:
            known, parts = subjects.setdefault(sid, (label, {}))
            require(known == label, f"{path}: {sid} has two labels")
            parts.setdefault((joint, side), []).append((float(pct), float(angle)))
    return subjects


def read_scalogram(path: Path) -> tuple[dict[str, str], np.ndarray, np.ndarray, np.ndarray]:
    meta: dict[str, str] = {}
    scales = pct = None
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# scalogram "):
                meta = dict(tok.split("=", 1) for tok in line[len("# scalogram "):].split())
            elif line.startswith("# scales="):
                scales = np.array(line[len("# scales="):].split(","), dtype=float)
            elif line.startswith("# pct="):
                pct = np.array(line[len("# pct="):].split(","), dtype=float)
            elif line:
                rows.append(line.split(","))
    require(bool(meta) and scales is not None and pct is not None, f"{path}: header lines missing")
    return meta, scales, pct, np.array(rows, dtype=float)


def read_features(path: Path) -> list[tuple[str, str, str, str, np.ndarray]]:
    """Rows of (subject_id, label, level, parts token, values)."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#") or line.startswith("subject_id,"):
                continue
            sid, label, level, parts, *vals = line.split(",")
            out.append((sid, label, level, parts, np.array(vals, dtype=float)))
    return out


def read_som(path: Path) -> tuple[int, int, np.ndarray, dict]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    w = np.array(doc["weights"], dtype=float).reshape(doc["rows"] * doc["cols"], doc["dim"])
    return doc["rows"], doc["cols"], w, doc


def read_umatrix(path: Path) -> tuple[float, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        heights = np.array([line.strip().split(",") for line in fh if line.strip()], dtype=float)
    fields = dict(tok.split("=", 1) for tok in header[1:].split() if "=" in tok)
    return float(fields["threshold"]), heights


def read_clusters(path: Path, rows: int, cols: int) -> np.ndarray:
    ids = np.full((rows, cols), -2, dtype=int)
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            ids[int(row["row"]), int(row["col"])] = int(row["cluster"])
    require(not np.any(ids == -2), f"{path}: a node has no cluster row")
    return ids


# --- independent references ----------------------------------------------------


def quadrature_cwt(x: np.ndarray, dt: float, scales: np.ndarray, nu0: float = 1.0, radius: float = 5.0) -> np.ndarray:
    """|W(s, tau)| by the rectangle rule, point by point: the Morlet
    wavelet truncated beyond radius*s, the signal zero off its grid."""
    t = np.arange(len(x)) * dt
    out = np.empty((len(scales), len(x)))
    for i, s in enumerate(scales):
        for j in range(len(x)):
            u = (t - t[j]) / s
            keep = np.abs(t - t[j]) <= radius * s
            psi_conj = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi) * np.exp(-2j * math.pi * nu0 * u)
            out[i, j] = abs(np.sum(x[keep] * psi_conj[keep]) * dt / math.sqrt(s))
    return out


def kappa(confusion: np.ndarray) -> float:
    total = confusion.sum()
    p_o = np.trace(confusion) / total
    p_e = sum(confusion[i, :].sum() * confusion[:, i].sum() for i in range(len(confusion))) / total**2
    return float((p_o - p_e) / (1.0 - p_e))


def linear_quantile(values: np.ndarray, q: float) -> float:
    v = sorted(float(x) for x in values.reshape(-1))
    pos = q * (len(v) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def union_find_labels(mask: np.ndarray) -> np.ndarray:
    rows, cols = mask.shape
    parent = list(range(rows * cols))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for r in range(rows):
        for c in range(cols):
            if not mask[r, c]:
                continue
            for nr, nc in ((r + 1, c), (r, c + 1)):
                if nr < rows and nc < cols and mask[nr, nc]:
                    parent[find(r * cols + c)] = find(nr * cols + nc)
    return np.array(
        [[find(r * cols + c) if mask[r, c] else -1 for c in range(cols)] for r in range(rows)]
    )


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape or not np.array_equal(a < 0, b < 0):
        return False
    pairs = {(int(x), int(y)) for x, y in zip(a.reshape(-1), b.reshape(-1)) if x >= 0}
    return len(pairs) == len({x for x, _ in pairs}) == len({y for _, y in pairs})


# --- checks --------------------------------------------------------------------


def check_dataset(lay: Layout) -> None:
    """The cohort has the expected subjects, each with every part on the
    0..100 step-1 grid; the ingest step's copy equals it byte for byte."""
    data = lay.data
    require(len(data) == lay.n_subjects, f"{lay.dataset}: {len(data)} subjects, expected {lay.n_subjects}")
    for sid, (_, parts) in data.items():
        for key, pts in parts.items():
            require([p for p, _ in pts] == [float(k) for k in range(101)],
                    f"{lay.dataset}: {sid} {key} is not on the 101-point grid")
        require(set(lay.parts) <= set(parts), f"{lay.dataset}: {sid} lacks one of {lay.parts}")
    if lay.dataset_copy is not None:
        require(lay.dataset.read_bytes() == lay.dataset_copy.read_bytes(),
                f"{lay.dataset_copy} differs from {lay.dataset}")


def quadrature_sample(lay: Layout) -> list[tuple[str, str, str]]:
    """The (subject, joint, side) scalograms that check_scalograms
    recomputes, drawn from the layout's sample seed."""
    keys = [(sid, j, s) for sid in sorted(lay.data) for j, s in lay.parts]
    return random.Random(lay.sample_seed).sample(keys, min(lay.quadrature_samples, len(keys)))


def scalogram_path(lay: Layout, sid: str, joint: str, side: str) -> Path:
    # workload ids use only [a-z0-9-], which the program keeps in file stems
    return lay.work / "scalograms" / f"scalogram_{sid}_{joint}_{side}.csv"


def check_scalograms(lay: Layout) -> None:
    """Sampled scalograms equal a direct quadrature of the dataset curve on
    12 log-spaced scales over [1, 25]."""
    data = lay.data
    n_files = len(list((lay.work / "scalograms").glob("scalogram_*.csv")))
    require(n_files == len(data) * len(lay.parts), f"{lay.work}/scalograms: {n_files} CSVs")
    expected_scales = np.exp(np.linspace(math.log(SCALE_MIN), math.log(SCALE_MAX), N_SCALES))
    for sid, joint, side in quadrature_sample(lay):
        path = scalogram_path(lay, sid, joint, side)
        meta, scales, pct, values = read_scalogram(path)
        label, parts = data[sid]
        require(meta == {"subject": sid, "label": label, "joint": joint, "side": side},
                f"{path}: provenance {meta}")
        require(np.allclose(scales, expected_scales, rtol=1e-12, atol=0), f"{path}: scales {scales}")
        require(np.array_equal(pct, np.arange(101.0)), f"{path}: pct axis")
        angles = np.array([a for _, a in parts[(joint, side)]])
        ref = quadrature_cwt(angles, 1.0, scales)
        err = np.max(np.abs(values - ref))
        require(err <= 1e-9 * max(1.0, float(np.max(ref))), f"{path}: max |CWT - quadrature| = {err:g}")


def check_features(lay: Layout) -> None:
    """Each feature row is the HighScale cells (8 largest scales) at
    0, 5, .., 95 % of its scalograms, time-major, parts in canonical order."""
    data = lay.data
    rows = read_features(lay.work / "features.csv")
    require([r[0] for r in rows] == sorted(data), f"{lay.work}/features.csv: subjects or order differ")
    token = "|".join(f"{j}:{s}" for j, s in lay.parts)
    for sid, label, level, parts, values in rows:
        where = f"{lay.work}/features.csv: {sid}"
        require(label == data[sid][0] and level == "HighScale" and parts == token,
                f"{where}: label/level/parts {label},{level},{parts}")
        expected = []
        for joint, side in lay.parts:
            _, _, pct, sc = read_scalogram(scalogram_path(lay, sid, joint, side))
            cols = [int(np.flatnonzero(pct == p)[0]) for p in FEATURE_PCTS]
            expected.append(sc[np.ix_(list(HIGH_SCALE_ROWS), cols)].T.reshape(-1))
        require(np.array_equal(values, np.concatenate(expected)), f"{where}: values differ from its scalogram cells")


def check_umatrix(lay: Layout) -> None:
    """umatrix.csv holds each node's mean distance to its 4-neighbours in
    som.json, and its threshold is their 60th percentile."""
    rows, cols, w, doc = read_som(lay.work / "som.json")
    require(doc["trained"] and rows * cols == len(w), f"{lay.work}/som.json: not a trained {rows}x{cols} map")
    threshold, heights = read_umatrix(lay.work / "umatrix.csv")
    ref = np.empty((rows, cols))
    for r in range(rows):
        for c in range(cols):
            near = [(r + dr, c + dc) for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
                    if 0 <= r + dr < rows and 0 <= c + dc < cols]
            ref[r, c] = sum(math.dist(w[r * cols + c], w[nr * cols + nc]) for nr, nc in near) / len(near)
    require(heights.shape == ref.shape and np.allclose(heights, ref, rtol=1e-12, atol=1e-12),
            f"{lay.work}/umatrix.csv: heights differ from som.json")
    require(math.isclose(threshold, linear_quantile(ref, UMATRIX_QUANTILE), rel_tol=1e-12),
            f"{lay.work}/umatrix.csv: threshold {threshold} is not the 60th percentile")


def check_clusters(lay: Layout) -> None:
    """clusters.csv is the union-find partition of the cells below the
    U-Matrix threshold; every other cell is border (-1)."""
    threshold, heights = read_umatrix(lay.work / "umatrix.csv")
    ids = read_clusters(lay.work / "clusters.csv", *heights.shape)
    require(same_partition(ids, union_find_labels(heights < threshold)),
            f"{lay.work}/clusters.csv: not the partition of cells below {threshold}")


def check_weight_range(lay: Layout) -> None:
    """With SampleInit and the convex update every trained weight lies in
    the per-dimension range of the training vectors."""
    _, _, w, doc = read_som(lay.work / "som.json")
    require(doc["schedule"]["init"] == "SampleInit", f"{lay.work}/som.json: init is not SampleInit")
    x = np.stack([r[4] for r in read_features(lay.work / "features.csv")])
    lo, hi = x.min(axis=0), x.max(axis=0)
    slack = 1e-12 * np.maximum(1.0, np.abs(x).max(axis=0))
    bad = np.argwhere((w < lo - slack) | (w > hi + slack))
    require(len(bad) == 0, f"{lay.work}/som.json: weight (node, dim) {bad[:1].tolist()} outside the data range")


def _eval(lay: Layout) -> dict:
    return json.loads((lay.work / "eval.json").read_text(encoding="utf-8"))


def check_eval_arithmetic(lay: Layout) -> None:
    """Confusion matrix, recognition rate and kappa follow from the folds."""
    doc = _eval(lay)
    index = {c: i for i, c in enumerate(doc["classes"])}
    m = np.zeros((len(index), len(index)), dtype=int)
    for f in doc["folds"]:
        m[index[f["true"]], index[f["predicted"]]] += 1
    path = lay.work / "eval.json"
    require(m.tolist() == doc["confusion"], f"{path}: confusion {doc['confusion']} != folds {m.tolist()}")
    rate = sum(f["true"] == f["predicted"] for f in doc["folds"]) / len(doc["folds"])
    require(math.isclose(doc["recognition_rate"], rate, rel_tol=1e-12), f"{path}: rate {doc['recognition_rate']} != {rate}")
    require(math.isclose(doc["kappa"], kappa(m), rel_tol=1e-12, abs_tol=1e-12), f"{path}: kappa {doc['kappa']} != {kappa(m)}")


def check_held_out_once(lay: Layout) -> None:
    """Every subject is held out exactly once, under its own label."""
    data = lay.data
    folds = _eval(lay)["folds"]
    counts = Counter(f["held_out"] for f in folds)
    wrong = sorted(sid for sid in set(counts) | set(data) if counts[sid] != 1)
    require(not wrong, f"{lay.work}/eval.json: held out other than once: {wrong}")
    for f in folds:
        require(f["true"] == data[f["held_out"]][0], f"{lay.work}/eval.json: {f['held_out']} true label {f['true']}")


def check_discrimination(lay: Layout) -> None:
    """Normal vs spastic separates: rate >= 0.90 and kappa >= 0.80."""
    doc = _eval(lay)
    require(doc["recognition_rate"] >= 0.90 and doc["kappa"] >= 0.80,
            f"{lay.work}/eval.json: rate {doc['recognition_rate']}, kappa {doc['kappa']}")


def checks_for(lay: Layout):
    out = [check_dataset, check_scalograms, check_features, check_umatrix, check_clusters, check_weight_range]
    if lay.has_eval:
        out += [check_eval_arithmetic, check_held_out_once, check_discrimination]
    return out


def run_checks(lay: Layout) -> list[str]:
    """Run every check of the layout; return the failure messages."""
    failures = []
    for check in checks_for(lay):
        try:
            check(lay)
        except (CheckError, OSError, KeyError, ValueError, IndexError) as exc:
            failures.append(f"{check.__name__}: {exc}")
    return failures


if __name__ == "__main__":
    failures = run_checks(Layout.from_dict(json.loads(sys.argv[1])))
    for failure in failures:
        print(failure)
    sys.exit(1 if failures else 0)
