"""Map labeling, classification, leave-one-out validation and Cohen's kappa.

A trained map is labeled from training vectors: each node takes the
majority label of the vectors whose best match it is (ties to the lowest
class in canonical order), and nodes nobody hit inherit the label of the
nearest labeled node in grid distance. Classification of a new vector is
the label of its best-matching node.

Leave-one-out validation repeats train/label/classify N times, holding out
one vector per fold with a fold-derived RNG seed (base + fold index), and
aggregates held-out predictions into a confusion matrix, the recognition
rate, its dispersion across folds, and kappa = (p_o - p_e)/(1 - p_e). The
folds run in forked worker processes, one per usable CPU; each fold's
arithmetic is that of a serial run, so the report is the same.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .data import ClassLabel, csv_fields
from .features import FeatureMatrix
from .pool import fork_map
from .som import SomMap, TrainSchedule, best_match, init, train


def label_nodes(som: SomMap, x: np.ndarray, labels: Sequence[ClassLabel]) -> tuple[ClassLabel, ...]:
    """Node labels: the majority label of the training rows x each node
    best matches, and for a node that matches none, the label of the
    nearest labeled node."""
    if not som.trained:
        raise RuntimeError("cannot label an untrained map")
    if len(x) == 0:
        raise ValueError("training set must be non-empty")
    if any(label is None for label in labels):
        raise ValueError("training vectors must be labeled")

    classes = sorted(set(labels))
    column = {label: j for j, label in enumerate(classes)}
    hits = np.zeros((som.n_nodes, len(classes)), dtype=int)  # node x class vote
    for row, label in zip(x, labels, strict=True):
        hits[best_match(som, row), column[label]] += 1
    # argmin and argmax take the first extreme: a tied vote goes to the
    # lowest class, and an unhit node to the nearest hit node of lowest
    # index; a hit node is its own nearest, at grid distance 0
    hit = np.flatnonzero(hits.any(axis=1))
    g = som.grid_coords()
    owner = hit[np.square(g[:, None, :] - g[hit]).sum(axis=2).argmin(axis=1)]
    return tuple(np.array(classes, dtype=object)[hits[owner].argmax(axis=1)])


def kappa(confusion: np.ndarray) -> float:
    """Cohen's kappa of a class x class count matrix."""
    m = np.asarray(confusion, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("confusion matrix must be square")
    if np.any(m < 0):
        raise ValueError("confusion counts must be >= 0")
    total = m.sum()
    if total <= 0:
        raise ValueError("confusion matrix must have positive total count")
    p_o = np.trace(m) / total
    p_e = float((m.sum(axis=1) / total) @ (m.sum(axis=0) / total))
    if p_e >= 1.0:
        raise ValueError("kappa undefined: expected agreement p_e = 1")
    return float((p_o - p_e) / (1.0 - p_e))


@dataclass(frozen=True)
class FoldRecord:
    held_out: str
    true: ClassLabel
    predicted: ClassLabel


@dataclass(frozen=True, eq=False)
class EvalReport:
    classes: tuple[ClassLabel, ...]
    confusion: np.ndarray  # rows = true class, cols = predicted
    recognition_rate: float
    rate_dispersion: float
    kappa: float
    folds: tuple[FoldRecord, ...]

    def __post_init__(self) -> None:
        m = np.array(self.confusion, dtype=int)
        if m.shape != (len(self.classes), len(self.classes)) or np.any(m < 0):
            raise ValueError("confusion matrix inconsistent with classes")
        m.setflags(write=False)
        object.__setattr__(self, "confusion", m)
        if not 0.0 <= self.recognition_rate <= 1.0:
            raise ValueError("recognition_rate must be in [0, 1]")
        if not -1.0 <= self.kappa <= 1.0:
            raise ValueError("kappa must be in [-1, 1]")


def _fold(matrix: FeatureMatrix, schedule: TrainSchedule, rows: int, cols: int, i: int) -> ClassLabel:
    """Fold i of leave-one-out: train on every row of the matrix but row i,
    seeded with schedule.rng_seed + i, and predict row i from the node
    labels."""
    x_train = np.delete(matrix.values, i, 0)
    fold_schedule = replace(schedule, rng_seed=schedule.rng_seed + i)
    som = init(rows, cols, fold_schedule, x_train)
    som = train(som, x_train)
    node_labels = label_nodes(som, x_train, matrix.labels[:i] + matrix.labels[i + 1 :])
    return node_labels[best_match(som, matrix.values[i])]


def loocv(matrix: FeatureMatrix, schedule: TrainSchedule, rows: int, cols: int) -> EvalReport:
    """Leave-one-out validation: one train/label/classify round per
    subject on rows x cols maps, fold i seeded with schedule.rng_seed + i."""
    n = len(matrix.subject_ids)
    if n < 2:
        raise ValueError("leave-one-out needs at least 2 samples")
    if any(label is None for label in matrix.labels):
        raise ValueError("all vectors must be labeled")
    classes = tuple(sorted(set(matrix.labels)))
    if len(classes) < 2:
        raise ValueError("kappa undefined for single-class data")
    index = {lab: i for i, lab in enumerate(classes)}

    # map keeps fold order, so the report is assembled as in a serial loop
    predictions = fork_map(partial(_fold, matrix, schedule, rows, cols), range(n))

    confusion = np.zeros((len(classes), len(classes)), dtype=int)
    outcomes = np.zeros(n)
    folds = []
    for i, (held_out, true, predicted) in enumerate(zip(matrix.subject_ids, matrix.labels, predictions)):
        confusion[index[true], index[predicted]] += 1
        outcomes[i] = 1.0 if predicted == true else 0.0
        folds.append(FoldRecord(held_out=held_out, true=true, predicted=predicted))

    return EvalReport(
        classes=classes,
        confusion=confusion,
        recognition_rate=float(outcomes.mean()),
        rate_dispersion=float(outcomes.std()),
        kappa=kappa(confusion),
        folds=tuple(folds),
    )


# --- report output ----------------------------------------------------------


def format_report_table(report: EvalReport) -> str:
    names = [c.value for c in report.classes]
    width = max(8, *(len(n) for n in names)) + 2
    lines = [
        f"recognition rate: {report.recognition_rate:.4f} "
        f"(dispersion {report.rate_dispersion:.4f})",
        f"kappa: {report.kappa:.4f}",
        "confusion (rows = true, cols = predicted):",
        " " * width + "".join(n.rjust(width) for n in names),
    ]
    for name, row in zip(names, report.confusion):
        lines.append(name.rjust(width) + "".join(str(int(v)).rjust(width) for v in row))
    return "\n".join(lines) + "\n"


def write_report_table(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_report_table(report))


def write_confusion_csv(report: EvalReport, path) -> None:
    """The confusion matrix as CSV, labels quoted where needed, so that any
    label text reads back."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        names = [c.value for c in report.classes]
        fh.write(csv_fields(["true\\predicted", *names]) + "\n")
        for name, row in zip(names, report.confusion):
            fh.write(csv_fields([name, *(str(int(v)) for v in row)]) + "\n")
