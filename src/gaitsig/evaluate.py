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

import json
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .data import ClassLabel, csv_fields, needs_quote_all
from .features import FeatureVector
from .pool import fork_map
from .som import SomMap, TrainSchedule, best_match, init, train


def label_nodes(som: SomMap, training: Sequence[FeatureVector]) -> tuple[ClassLabel, ...]:
    """Node labels: the majority label of the training vectors each node
    best matches, and for a node that matches none, the label of the
    nearest labeled node."""
    if not som.trained:
        raise RuntimeError("cannot label an untrained map")
    if not training:
        raise ValueError("training set must be non-empty")
    if any(fv.label is None for fv in training):
        raise ValueError("training vectors must be labeled")

    classes = sorted({fv.label for fv in training})
    column = {label: j for j, label in enumerate(classes)}
    hits = np.zeros((som.n_nodes, len(classes)), dtype=int)  # node x class vote
    for fv in training:
        hits[best_match(som, fv.values), column[fv.label]] += 1
    # argmin and argmax take the first extreme: a tied vote goes to the
    # lowest class, and an unhit node to the nearest hit node of lowest
    # index; a hit node is its own nearest, at grid distance 0
    hit = np.flatnonzero(hits.any(axis=1))
    owner = hit[som.grid_dist2()[:, hit].argmin(axis=1)]
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


def _fold(
    data: Sequence[FeatureVector], schedule: TrainSchedule, rows: int, cols: int, i: int
) -> ClassLabel:
    """Fold i of leave-one-out: train on every vector but data[i], seeded
    with schedule.rng_seed + i, and predict data[i] from the node labels."""
    training = [fv for j, fv in enumerate(data) if j != i]
    x_train = np.stack([fv.values for fv in training])
    fold_schedule = replace(schedule, rng_seed=schedule.rng_seed + i)
    som = init(rows, cols, fold_schedule, x_train)
    som = train(som, x_train)
    return label_nodes(som, training)[best_match(som, data[i].values)]


def loocv(
    data: Sequence[FeatureVector], schedule: TrainSchedule, rows: int, cols: int
) -> EvalReport:
    """Leave-one-out validation: N train/label/classify rounds on
    rows x cols maps, fold i seeded with schedule.rng_seed + i."""
    n = len(data)
    if n < 2:
        raise ValueError("leave-one-out needs at least 2 samples")
    if any(fv.label is None for fv in data):
        raise ValueError("all vectors must be labeled")
    repeated = [sid for sid, count in Counter(fv.subject_id for fv in data).items() if count > 1]
    if repeated:
        raise ValueError(f"subject_id {repeated[0]!r} repeats; leave-one-out holds out each subject once")
    classes = tuple(sorted({fv.label for fv in data}))
    if len(classes) < 2:
        raise ValueError("kappa undefined for single-class data")
    index = {lab: i for i, lab in enumerate(classes)}

    # map keeps fold order, so the report is assembled as in a serial loop
    predictions = fork_map(partial(_fold, data, schedule, rows, cols), range(n))

    confusion = np.zeros((len(classes), len(classes)), dtype=int)
    outcomes = np.zeros(n)
    folds = []
    for i, (held_out, predicted) in enumerate(zip(data, predictions)):
        confusion[index[held_out.label], index[predicted]] += 1
        outcomes[i] = 1.0 if predicted == held_out.label else 0.0
        folds.append(FoldRecord(held_out=held_out.subject_id, true=held_out.label, predicted=predicted))

    return EvalReport(
        classes=classes,
        confusion=confusion,
        recognition_rate=float(outcomes.mean()),
        rate_dispersion=float(outcomes.std()),
        kappa=kappa(confusion),
        folds=tuple(folds),
    )


# --- report output ----------------------------------------------------------


def report_to_dict(report: EvalReport) -> dict:
    return {
        "classes": [c.value for c in report.classes],
        "confusion": [[int(v) for v in row] for row in report.confusion],
        "recognition_rate": report.recognition_rate,
        "rate_dispersion": report.rate_dispersion,
        "kappa": report.kappa,
        "folds": [
            {"held_out": f.held_out, "true": f.true.value, "predicted": f.predicted.value}
            for f in report.folds
        ],
    }


def write_report_json(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


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
        fh.write(csv_fields(["true\\predicted", *names], needs_quote_all(*names)) + "\n")
        for name, row in zip(names, report.confusion):
            fh.write(csv_fields([name, *(str(int(v)) for v in row)], needs_quote_all(name)) + "\n")
