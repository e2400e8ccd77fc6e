"""Scalogram regions and fixed-length feature vectors.

A scalogram splits into four regions: columns at the stance/swing boundary
(60% of the cycle by clinical convention) and rows at the scale midpoint:

    (1) stance, low scale    (2) swing, low scale
    (3) swing, high scale    (4) stance, high scale

Feature vectors sample one scale *level* instead of one region: 20 time
samples (every 5% of the cycle, 0..95%) by 8 scale samples out of the
12-scale grid. The two levels overlap in the middle four scales - the only
reading on which each level can contribute 8 of 12 scales - with LowScale
taking the 8 smallest and HighScale the 8 largest. Values are raw
magnitudes, flattened time-major; per-joint vectors concatenate in the
canonical (joint, side) order.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .data import (
    STANCE_END_PCT, ClassLabel, Joint, Side, csv_fields, needs_quote_all, part_sort_key, undecodable_as,
)
from .wavelet import Scalogram

N_TIME_SAMPLES = 20
N_SCALE_SAMPLES = 8
SINGLE_JOINT_LENGTH = N_TIME_SAMPLES * N_SCALE_SAMPLES  # 160
DEFAULT_STANCE_FRACTION = STANCE_END_PCT / 100.0


class Level(Enum):
    HIGH_SCALE = "HighScale"
    LOW_SCALE = "LowScale"


@dataclass(frozen=True, eq=False)
class Regions:
    """The four sub-matrices, named and numbered as in the split diagram."""

    stance_low: np.ndarray   # region 1
    swing_low: np.ndarray    # region 2
    swing_high: np.ndarray   # region 3
    stance_high: np.ndarray  # region 4
    col_split: int           # last stance column index (inclusive)
    row_split: int           # first high-scale row index


def split_regions(sc: Scalogram, stance_fraction: float = DEFAULT_STANCE_FRACTION) -> Regions:
    """Partition the scalogram into the four regions (exact tiling), with
    stance ending at stance_fraction of the cycle."""
    if not 0.0 < stance_fraction < 1.0:
        raise ValueError(f"stance_fraction must be in (0, 1), got {stance_fraction}")
    target = stance_fraction * 100.0
    # column nearest the stance boundary; ties resolve to the lower index
    col = int(np.argmin(np.abs(sc.time_axis - target)))
    row = len(sc.scale_axis) // 2
    v = sc.values
    return Regions(
        stance_low=v[:row, : col + 1],
        swing_low=v[:row, col + 1 :],
        swing_high=v[row:, col + 1 :],
        stance_high=v[row:, : col + 1],
        col_split=col,
        row_split=row,
    )


def level_scale_indices(n_scales: int, level: Level) -> np.ndarray:
    """Scale-row indices of one level: the N_SCALE_SAMPLES smallest scales
    for LowScale, the N_SCALE_SAMPLES largest for HighScale."""
    if n_scales < N_SCALE_SAMPLES:
        raise ValueError(f"need at least {N_SCALE_SAMPLES} scales, got {n_scales}")
    if level is Level.LOW_SCALE:
        return np.arange(0, N_SCALE_SAMPLES)
    return np.arange(n_scales - N_SCALE_SAMPLES, n_scales)


def _time_sample_columns(time_axis: np.ndarray) -> np.ndarray:
    targets = np.arange(N_TIME_SAMPLES) * 5.0  # 0, 5, .., 95
    hits = np.abs(time_axis[:, None] - targets) < 1e-9  # (columns, targets)
    missing = np.flatnonzero(hits.sum(axis=0) != 1)
    if len(missing):
        raise ValueError(
            f"time axis lacks the {targets[missing[0]]}% column needed for 5% feature sampling"
        )
    return hits.argmax(axis=0)


def extract_features(sc: Scalogram, level: Level = Level.HIGH_SCALE) -> np.ndarray:
    """Sample one scale level of a canonical-grid scalogram into the 160
    values of its part: 20 time x 8 scale samples, time-major."""
    cols = _time_sample_columns(sc.time_axis)
    rows = level_scale_indices(len(sc.scale_axis), level)
    return sc.values[np.ix_(rows, cols)].T.reshape(-1)  # (20 times, 8 scales), flattened


def _parts_token(parts: Sequence[tuple[Joint, Side]]) -> str:
    return "|".join(f"{j.value}:{s.value}" for j, s in parts)


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """One feature vector per subject, the set a SOM is trained on. Row i
    holds subject_ids[i]'s values: per part 20 time x 8 scale samples in
    time-major order (t1s1..t1s8, t2s1, ...), parts concatenated in
    canonical order. Values may go negative (a z-scored matrix), but
    features.csv holds only values >= 0."""

    values: np.ndarray  # (subjects, 160 x parts), read-only
    subject_ids: tuple[str, ...]
    labels: tuple[ClassLabel | None, ...]
    level: Level
    parts: tuple[tuple[Joint, Side], ...]

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or len(values) == 0:
            raise ValueError(f"a feature matrix needs a 2-d array of at least one row, got {values.shape}")
        parts = tuple(map(tuple, self.parts))
        if not parts:
            raise ValueError("a feature matrix needs at least one part")
        keys = [part_sort_key(*p) for p in parts]
        if len(set(keys)) != len(keys):
            raise ValueError(f"parts {_parts_token(parts)!r} hold a duplicate")
        if keys != sorted(keys):
            raise ValueError(f"parts {_parts_token(parts)!r} are not in canonical order")
        width = SINGLE_JOINT_LENGTH * len(parts)
        if values.shape[1] != width:
            raise ValueError(f"rows must have length {width} (160 x {len(parts)} parts), got {values.shape[1]}")
        ids, labels = tuple(self.subject_ids), tuple(self.labels)
        if len(ids) != len(values) or len(labels) != len(values):
            raise ValueError(
                f"{len(values)} rows need {len(values)} subject ids and labels, got {len(ids)} and {len(labels)}"
            )
        repeated = [sid for sid, count in Counter(ids).items() if count > 1]
        if repeated:
            raise ValueError(f"subject_id {repeated[0]!r} repeats")
        if not np.isfinite(values).all():
            raise ValueError("feature values must be finite")
        values.setflags(write=False)
        for name, value in (("values", values), ("subject_ids", ids), ("labels", labels), ("parts", parts)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_parts(
        cls, rows: Iterable[tuple[str, ClassLabel | None, tuple[Joint, Side], np.ndarray]], level: Level
    ) -> FeatureMatrix:
        """The matrix of single-part rows (subject_id, label, (joint, side),
        160 values) given in any order: one row per subject in id order, its
        parts in canonical order. Every subject must have the parts of the
        first and one label."""
        subjects: dict[str, list] = {}
        for sid, label, part, values in sorted(rows, key=lambda r: (r[0], part_sort_key(*r[2]))):
            subjects.setdefault(sid, []).append((label, part, values))
        first = None
        for sid, own in subjects.items():
            token = _parts_token([part for _, part, _ in own])
            first = first or token
            if token != first:
                raise ValueError(f"subject {sid!r}: parts {token!r} differs from the first row's {first!r}")
            if len({label for label, _, _ in own}) > 1:
                raise ValueError(f"subject {sid!r}: mixed labels across parts")
        return cls(
            values=[np.concatenate([v for _, _, v in own]) for own in subjects.values()],
            subject_ids=tuple(subjects),
            labels=tuple(own[0][0] for own in subjects.values()),
            level=level,
            parts=tuple(part for _, part, _ in next(iter(subjects.values()), [])),
        )


def zscore(values: np.ndarray) -> np.ndarray:
    """Standardize one vector to zero mean, unit spread (constant vectors
    just get centered)."""
    values = np.asarray(values, dtype=float)
    centered = values - values.mean()
    sd = values.std()
    return centered / sd if sd > 0 else centered


def standardize(matrix: FeatureMatrix) -> FeatureMatrix:
    """Optional per-row z-scoring ahead of SOM training (off by default
    in run configs; the canonical pipeline feeds raw magnitudes)."""
    return replace(matrix, values=[zscore(row) for row in matrix.values])


# --- feature matrix CSV -----------------------------------------------------


def _parse_parts_token(token: str) -> tuple[tuple[Joint, Side], ...]:
    out = []
    for item in token.split("|"):
        jname, _, sname = item.partition(":")
        out.append((Joint(jname), Side(sname)))
    return tuple(out)


TEXT_COLUMNS = ("subject_id", "label", "level", "parts")


def write_features_csv(matrix: FeatureMatrix, path) -> None:
    """Write the feature matrix as the csv module writes it, one row at a
    time, so any subject id and label text reads back unchanged; ids
    without a comma, quote or line break give plain comma-joined rows.
    A negative value, as a z-scored matrix holds, is refused before path
    opens."""
    negative = np.argwhere(matrix.values < 0)
    if len(negative):
        i, j = negative[0]
        raise ValueError(
            f"subject {matrix.subject_ids[i]!r}: f{j:03d} {matrix.values[i, j].item()!r}: "
            "feature values must be >= 0"
        )
    texts = [matrix.level.value, _parts_token(matrix.parts)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(
            f"# layout: n_time={N_TIME_SAMPLES} n_scale={N_SCALE_SAMPLES} "
            "per part, time-major, parts concatenated in canonical order\n"
        )
        fh.write(",".join([*TEXT_COLUMNS, *(f"f{i:03d}" for i in range(matrix.values.shape[1]))]) + "\n")
        for sid, label, values in zip(matrix.subject_ids, matrix.labels, matrix.values):
            row = [sid, str(label or ""), *texts]
            # one row's list at a time: a list of the whole matrix costs 32 bytes a value
            cells = map(float.__repr__, values.tolist())
            if needs_quote_all(*row):
                cells = map('"{}"'.format, cells)
            fh.write(",".join([csv_fields(row), *cells]) + "\n")


def _check_like_first(row: list[str], first: list[str]) -> None:
    """Refuse a features.csv row whose level or parts differ from the first
    row's (texts equal exactly when the values do)."""
    for name in ("level", "parts"):
        col = TEXT_COLUMNS.index(name)
        if row[col] != first[col]:
            raise ValueError(f"{name} {row[col]!r} differs from the first row's {first[col]!r}")


def _feature_row(row: list[str]) -> tuple:
    """One features.csv row as (subject_id, label, level, parts, values); a
    ValueError names the column."""
    if len(row) < len(TEXT_COLUMNS):
        raise ValueError(f"row has {len(row)} fields, needs {', '.join(TEXT_COLUMNS)} and the values")
    sid, label_text, level_text, parts_token = row[: len(TEXT_COLUMNS)]
    texts = row[len(TEXT_COLUMNS) :]
    try:
        values = np.array(list(map(float, texts)))
    except ValueError:
        for i, text in enumerate(texts):
            try:
                float(text)
            except ValueError:
                raise ValueError(f"f{i:03d} {text!r} is not a number") from None
    try:
        parts = _parse_parts_token(parts_token)
    except ValueError:
        raise ValueError(f"parts {parts_token!r} is not a |-list of Joint:Side") from None
    try:
        level = Level(level_text)
    except ValueError:
        raise ValueError(f"level {level_text!r} is not one of {[l.value for l in Level]}") from None
    expected = SINGLE_JOINT_LENGTH * len(parts)
    if len(values) != expected:
        raise ValueError(
            f"parts {parts_token!r}: feature vector must have length {expected} "
            f"(160 x {len(parts)} parts), got {len(values)}"
        )
    bad = ~np.isfinite(values) | (values < 0)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"f{i:03d} {texts[i]!r}: feature values must be finite and >= 0")
    return sid, ClassLabel(label_text) if label_text else None, level, parts, values


def read_features_csv(path) -> FeatureMatrix:
    """Read a feature matrix of one row per subject, of one level and one parts
    list; an error names the file, the line on which the row ends and the column."""
    rows, first, lines = [], None, {}
    with open(path, "r", encoding="utf-8", newline="") as fh, undecodable_as(ValueError, path):
        reader = csv.reader(fh)
        for row in reader:  # the layout comment precedes the header
            if row and row[0] == "subject_id":
                break
        for row in reader:
            if not row:
                continue
            try:
                rows.append(_feature_row(row))
                first = first or row
                _check_like_first(row, first)
                if lines.setdefault(row[0], reader.line_num) != reader.line_num:
                    raise ValueError(f"subject_id {row[0]!r} repeats line {lines[row[0]]}")
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no feature rows")
    ids, labels, levels, parts, values = zip(*rows)
    try:
        return FeatureMatrix(values=values, subject_ids=ids, labels=labels, level=levels[0], parts=parts[0])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
