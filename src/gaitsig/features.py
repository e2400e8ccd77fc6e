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
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Flattened scalogram samples: per joint-side part, 20 time x 8 scale
    values in time-major order (t1s1..t1s8, t2s1, ...); parts concatenated
    in canonical order."""

    values: np.ndarray
    subject_id: str
    parts: tuple[tuple[Joint, Side], ...]
    level: Level
    label: ClassLabel | None = None

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float)
        expected = SINGLE_JOINT_LENGTH * len(self.parts)
        if arr.ndim != 1 or len(arr) != expected:
            raise ValueError(
                f"feature vector must have length {expected} "
                f"(160 x {len(self.parts)} parts), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("feature values must be finite and >= 0")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "parts", tuple(tuple(p) for p in self.parts))


def _time_sample_columns(time_axis: np.ndarray) -> np.ndarray:
    targets = np.arange(N_TIME_SAMPLES) * 5.0  # 0, 5, .., 95
    hits = np.abs(time_axis[:, None] - targets) < 1e-9  # (columns, targets)
    missing = np.flatnonzero(hits.sum(axis=0) != 1)
    if len(missing):
        raise ValueError(
            f"time axis lacks the {targets[missing[0]]}% column needed for 5% feature sampling"
        )
    return hits.argmax(axis=0)


def extract_features(sc: Scalogram, level: Level = Level.HIGH_SCALE) -> FeatureVector:
    """Sample one scale level of a canonical-grid scalogram into a 160-long
    single-joint feature vector."""
    cols = _time_sample_columns(sc.time_axis)
    rows = level_scale_indices(len(sc.scale_axis), level)
    block = sc.values[np.ix_(rows, cols)]  # (8 scales, 20 times)
    return FeatureVector(
        values=block.T.reshape(-1),  # time-major
        subject_id=sc.subject_id,
        parts=((sc.joint, sc.side),),
        level=level,
        label=sc.label,
    )


def combine_joints(parts: Sequence[FeatureVector]) -> FeatureVector:
    """Concatenate single-joint vectors of one subject in canonical order
    (joint-major, right before left), regardless of input order."""
    if not parts:
        raise ValueError("no parts to combine")
    first = parts[0]
    for p in parts:
        if len(p.parts) != 1:
            raise ValueError("combine_joints takes single-joint parts")
        if p.subject_id != first.subject_id:
            raise ValueError(
                f"mixed subjects: {p.subject_id!r} vs {first.subject_id!r}"
            )
        if p.level is not first.level:
            raise ValueError(f"mixed levels: {p.level} vs {first.level}")
        if p.label != first.label:
            raise ValueError("mixed labels across parts")
    ordered = sorted(parts, key=lambda p: part_sort_key(*p.parts[0]))
    seen = [p.parts[0] for p in ordered]
    if len(set(seen)) != len(seen):
        raise ValueError(f"duplicate parts: {seen}")
    return FeatureVector(
        values=np.concatenate([p.values for p in ordered]),
        subject_id=first.subject_id,
        parts=tuple(seen),
        level=first.level,
        label=first.label,
    )


@dataclass(frozen=True, eq=False)
class StandardizedVector:
    """Per-vector z-scored copy of a FeatureVector. Standardized values go
    negative, so they live outside the FeatureVector invariant; this
    carrier keeps the provenance the classifier needs."""

    values: np.ndarray
    subject_id: str
    label: ClassLabel | None


def zscore(values: np.ndarray) -> np.ndarray:
    """Standardize one vector to zero mean, unit spread (constant vectors
    just get centered)."""
    values = np.asarray(values, dtype=float)
    centered = values - values.mean()
    sd = values.std()
    return centered / sd if sd > 0 else centered


def standardize(vectors: Sequence[FeatureVector]) -> list[StandardizedVector]:
    """Optional per-vector z-scoring ahead of SOM training (off by default
    in run configs; the canonical pipeline feeds raw magnitudes)."""
    return [
        StandardizedVector(values=zscore(v.values), subject_id=v.subject_id, label=v.label)
        for v in vectors
    ]


# --- feature matrix CSV -----------------------------------------------------


def _parts_token(parts: Sequence[tuple[Joint, Side]]) -> str:
    return "|".join(f"{j.value}:{s.value}" for j, s in parts)


def _parse_parts_token(token: str) -> tuple[tuple[Joint, Side], ...]:
    out = []
    for item in token.split("|"):
        jname, _, sname = item.partition(":")
        out.append((Joint(jname), Side(sname)))
    return tuple(out)


TEXT_COLUMNS = ("subject_id", "label", "level", "parts")


def write_features_csv(vectors: Sequence[FeatureVector], path) -> None:
    """Write the feature matrix as the csv module writes it, one row at a
    time, so any subject id and label text reads back unchanged; ids
    without a comma, quote or line break give plain comma-joined rows.
    Mixed levels or parts and repeated ids are refused before path opens."""
    if not vectors:
        raise ValueError("no feature vectors to write")
    rows = [[v.subject_id, str(v.label or ""), v.level.value, _parts_token(v.parts)] for v in vectors]
    seen = set()
    for row in rows:
        _check_like_first(row, rows[0], f"subject {row[0]!r}: ")
        if row[0] in seen:
            raise ValueError(f"subject_id {row[0]!r} repeats")
        seen.add(row[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(
            f"# layout: n_time={N_TIME_SAMPLES} n_scale={N_SCALE_SAMPLES} "
            "per part, time-major, parts concatenated in canonical order\n"
        )
        fh.write(",".join([*TEXT_COLUMNS, *(f"f{i:03d}" for i in range(len(vectors[0].values)))]) + "\n")
        for v, row in zip(vectors, rows):
            cells = map(float.__repr__, v.values.tolist())
            if needs_quote_all(*row):
                cells = map('"{}"'.format, cells)
            fh.write(",".join([csv_fields(row), *cells]) + "\n")


def _check_like_first(row: list[str], first: list[str], where: str = "") -> None:
    """Refuse a features.csv row, naming it by where, whose level or parts
    differ from the first row's (texts equal exactly when the values do)."""
    for name in ("level", "parts"):
        col = TEXT_COLUMNS.index(name)
        if row[col] != first[col]:
            raise ValueError(f"{where}{name} {row[col]!r} differs from the first row's {first[col]!r}")


def _feature_row(row: list[str]) -> FeatureVector:
    """One features.csv row as a vector; a ValueError names the column."""
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
    return FeatureVector(
        values=values,
        subject_id=sid,
        parts=parts,
        level=level,
        label=ClassLabel(label_text) if label_text else None,
    )


def read_features_csv(path) -> list[FeatureVector]:
    """Read a feature matrix of one row per subject, of one level and one parts
    list; an error names the file, the line on which the row ends and the column."""
    vectors, first, lines = [], None, {}
    with open(path, "r", encoding="utf-8", newline="") as fh, undecodable_as(ValueError, path):
        rows = csv.reader(fh)
        for row in rows:  # the layout comment precedes the header
            if row and row[0] == "subject_id":
                break
        for row in rows:
            if not row:
                continue
            try:
                vectors.append(_feature_row(row))
                first = first or row
                _check_like_first(row, first)
                if lines.setdefault(row[0], rows.line_num) != rows.line_num:
                    raise ValueError(f"subject_id {row[0]!r} repeats line {lines[row[0]]}")
            except ValueError as exc:
                raise ValueError(f"{path}:{rows.line_num}: {exc}") from None
    if not vectors:
        raise ValueError(f"{path}: no feature rows")
    return vectors
