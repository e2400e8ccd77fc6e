"""Joint-angle trajectory containers, the dataset CSV and the JSON writer.

Trajectories are sagittal joint angles (degrees) sampled on a uniform grid
of gait-cycle percentage, 0..100% inclusive. The canonical grid has 101
points (one sample per 1%); files on any other uniform grid are linearly
resampled onto it at ingest time. The dataset CSV is the one input format:
ingest_csv reads it and write_csv writes it. json_form, json_text and
write_json write every JSON artifact; config.read_json reads run configs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from functools import total_ordering
from typing import Mapping, Sequence

import numpy as np

CANONICAL_GRID_SIZE = 101
STANCE_END_PCT = 60.0  # of the cycle: the stance/swing boundary, by clinical convention
MIN_GRID_SIZE = 21
MAX_ABS_ANGLE_DEG = 180.0

CSV_COLUMNS = ("subject_id", "label", "joint", "side", "pct", "angle_deg")


class ParseError(ValueError):
    """A row or value could not be parsed; message names the offending row."""


class SchemaError(ValueError):
    """The file parsed but violates the dataset schema."""


class Joint(Enum):
    HIP = "Hip"
    KNEE = "Knee"
    ANKLE = "Ankle"


class Side(Enum):
    # Declared order (Right before Left) is the canonical concatenation
    # order for combined right+left feature vectors.
    RIGHT = "Right"
    LEFT = "Left"


_JOINT_ORDER = {j: i for i, j in enumerate(Joint)}
_SIDE_ORDER = {s: i for i, s in enumerate(Side)}


def part_sort_key(joint: Joint, side: Side) -> tuple[int, int]:
    """Canonical (joint, side) ordering: Hip<Knee<Ankle, Right<Left."""
    return (_JOINT_ORDER[joint], _SIDE_ORDER[side])


@total_ordering
@dataclass(frozen=True)
class ClassLabel:
    """Diagnostic class. Known values sort in declaration order; any other
    non-empty UTF-8 text is an "other" label sorting after the known ones."""

    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError("class label must be a non-empty string")
        try:
            self.value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"class label {self.value!r} is not valid UTF-8 text") from None

    @property
    def sort_key(self) -> tuple[int, str]:
        try:
            return (_KNOWN_LABELS.index(self.value), self.value)
        except ValueError:
            return (len(_KNOWN_LABELS), self.value)

    def __lt__(self, other: "ClassLabel") -> bool:
        return self.sort_key < other.sort_key

    def __str__(self) -> str:
        return self.value


NORMAL = ClassLabel("Normal")
CP_DP = ClassLabel("CP-dp")
CP_LA = ClassLabel("CP-la")
CP_RA = ClassLabel("CP-ra")
CP_LH = ClassLabel("CP-lh")
CP_RH = ClassLabel("CP-rh")
POLIO = ClassLabel("Polio")
SPINA_BIFIDA = ClassLabel("SpinaBifida")
_KNOWN_LABELS = tuple(x.value for x in (NORMAL, CP_DP, CP_LA, CP_RA, CP_LH, CP_RH, POLIO, SPINA_BIFIDA))


@dataclass(frozen=True, eq=False)
class GaitTrajectory:
    """One joint's sagittal angle on a uniform cycle-percentage grid.

    Sample k sits at cycle percentage k*100/(grid_size-1). Immutable; the
    samples array is made read-only at construction.
    """

    joint: Joint
    side: Side
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=float)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if len(arr) < MIN_GRID_SIZE:
            raise ValueError(
                f"grid_size must be >= {MIN_GRID_SIZE}, got {len(arr)}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("all angle values must be finite")
        if np.max(np.abs(arr)) > MAX_ABS_ANGLE_DEG:
            raise ValueError(f"|angle| must be <= {MAX_ABS_ANGLE_DEG} degrees")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def grid_size(self) -> int:
        return len(self.samples)

    @property
    def pct_axis(self) -> np.ndarray:
        return np.linspace(0.0, 100.0, self.grid_size)


@dataclass(frozen=True, eq=False)
class Subject:
    """Per-subject record: label plus one trajectory per (joint, side)."""

    id: str
    label: ClassLabel
    trajectories: Mapping[tuple[Joint, Side], GaitTrajectory]

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("subject id must be non-empty")
        if not self.trajectories:
            raise ValueError("subject must have at least one trajectory")
        for (joint, side), t in self.trajectories.items():
            if (t.joint, t.side) != (joint, side):
                raise ValueError(f"{t.joint.value}/{t.side.value} trajectory filed "
                                 f"under {joint.value}/{side.value}")
        sizes = {t.grid_size for t in self.trajectories.values()}
        if len(sizes) != 1:
            raise ValueError(f"trajectories disagree on grid_size: {sorted(sizes)}")
        object.__setattr__(self, "trajectories", dict(self.trajectories))

    def sorted_parts(self) -> list[tuple[Joint, Side]]:
        return sorted(self.trajectories, key=lambda p: part_sort_key(*p))


def resample(traj: GaitTrajectory, new_grid_size: int) -> GaitTrajectory:
    """Linearly interpolate onto a new uniform grid over [0, 100]%.

    Endpoints are preserved exactly; a no-op when the size is unchanged.
    """
    if new_grid_size < 2:
        raise ValueError(f"new_grid_size must be >= 2, got {new_grid_size}")
    if new_grid_size == traj.grid_size:
        return traj
    new_pct = np.linspace(0.0, 100.0, new_grid_size)
    new_samples = np.interp(new_pct, traj.pct_axis, traj.samples)
    return GaitTrajectory(joint=traj.joint, side=traj.side, samples=new_samples)


# --- CSV ingestion -------------------------------------------------------
#
# CSV schema (UTF-8, header required):
#   subject_id,label,joint,side,pct,angle_deg
# one row per (subject, joint, side, grid point); the pct values of each
# trajectory must form a complete uniform grid over [0, 100].


def _parse_part(kind, text: str, where: str):
    """The member of the enum `kind` (Joint or Side) named by text."""
    try:
        return kind(text)
    except ValueError:
        raise ParseError(f"{where}: unknown {kind.__name__.lower()} {text!r}") from None


@contextmanager
def undecodable_as(error: type[ValueError], path):
    """Raise a UnicodeDecodeError of the block as `error`, naming path; the
    decoder reads ahead of the rows, so no line is named."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from None


def _uniform_grid_samples(pct: np.ndarray, angle: np.ndarray, where: str) -> np.ndarray:
    """Validate that the (pct, angle) points form a complete uniform grid
    over [0, 100] and return the angles in grid order."""
    order = np.argsort(pct, kind="stable")
    pct = pct[order]
    n = len(pct)
    if n < 2:
        raise SchemaError(f"{where}: trajectory has only {n} grid point(s)")
    if (pct[1:] == pct[:-1]).any():
        raise SchemaError(f"{where}: duplicate pct values")
    # every pct is in [0, 100], so this is allclose(rtol=0, atol=1e-6)
    if np.abs(pct - np.linspace(0.0, 100.0, n)).max() > 1e-6:
        raise SchemaError(
            f"{where}: pct values do not form a uniform grid over [0, 100]"
        )
    return angle[order]


def _row_error(pct_text: str, angle_text: str) -> str | None:
    """The message of the first check a row's numbers fail, in the order
    pct number, pct range, angle number, finite, magnitude; None when the
    row passes."""
    try:
        pct = float(pct_text)
    except ValueError:
        return f"pct {pct_text!r} is not a number"
    if not 0.0 <= pct <= 100.0:
        return f"pct {pct} outside [0, 100]"
    try:
        angle = float(angle_text)
    except ValueError:
        return f"angle_deg {angle_text!r} is not a number"
    if not math.isfinite(angle):
        return f"angle_deg {angle_text!r} is not finite"
    if abs(angle) > MAX_ABS_ANGLE_DEG:
        return f"|angle_deg| exceeds {MAX_ABS_ANGLE_DEG}"
    return None


def _check_run(
    path, key: tuple[str, str, str, str], pct_text: list[str], angle_text: list[str],
    lines: list[int], subject_labels: dict[str, str],
) -> tuple[Joint, Side, np.ndarray, np.ndarray]:
    """Check a run of rows that share (subject_id, label, joint, side), as
    if row by row: the text fields once, at its first row; the numbers in
    bulk, and only a run that fails the bulk check goes through _row_error
    row by row, to name its first failing row. Records the subject's
    label; returns the run's part and values."""
    sid, label_text, joint_text, side_text = key
    where = f"{path}:{lines[0]}"
    if not sid:
        raise ParseError(f"{where}: empty subject_id")
    if not label_text:
        raise SchemaError(f"{where}: missing label")
    joint = _parse_part(Joint, joint_text, where)
    side = _parse_part(Side, side_text, where)
    try:
        pct = np.fromiter(map(float, pct_text), float, len(pct_text))
        angle = np.fromiter(map(float, angle_text), float, len(angle_text))
        # NaN and infinities fail these comparisons
        passed = ((pct >= 0.0) & (pct <= 100.0) & (np.abs(angle) <= MAX_ABS_ANGLE_DEG)).all()
    except ValueError:
        passed = False
    row, message = len(lines), None
    if not passed:
        row, message = next(
            (i, m) for i, m in enumerate(map(_row_error, pct_text, angle_text)) if m is not None
        )
    known = subject_labels.setdefault(sid, label_text)
    # a row's last check; it fails at the run's first row if at any, so a
    # number check failing there comes first
    if known != label_text and row > 0:
        raise SchemaError(
            f"{where}: subject {sid!r} has conflicting labels {known} and {label_text}"
        )
    if message is not None:
        raise ParseError(f"{path}:{lines[row]}: {message}")
    return joint, side, pct, angle


def ingest_csv(path) -> list[Subject]:
    """Read a dataset CSV, resampling trajectories to the canonical grid.

    Rows are read one trajectory at a time: consecutive rows that share
    (subject_id, label, joint, side) form a run, checked and converted when
    it ends, and the runs of one part merge in file order. The numbers of
    a run are converted and range-checked in bulk; a run that fails is
    checked again row by row with the row rule, so an error is that of the
    first failing row and, within it, of its first failing check. It names
    the physical line on which that row ends, so a quoted line break in an
    id counts.
    """
    # utf-8-sig drops the byte order mark of Excel's "CSV UTF-8"
    with open(path, "r", encoding="utf-8-sig", newline="") as fh, undecodable_as(ParseError, path):
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if sorted(header) != sorted(CSV_COLUMNS):
            raise SchemaError(
                f"{path}: header must contain exactly {','.join(CSV_COLUMNS)}"
            )
        key_of = operator.itemgetter(*(header.index(name) for name in CSV_COLUMNS[:4]))
        i_pct, i_angle = header.index("pct"), header.index("angle_deg")

        subject_labels: dict[str, str] = {}  # subject id -> label text, in file order
        runs: dict[str, dict[tuple[Joint, Side], list[tuple[np.ndarray, np.ndarray]]]] = {}

        def finish(key, pct_text, angle_text, lines) -> None:
            joint, side, pct, angle = _check_run(
                path, key, pct_text, angle_text, lines, subject_labels
            )
            runs.setdefault(key[0], {}).setdefault((joint, side), []).append((pct, angle))

        key, pct_text, angle_text, lines = None, [], [], []
        for row in reader:
            if len(row) == len(CSV_COLUMNS) and key_of(row) == key:
                pct_text.append(row[i_pct])
                angle_text.append(row[i_angle])
                lines.append(reader.line_num)
                continue
            if not row:
                continue
            if key is not None:
                finish(key, pct_text, angle_text, lines)
            if len(row) != len(CSV_COLUMNS):
                raise ParseError(f"{path}:{reader.line_num}: expected {len(CSV_COLUMNS)} fields")
            key = key_of(row)
            pct_text, angle_text, lines = [row[i_pct]], [row[i_angle]], [reader.line_num]
        if key is not None:
            finish(key, pct_text, angle_text, lines)

    subjects = []
    for sid, label_text in subject_labels.items():
        where = f"{path}: subject {sid!r}"
        trajectories = {}
        for (joint, side), part_runs in runs[sid].items():
            samples = _uniform_grid_samples(
                np.concatenate([pct for pct, _ in part_runs]),
                np.concatenate([angle for _, angle in part_runs]),
                f"{where} {joint.value}/{side.value}",
            )
            try:
                traj = GaitTrajectory(joint=joint, side=side, samples=samples)
            except ValueError as exc:
                raise SchemaError(f"{where} {joint.value}/{side.value} angle_deg: {exc}") from None
            trajectories[(joint, side)] = resample(traj, CANONICAL_GRID_SIZE)
        subjects.append(Subject(id=sid, label=ClassLabel(label_text), trajectories=trajectories))
    if not subjects:
        raise SchemaError(f"{path}: no data rows")
    return subjects


def csv_fields(fields: Sequence[str], delimiter: str = ",") -> str:
    """fields as the csv module writes them in one record, without the line
    end: quoted where needed, or every one quoted when needs_quote_all."""
    line = io.StringIO()
    quoting = csv.QUOTE_ALL if needs_quote_all(*fields) else csv.QUOTE_MINIMAL
    csv.writer(line, delimiter=delimiter, lineterminator="\n", quoting=quoting).writerow(fields)
    return line.getvalue()[:-1]


def needs_quote_all(*texts: str) -> bool:
    """Whether a row holding these texts must quote every field: the csv
    writer may leave a lone "\\r" unquoted (Python 3.11 does), and a reader
    would end the row there."""
    return any("\r" in text for text in texts)


def write_csv(subjects: Sequence[Subject], path) -> None:
    """Write subjects in the dataset CSV schema (canonical column order;
    trajectories in canonical part order), one trajectory at a time.
    Floats use repr so that ingest -> write -> ingest round-trips
    bit-identically. Any subject id and label text reads back unchanged;
    rows of ids without a comma, quote or line break are plain
    comma-joined text, as the csv module writes them."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        # (grid size, quote) -> each row's text between the part and the angle
        pct_cells: dict[tuple[int, str], list[str]] = {}
        for subj in subjects:
            q = '"' if needs_quote_all(subj.id, subj.label.value) else ""
            for joint, side in subj.sorted_parts():
                traj = subj.trajectories[(joint, side)]
                cells = pct_cells.get((traj.grid_size, q))
                if cells is None:
                    cells = [f",{q}{p!r}{q},{q}" for p in traj.pct_axis.tolist()]
                    pct_cells[(traj.grid_size, q)] = cells
                lead = csv_fields([subj.id, subj.label.value, joint.value, side.value])
                rows = map(str.__add__, cells, map(float.__repr__, traj.samples.tolist()))
                fh.write(lead + f"{q}\n{lead}".join(rows) + q + "\n")


def json_form(value):
    """value as a JSON document: a record as an object of its dataclass
    fields, an enum or ClassLabel as its text, a mapping as an object with
    its keys converted the same way, a tuple, list or array as a list, and
    a numpy scalar as its Python number."""
    if isinstance(value, (Enum, ClassLabel)):
        return value.value
    if is_dataclass(value):
        return {f.name: json_form(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Mapping):
        return {json_form(k): json_form(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [json_form(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def json_text(value) -> str:
    """The text of every JSON artifact: json_form(value) indented by 2,
    keys sorted, and strict JSON, so a NaN or infinity is an error."""
    return json.dumps(json_form(value), indent=2, sort_keys=True, allow_nan=False)


def write_json(value, path) -> None:
    """Write value's json_text and a newline to path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(value) + "\n")
