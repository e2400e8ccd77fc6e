"""End-to-end pipeline: dataset -> scalograms -> features -> SOM -> report.

Each stage is one function that writes its artifacts into an output
directory; `run_pipeline` and the CLI subcommands call the same ones. In
`run_pipeline` a failure writes a FAILED marker naming the stage so
partial outputs are never mistaken for a finished run. With a fixed
config the whole artifact tree is byte-identical across reruns.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from urllib.parse import quote

import numpy as np

from . import data as gd
from . import evaluate as ev
from . import features as ft
from . import pgm
from . import som as sm
from . import synth
from . import wavelet as wv
from .config import ConfigError, RunConfig, config_to_dict
from .pool import fork_map


# The files each stage writes, as glob patterns under its output directory.
# A stage deletes every match but its own input file before it starts, and
# a run does so for every stage before its first, so a failed rerun leaves
# no artifact of an earlier run; files that match none stay, since they may
# be the user's.
RUN_ARTIFACTS = {
    "dataset": ("dataset.csv",),
    "cwt": ("scalograms/scalogram_*.csv", "scalograms/scalogram_*.pgm"),
    "features": ("features.csv",),
    "train": ("som.json", "umatrix.csv", "umatrix.pgm", "attraction.csv", "clusters.csv", "bmus.csv"),
    "eval": ("eval.json", "eval.txt", "confusion.csv"),
}


def remove_artifacts(stage: str, out_dir: Path, keep=None) -> None:
    """Delete the files under out_dir that `stage` writes, except the
    input file `keep` (None keeps none)."""
    keep = None if keep is None else Path(keep).resolve()
    for pattern in RUN_ARTIFACTS[stage]:
        for path in out_dir.glob(pattern):
            if path.resolve() != keep:
                path.unlink()


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")


def _require_input(cfg: RunConfig) -> None:
    if cfg.input is None and cfg.synth is None:
        raise ConfigError("config needs an input: input or synth")


def load_dataset(cfg: RunConfig) -> list[gd.Subject]:
    """The subjects of cfg's one input source: generated from its synth
    section, or read from its dataset CSV."""
    _require_input(cfg)
    if cfg.synth is not None:
        return synth.generate(cfg.synth)
    return gd.ingest_csv(cfg.input)


def write_dataset(cfg: RunConfig, out_dir: Path) -> list[gd.Subject]:
    """The dataset stage: load cfg's input source and write it on the
    canonical grid as out_dir/dataset.csv."""
    remove_artifacts("dataset", out_dir, cfg.input)
    subjects = load_dataset(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    gd.write_csv(subjects, out_dir / "dataset.csv")
    return subjects


def scalogram_stem(sid: str) -> str:
    """The file-name stem of a subject id, distinct for each id: the id
    percent-encoded, or when that passes 200 bytes its first 135, `+`
    (which `quote` encodes) and the SHA-256 of the id."""
    stem = quote(sid, safe="")
    if len(stem) > 200:
        import hashlib  # only an id this long needs it
        stem = f"{stem[:135]}+{hashlib.sha256(sid.encode()).hexdigest()}"
    return stem


def _cwt_subject(cfg: RunConfig, out_dir: Path, job: tuple[gd.Subject, list[tuple[gd.Joint, gd.Side]]]) -> int:
    """One subject's share of the cwt stage, run in a pool worker: the CWT
    of each selected part, written as a scalogram CSV and, with
    cfg.write_pgm, a PGM. Returns the number of scalograms."""
    subject, parts = job
    stem = scalogram_stem(subject.id)
    for joint, side in parts:
        sc = wv.cwt(subject.trajectories[(joint, side)], cfg.scales, wv.MorletParams(), subject.id, subject.label)
        path = out_dir / f"scalogram_{stem}_{joint.value}_{side.value}"
        wv.write_scalogram_csv(sc, f"{path}.csv")
        if cfg.write_pgm:
            pgm.write_pgm(sc.values, f"{path}.pgm")
    return len(parts)


def write_scalograms(
    subjects: list[gd.Subject], cfg: RunConfig, out_dir: Path, every_part: bool = False
) -> int:
    """The cwt stage: the scalograms of the parts cfg.joints x cfg.sides,
    which each subject must have, or with every_part of every part each
    subject has; one pool task per subject, written under
    out_dir/scalograms. Returns the number of scalograms."""
    remove_artifacts("cwt", out_dir)
    wanted = None if every_part else [(j, s) for j in cfg.joints for s in cfg.sides]
    for subj in subjects:
        for joint, side in wanted or ():
            if (joint, side) not in subj.trajectories:
                raise ValueError(f"subject {subj.id!r} lacks a {joint.value}/{side.value} trajectory")
    jobs = [(subj, [p for p in subj.sorted_parts() if wanted is None or p in wanted]) for subj in subjects]
    scalogram_dir = out_dir / "scalograms"
    scalogram_dir.mkdir(parents=True, exist_ok=True)
    return sum(fork_map(partial(_cwt_subject, cfg, scalogram_dir), jobs))


def _part_row(level: ft.Level, first: Path, axes: tuple[np.ndarray, np.ndarray], path: Path) -> tuple:
    """The single-part row (subject_id, label, (joint, side), values) of
    one scalogram file, whose (scales, pct) axes must equal axes, those of
    the file first; a pool task of the features stage."""
    sc = wv.read_scalogram_csv(path)
    for name, axis, want in zip(("scales", "pct"), (sc.scale_axis.scales, sc.time_axis), axes):
        if not np.array_equal(axis, want):
            raise ValueError(f"{path}: its # {name}= axis differs from that of {first}")
    try:
        return sc.subject_id, sc.label, (sc.joint, sc.side), ft.extract_features(sc, level)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_features(scalogram_dir, level: ft.Level, out_dir: Path) -> ft.FeatureMatrix:
    """The features stage: the feature matrix of the scalogram CSVs under
    scalogram_dir, one pool task per file. Every file must have the axes
    of the first in name order, no two files one subject's part, and every
    subject the same parts. Writes out_dir/features.csv and returns the
    matrix."""
    remove_artifacts("features", out_dir)
    paths = sorted(Path(scalogram_dir).glob("scalogram_*.csv"))
    if not paths:
        raise ConfigError(f"no scalogram_*.csv files under {scalogram_dir}")
    first = wv.read_scalogram_csv(paths[0])
    rows = fork_map(partial(_part_row, level, paths[0], (first.scale_axis.scales, first.time_axis)), paths)
    owners: dict[tuple, Path] = {}
    for path, (sid, _, (joint, side), _) in zip(paths, rows):
        other = owners.setdefault((sid, joint, side), path)
        if other != path:
            raise ValueError(f"{path}: subject {sid!r} {joint.value}/{side.value} is also in {other}")
    matrix = ft.FeatureMatrix.from_parts(rows, level)
    out_dir.mkdir(parents=True, exist_ok=True)
    ft.write_features_csv(matrix, out_dir / "features.csv")
    return matrix


def _som_input(matrix: ft.FeatureMatrix, cfg: RunConfig) -> ft.FeatureMatrix:
    return ft.standardize(matrix) if cfg.zscore else matrix


def write_map(matrix: ft.FeatureMatrix, cfg: RunConfig, out_dir: Path) -> tuple[sm.SomMap, np.ndarray]:
    """The train stage: a cfg.som_rows x cfg.som_cols SOM trained on the
    matrix (z-scored with cfg.zscore), written with its U-Matrix,
    attraction field and clusters under out_dir. bmus.csv holds each
    subject's best-matching node for the vector the map was trained on,
    in matrix order. Returns the map and the per-node cluster ids."""
    remove_artifacts("train", out_dir)
    x = _som_input(matrix, cfg).values
    som_map = sm.train(sm.init(cfg.som_rows, cfg.som_cols, cfg.schedule, x), x)
    out_dir.mkdir(parents=True, exist_ok=True)
    sm.save_map_json(som_map, out_dir / "som.json")
    um = sm.umatrix(som_map)
    sm.write_umatrix_csv(um, out_dir / "umatrix.csv")
    if cfg.write_pgm:
        pgm.write_pgm(um.heights, out_dir / "umatrix.pgm")
    sm.write_attraction_csv(sm.attraction_field(um), out_dir / "attraction.csv")
    cluster_ids = sm.clusters(um)
    sm.write_clusters_csv(cluster_ids, out_dir / "clusters.csv")
    with open(out_dir / "bmus.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("subject_id,label,row,col\n")
        for sid, label, vector in zip(matrix.subject_ids, matrix.labels, x):
            row, col = divmod(sm.best_match(som_map, vector), som_map.cols)
            fh.write(gd.csv_fields([sid, str(label or ""), str(row), str(col)]) + "\n")
    return som_map, cluster_ids


def count_clusters(cluster_ids: np.ndarray) -> int:
    """The number of U-Matrix clusters; border nodes belong to none."""
    return len(set(cluster_ids[cluster_ids >= 0].tolist()))


def write_eval(matrix: ft.FeatureMatrix, cfg: RunConfig, out_dir: Path) -> ev.EvalReport:
    """The eval stage: leave-one-out validation of cfg.som_rows x
    cfg.som_cols maps on the matrix (z-scored with cfg.zscore), written
    as eval.json, eval.txt and confusion.csv under out_dir."""
    remove_artifacts("eval", out_dir)
    report = ev.loocv(_som_input(matrix, cfg), cfg.schedule, rows=cfg.som_rows, cols=cfg.som_cols)
    out_dir.mkdir(parents=True, exist_ok=True)
    gd.write_json(report, out_dir / "eval.json")
    ev.write_report_table(report, out_dir / "eval.txt")
    ev.write_confusion_csv(report, out_dir / "confusion.csv")
    return report


@dataclass(frozen=True, eq=False)
class PipelineResult:
    features: ft.FeatureMatrix
    som: sm.SomMap
    cluster_ids: np.ndarray
    report: ev.EvalReport | None


@contextmanager
def _stage(name: str, out_dir: Path):
    """Write out_dir/FAILED naming the stage if its body raises. An Exception
    becomes a StageError; an interrupt or exit passes unchanged."""
    try:
        yield
    except BaseException as exc:
        # a lone surrogate (say, of an undecodable file name) as its escape
        message = str(exc).encode("utf-8", "backslashreplace").decode("utf-8")
        (out_dir / "FAILED").write_text(f"{name}: {message}\n", encoding="utf-8")
        if not isinstance(exc, Exception):
            raise
        raise StageError(name, message) from exc


def run_pipeline(cfg: RunConfig, out_dir) -> PipelineResult:
    # input preconditions checked before anything is written
    _require_input(cfg)
    if cfg.input is not None and not Path(cfg.input).is_file():
        raise ConfigError(f"input file not found: {cfg.input}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "FAILED").unlink(missing_ok=True)
    for stage in RUN_ARTIFACTS:
        # keeps the run's input, e.g. an earlier run's dataset.csv
        remove_artifacts(stage, out_dir, cfg.input)
    scalogram_dir = out_dir / "scalograms"
    if scalogram_dir.is_dir() and not any(scalogram_dir.iterdir()):
        scalogram_dir.rmdir()
    gd.write_json(config_to_dict(cfg), out_dir / "resolved_config.json")

    with _stage("dataset", out_dir):
        subjects = write_dataset(cfg, out_dir)
        if cfg.loocv:  # a set LOOCV cannot score fails before the cwt stage
            ev.loocv_classes([subj.label for subj in subjects])

    with _stage("cwt", out_dir):
        write_scalograms(subjects, cfg, out_dir)

    with _stage("features", out_dir):
        matrix = write_features(out_dir / "scalograms", cfg.level, out_dir)

    with _stage("train", out_dir):
        som_map, cluster_ids = write_map(matrix, cfg, out_dir)

    report = None
    if cfg.loocv:
        with _stage("eval", out_dir):
            report = write_eval(matrix, cfg, out_dir)

    return PipelineResult(features=matrix, som=som_map, cluster_ids=cluster_ids, report=report)
