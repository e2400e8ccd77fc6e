"""End-to-end pipeline: dataset -> scalograms -> features -> SOM -> report.

Each stage writes its artifacts into the output directory; a failure
writes a FAILED marker naming the stage so partial outputs are never
mistaken for a finished run. With a fixed config the whole artifact tree
is byte-identical across reruns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import data as gd
from . import evaluate as ev
from . import features as ft
from . import pgm
from . import som as sm
from . import synth
from . import wavelet as wv
from .config import ConfigError, RunConfig, write_resolved_config
from .pool import fork_map


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def scalogram_stems(subjects: list[gd.Subject]) -> dict[str, str]:
    """File-name stem per subject id. Two ids with one stem (`a b` and
    `a_b`) are refused: the second subject's files would overwrite the
    first's."""
    owners: dict[str, str] = {}
    for subj in subjects:
        stem = re.sub(r"[^A-Za-z0-9._-]", "_", subj.id)
        owner = owners.setdefault(stem, subj.id)
        if owner != subj.id:
            raise ValueError(
                f"subject ids {owner!r} and {subj.id!r} share the scalogram file stem {stem!r}"
            )
    return {sid: stem for stem, sid in owners.items()}


def _cwt_subject(
    cfg: RunConfig,
    out_dir: Path,
    keep: bool,
    job: tuple[gd.Subject, str, list[tuple[gd.Joint, gd.Side]]],
) -> list[wv.Scalogram] | int:
    """One subject's share of the cwt stage, run in a pool worker: the CWT
    of each selected part, written as a scalogram CSV and, with
    cfg.write_pgm, a PGM. Returns the scalograms, or only their count."""
    subject, stem, parts = job
    scalograms = []
    for joint, side in parts:
        sc = wv.cwt(subject.trajectories[(joint, side)], cfg.scales, cfg.morlet, cfg.boundary)
        sc = replace(sc, subject_id=subject.id, label=subject.label)
        path = out_dir / f"scalogram_{stem}_{joint.value}_{side.value}"
        wv.write_scalogram_csv(sc, f"{path}.csv")
        if cfg.write_pgm:
            pgm.write_pgm(sc.values, f"{path}.pgm")
        scalograms.append(sc)
    return scalograms if keep else len(scalograms)


def write_scalograms(
    subjects: list[gd.Subject], cfg: RunConfig, out_dir: Path, keep: bool
) -> list[list[wv.Scalogram]] | list[int]:
    """The cwt stage of `run` and `gaitsig cwt`: the scalograms of each
    subject's parts among cfg.joints x cfg.sides, one pool task per
    subject, written under out_dir. Scalogram files there that this run
    does not write are deleted first. Returns each subject's scalograms,
    or without `keep` only their number."""
    stems = scalogram_stems(subjects)
    jobs = [
        (
            subj,
            stems[subj.id],
            [(j, s) for j, s in subj.sorted_parts() if j in cfg.joints and s in cfg.sides],
        )
        for subj in subjects
    ]
    suffixes = (".csv", ".pgm") if cfg.write_pgm else (".csv",)
    written = {
        f"scalogram_{stem}_{joint.value}_{side.value}{suffix}"
        for _, stem, parts in jobs
        for joint, side in parts
        for suffix in suffixes
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in out_dir.glob("scalogram_*"):
        if path.suffix in (".csv", ".pgm") and path.name not in written:
            path.unlink()
    return fork_map(partial(_cwt_subject, cfg, out_dir, keep), jobs)


@dataclass(frozen=True, eq=False)
class PipelineResult:
    subjects: list[gd.Subject]
    vectors: list[ft.FeatureVector]
    som: sm.SomMap
    um: sm.UMatrix
    cluster_ids: np.ndarray
    report: ev.EvalReport | None

    @property
    def n_clusters(self) -> int:
        ids = self.cluster_ids
        return int(len(set(ids[ids >= 0].tolist())))

    def summary(self) -> dict:
        out = {"n_clusters": self.n_clusters}
        if self.report is not None:
            out["recognition_rate"] = self.report.recognition_rate
            out["kappa"] = self.report.kappa
        return out


def _stage(name: str, out_dir: Path):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and not isinstance(exc, StageError):
                (out_dir / "FAILED").write_text(f"{name}: {exc}\n", encoding="utf-8")
                raise StageError(name, str(exc)) from exc
            return False

    return _Ctx()


def run_pipeline(cfg: RunConfig, out_dir) -> PipelineResult:
    # input preconditions checked before anything is written
    for path in (cfg.input_csv, cfg.input_json):
        if path is not None and not Path(path).is_file():
            raise ConfigError(f"input file not found: {path}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # artifacts this run may not write: none survives from an earlier run
    for name in ("FAILED", "umatrix.pgm", "eval.json", "eval.txt", "confusion.csv"):
        (out_dir / name).unlink(missing_ok=True)
    write_resolved_config(cfg, out_dir / "resolved_config.json")

    with _stage("dataset", out_dir):
        if cfg.synth is not None:
            subjects = synth.generate_groups(
                cfg.synth.template,
                cfg.synth.n_subjects,
                cfg.synth.groups,
                cfg.synth.rng_seed,
                include_normal=cfg.synth.include_normal,
                normal_jitter_sd=cfg.synth.normal_jitter_sd,
            )
        elif cfg.input_csv is not None:
            subjects = gd.ingest_csv(cfg.input_csv)
        else:
            subjects = gd.ingest_json(cfg.input_json)
        gd.write_csv(subjects, out_dir / "dataset.csv")

    with _stage("cwt", out_dir):
        for subj in subjects:
            for joint in cfg.joints:
                for side in cfg.sides:
                    if (joint, side) not in subj.trajectories:
                        raise ValueError(
                            f"subject {subj.id!r} lacks a {joint.value}/{side.value} trajectory"
                        )
        scalograms = write_scalograms(subjects, cfg, out_dir / "scalograms", keep=True)

    with _stage("features", out_dir):
        vectors = [
            ft.combine_joints([ft.extract_features(sc, cfg.split) for sc in scs])
            for scs in scalograms
        ]
        # canonical subject order so stagewise and all-in-one runs agree
        vectors.sort(key=lambda v: v.subject_id)
        ft.write_features_csv(vectors, out_dir / "features.csv")

    with _stage("train", out_dir):
        classifier_input = ft.standardize(vectors) if cfg.zscore else vectors
        x = np.stack([v.values for v in classifier_input])
        som_map = sm.init(cfg.som_rows, cfg.som_cols, x.shape[1], cfg.schedule, samples=x)
        som_map = sm.train(som_map, x)
        sm.save_map_json(som_map, out_dir / "som.json")
        um = sm.umatrix(som_map)
        sm.write_umatrix_csv(um, out_dir / "umatrix.csv")
        if cfg.write_pgm:
            pgm.write_pgm(um.heights, out_dir / "umatrix.pgm")
        field = sm.attraction_field(um)
        sm.write_attraction_csv(field, out_dir / "attraction.csv")
        cluster_ids = sm.clusters(um, cfg.cluster_threshold)
        sm.write_clusters_csv(cluster_ids, out_dir / "clusters.csv")

    report = None
    if cfg.loocv:
        with _stage("eval", out_dir):
            report = ev.loocv(classifier_input, cfg.schedule, rows=cfg.som_rows, cols=cfg.som_cols)
            ev.write_report_json(report, out_dir / "eval.json")
            ev.write_report_table(report, out_dir / "eval.txt")
            ev.write_confusion_csv(report, out_dir / "confusion.csv")

    return PipelineResult(
        subjects=subjects,
        vectors=vectors,
        som=som_map,
        um=um,
        cluster_ids=cluster_ids,
        report=report,
    )
