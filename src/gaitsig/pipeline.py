"""End-to-end pipeline: dataset -> scalograms -> features -> SOM -> report.

Each stage writes its artifacts into the output directory; a failure
writes a FAILED marker naming the stage so partial outputs are never
mistaken for a finished run. With a fixed config the whole artifact tree
is byte-identical across reruns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
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


def subject_scalograms(subject: gd.Subject, cfg: RunConfig) -> list[wv.Scalogram]:
    """CWT of the configured (joint, side) parts, tagged with provenance."""
    out = []
    for joint in cfg.joints:
        for side in cfg.sides:
            try:
                traj = subject.trajectories[(joint, side)]
            except KeyError:
                raise ValueError(
                    f"subject {subject.id!r} lacks a {joint.value}/{side.value} trajectory"
                ) from None
            sc = wv.cwt(traj, cfg.scales, cfg.morlet, cfg.boundary)
            out.append(replace(sc, subject_id=subject.id, label=subject.label))
    return out


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
    failed = out_dir / "FAILED"
    if failed.exists():
        failed.unlink()
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
        stems = scalogram_stems(subjects)
        scalogram_dir = out_dir / "scalograms"
        scalogram_dir.mkdir(exist_ok=True)
        all_scalograms: dict[str, list[wv.Scalogram]] = {}
        for subj in subjects:
            scs = subject_scalograms(subj, cfg)
            all_scalograms[subj.id] = scs
            for sc in scs:
                stem = f"scalogram_{stems[subj.id]}_{sc.joint.value}_{sc.side.value}"
                wv.write_scalogram_csv(sc, scalogram_dir / f"{stem}.csv")
                if cfg.write_pgm:
                    pgm.write_pgm(sc.values, scalogram_dir / f"{stem}.pgm")

    with _stage("features", out_dir):
        vectors = [
            ft.combine_joints([ft.extract_features(sc, cfg.split) for sc in scs])
            for scs in all_scalograms.values()
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
