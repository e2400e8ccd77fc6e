"""Command-line interface. Subcommands mirror the pipeline stages so each
can be scripted independently; `run` executes everything from one config."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
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
from .config import ConfigError, RunConfig, load_config
from .pipeline import StageError, run_pipeline, write_scalograms
from .pool import fork_map


def _parse_map_dims(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise ConfigError(f"--map-dims expects ROWSxCOLS, got {text!r}") from None


def _parse_scales(text: str) -> wv.ScaleGrid:
    try:
        lo, hi, count = text.split(":")
        return wv.ScaleGrid.default(count=int(count), lo=float(lo), hi=float(hi))
    except ValueError:
        raise ConfigError(f"--scales expects MIN:MAX:COUNT, got {text!r}") from None


def _ingest_any(path: str) -> list[gd.Subject]:
    if str(path).endswith(".json"):
        return gd.ingest_json(path)
    return gd.ingest_csv(path)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "scales", None):
        cfg = replace(cfg, scales=_parse_scales(args.scales))
    if getattr(args, "map_dims", None):
        rows, cols = _parse_map_dims(args.map_dims)
        cfg = replace(cfg, som_rows=rows, som_cols=cols)
    if getattr(args, "level", None):
        cfg = replace(cfg, split=replace(cfg.split, level=ft.Level(args.level)))
    if getattr(args, "threshold", None) is not None:
        cfg = replace(cfg, cluster_threshold=args.threshold)
    return cfg


def cmd_ingest(args) -> int:
    subjects = _ingest_any(args.input)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gd.write_csv(subjects, out / "dataset.csv")
    print(f"ingested {len(subjects)} subjects -> {out / 'dataset.csv'}")
    return 0


def cmd_synth(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    if cfg.synth is None:
        raise ConfigError("config has no synth section")
    subjects = synth.generate_groups(
        cfg.synth.template,
        cfg.synth.n_subjects,
        cfg.synth.groups,
        cfg.synth.rng_seed,
        include_normal=cfg.synth.include_normal,
        normal_jitter_sd=cfg.synth.normal_jitter_sd,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gd.write_csv(subjects, out / "dataset.csv")
    print(f"generated {len(subjects)} subjects -> {out / 'dataset.csv'}")
    return 0


def cmd_cwt(args) -> int:
    subjects = _ingest_any(args.input)
    is_json = str(args.input).endswith(".json")
    cfg = RunConfig(
        input_csv=None if is_json else args.input,
        input_json=args.input if is_json else None,
        joints=tuple(gd.Joint(j) for j in args.joints.split(",")) if args.joints else tuple(gd.Joint),
        sides=tuple(gd.Side(s) for s in args.sides.split(",")) if args.sides else tuple(gd.Side),
        morlet=wv.MorletParams(nu0=args.nu0, truncation_radius=args.truncation_radius),
        scales=_parse_scales(args.scales) if args.scales else wv.ScaleGrid.default(),
        boundary=wv.Boundary(args.boundary),
        write_pgm=args.pgm,
    )
    out = Path(args.out) / "scalograms"
    count = sum(write_scalograms(subjects, cfg, out, keep=False))
    print(f"wrote {count} scalograms -> {out}")
    return 0


def _part_vector(split: ft.RegionSplit, path: Path) -> ft.FeatureVector:
    """The single-part feature vector of one scalogram file; a pool task
    of `gaitsig features`."""
    sc = wv.read_scalogram_csv(path)
    try:
        return ft.extract_features(sc, split)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_features(args) -> int:
    split = ft.RegionSplit(stance_fraction=args.stance_fraction, level=ft.Level(args.level))
    paths = sorted(Path(args.scalograms).glob("scalogram_*.csv"))
    if not paths:
        raise ConfigError(f"no scalogram_*.csv files under {args.scalograms}")
    by_subject: dict[str, list[ft.FeatureVector]] = {}
    for part in fork_map(partial(_part_vector, split), paths):
        by_subject.setdefault(part.subject_id, []).append(part)
    vectors = [ft.combine_joints(by_subject[sid]) for sid in sorted(by_subject)]
    expected = vectors[0].parts
    for v in vectors:
        if v.parts != expected:
            raise ConfigError(
                f"subject {v.subject_id!r} has parts {v.parts}, expected {expected}"
            )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ft.write_features_csv(vectors, out / "features.csv")
    print(f"wrote {len(vectors)} feature vectors -> {out / 'features.csv'}")
    return 0


def _schedule_from_args(args) -> sm.TrainSchedule:
    return sm.TrainSchedule(
        epochs=args.epochs,
        kernel=sm.Kernel(args.kernel),
        init=sm.InitMode(args.init),
        rng_seed=args.seed,
    )


def cmd_train(args) -> int:
    vectors = ft.read_features_csv(args.features)
    rows, cols = _parse_map_dims(args.map_dims)
    x = np.stack([v.values for v in vectors])
    schedule = _schedule_from_args(args)
    som_map = sm.train(sm.init(rows, cols, x.shape[1], schedule, samples=x), x)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sm.save_map_json(som_map, out / "som.json")
    um = sm.umatrix(som_map)
    sm.write_umatrix_csv(um, out / "umatrix.csv")
    if args.pgm:
        pgm.write_pgm(um.heights, out / "umatrix.pgm")
    sm.write_attraction_csv(sm.attraction_field(um), out / "attraction.csv")
    ids = sm.clusters(um, args.threshold)
    sm.write_clusters_csv(ids, out / "clusters.csv")
    n_clusters = len(set(ids[ids >= 0].tolist()))
    print(f"trained {rows}x{cols} map on {len(vectors)} vectors; {n_clusters} clusters -> {out}")
    return 0


def cmd_eval(args) -> int:
    vectors = ft.read_features_csv(args.features)
    rows, cols = _parse_map_dims(args.map_dims)
    report = ev.loocv(vectors, _schedule_from_args(args), rows=rows, cols=cols)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ev.write_report_json(report, out / "eval.json")
    ev.write_report_table(report, out / "eval.txt")
    ev.write_confusion_csv(report, out / "confusion.csv")
    print(ev.format_report_table(report), end="")
    return 0


def cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config, seed_override=args.seed), args)
    result = run_pipeline(cfg, args.out)
    summary = result.summary()
    if "recognition_rate" in summary:
        print(
            f"recognition rate: {summary['recognition_rate']:.4f}  "
            f"kappa: {summary['kappa']:.4f}  clusters: {summary['n_clusters']}"
        )
    else:
        print(f"clusters: {summary['n_clusters']}")
    print(f"artifacts -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaitsig",
        description="Gait signatures: Morlet scalograms of joint angles classified with a self-organizing map.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a dataset and write it on the canonical grid")
    p.add_argument("--input", required=True, help="dataset CSV or JSON manifest")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--config", required=True, help="run config JSON with a synth section")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cwt", help="compute Morlet scalograms for a dataset")
    p.add_argument("--input", required=True, help="dataset CSV or JSON manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--scales", default=None, help="MIN:MAX:COUNT (default 1:25:12, log-spaced)")
    p.add_argument("--nu0", type=float, default=1.0)
    p.add_argument("--truncation-radius", type=float, default=5.0)
    p.add_argument("--boundary", choices=[b.value for b in wv.Boundary], default="zero")
    p.add_argument("--joints", default=None, help="comma list, e.g. Hip,Knee")
    p.add_argument("--sides", default=None, help="comma list, e.g. Right,Left")
    p.add_argument("--pgm", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=cmd_cwt)

    p = sub.add_parser("features", help="extract feature vectors from scalogram CSVs")
    p.add_argument("--scalograms", required=True, help="directory of scalogram_*.csv files")
    p.add_argument("--out", required=True)
    p.add_argument("--level", choices=[l.value for l in ft.Level], default="HighScale")
    p.add_argument("--stance-fraction", type=float, default=0.60)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train a SOM on a feature matrix")
    p.add_argument("--features", required=True, help="features.csv path")
    p.add_argument("--out", required=True)
    p.add_argument("--map-dims", default="10x10", help="ROWSxCOLS")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--kernel", choices=[k.value for k in sm.Kernel], default="Gaussian")
    p.add_argument("--init", choices=[i.value for i in sm.InitMode], default="SampleInit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=None, help="cluster threshold (default: 60th percentile)")
    p.add_argument("--pgm", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="leave-one-out evaluation of a feature matrix")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--map-dims", default="10x10")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--kernel", choices=[k.value for k in sm.Kernel], default="Gaussian")
    p.add_argument("--init", choices=[i.value for i in sm.InitMode], default="SampleInit")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run", help="run the whole pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scales", default=None, help="MIN:MAX:COUNT override")
    p.add_argument("--map-dims", default=None, help="ROWSxCOLS override")
    p.add_argument("--level", choices=[l.value for l in ft.Level], default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"gaitsig: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"gaitsig: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
