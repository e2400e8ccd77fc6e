"""Command-line interface. Each stage subcommand parses its flags and calls
that stage's function in `pipeline`, so each can be scripted
independently; `run` executes every stage from one config."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import data as gd
from . import evaluate as ev
from . import features as ft
from . import pipeline as pl
from . import som as sm
from . import wavelet as wv
from .config import ConfigError, RunConfig, load_config


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


def _input_config(path: str, **settings) -> RunConfig:
    """A RunConfig whose input source is the dataset file at `path`: a JSON
    manifest if it ends in .json, else a dataset CSV."""
    if path.endswith(".json"):
        return RunConfig(input_json=path, **settings)
    return RunConfig(input_csv=path, **settings)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.scales:
        cfg = replace(cfg, scales=_parse_scales(args.scales))
    if args.map_dims:
        rows, cols = _parse_map_dims(args.map_dims)
        cfg = replace(cfg, som_rows=rows, som_cols=cols)
    if args.level:
        cfg = replace(cfg, level=ft.Level(args.level))
    if args.threshold is not None:
        cfg = replace(cfg, cluster_threshold=args.threshold)
    return cfg


def cmd_ingest(args) -> int:
    out = Path(args.out)
    subjects = pl.write_dataset(_input_config(args.input), out)
    print(f"ingested {len(subjects)} subjects -> {out / 'dataset.csv'}")
    return 0


def cmd_synth(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    if cfg.synth is None:
        raise ConfigError("config has no synth section")
    out = Path(args.out)
    subjects = pl.write_dataset(cfg, out)
    print(f"generated {len(subjects)} subjects -> {out / 'dataset.csv'}")
    return 0


def cmd_cwt(args) -> int:
    cfg = _input_config(
        args.input,
        joints=tuple(gd.Joint(j) for j in args.joints.split(",")) if args.joints else tuple(gd.Joint),
        sides=tuple(gd.Side(s) for s in args.sides.split(",")) if args.sides else tuple(gd.Side),
        morlet=wv.MorletParams(nu0=args.nu0, truncation_radius=args.truncation_radius),
        scales=_parse_scales(args.scales) if args.scales else wv.ScaleGrid.default(),
        boundary=wv.Boundary(args.boundary),
        write_pgm=args.pgm,
    )
    out = Path(args.out) / "scalograms"
    count = pl.write_scalograms(pl.load_dataset(cfg), cfg, out)
    print(f"wrote {count} scalograms -> {out}")
    return 0


def cmd_features(args) -> int:
    out = Path(args.out)
    vectors = pl.write_features(args.scalograms, ft.Level(args.level), out)
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
    out = Path(args.out)
    _, ids = pl.write_map(vectors, rows, cols, _schedule_from_args(args), args.threshold, args.pgm, out)
    print(f"trained {rows}x{cols} map on {len(vectors)} vectors; {pl.count_clusters(ids)} clusters -> {out}")
    return 0


def cmd_eval(args) -> int:
    vectors = ft.read_features_csv(args.features)
    rows, cols = _parse_map_dims(args.map_dims)
    report = pl.write_eval(vectors, _schedule_from_args(args), rows, cols, Path(args.out))
    print(ev.format_report_table(report), end="")
    return 0


def cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config, seed_override=args.seed), args)
    result = pl.run_pipeline(cfg, args.out)
    if result.report is not None:
        print(
            f"recognition rate: {result.report.recognition_rate:.4f}  "
            f"kappa: {result.report.kappa:.4f}  clusters: {result.n_clusters}"
        )
    else:
        print(f"clusters: {result.n_clusters}")
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
    except pl.StageError as exc:
        print(f"gaitsig: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"gaitsig: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
