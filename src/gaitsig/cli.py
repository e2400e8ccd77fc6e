"""Command-line interface. Every subcommand reads the run-config document
of its --config (or an empty one), writes each setting flag given over its
config key, and runs the stage functions of `pipeline` with the result."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import evaluate as ev
from . import features as ft
from . import pipeline as pl
from .config import ConfigError, load_config


# Each setting flag, an integer, and the config key whose value
# config.load_config replaces with it. Every other setting comes from
# --config. Neither flag has a default, so a flag left out keeps the
# config's value.
SETTING_FLAGS = {"--seed": "seed", "--epochs": "som.epochs"}


def _config(args):
    """A subcommand's settings: its --config document, else an empty one,
    with its flags applied."""
    return load_config(getattr(args, "config", None), getattr(args, "seed", None),
                       getattr(args, "epochs", None), getattr(args, "input", None))


def cmd_ingest(args) -> int:
    out = Path(args.out)
    subjects = pl.write_dataset(_config(args), out)
    print(f"ingested {len(subjects)} subjects -> {out / 'dataset.csv'}")
    return 0


def cmd_synth(args) -> int:
    cfg = _config(args)
    if cfg.synth is None:
        raise ConfigError("config has no synth section")
    out = Path(args.out)
    subjects = pl.write_dataset(cfg, out)
    print(f"generated {len(subjects)} subjects -> {out / 'dataset.csv'}")
    return 0


def cmd_cwt(args) -> int:
    cfg = _config(args)
    out = Path(args.out)
    count = pl.write_scalograms(pl.load_dataset(cfg), cfg, out, args.config is None)
    print(f"wrote {count} scalograms -> {out / 'scalograms'}")
    return 0


def cmd_features(args) -> int:
    cfg = _config(args)
    out = Path(args.out)
    matrix = pl.write_features(args.scalograms, cfg.level, out)
    print(f"wrote {len(matrix.subject_ids)} feature vectors -> {out / 'features.csv'}")
    return 0


def cmd_train(args) -> int:
    cfg = _config(args)
    matrix = ft.read_features_csv(args.features)
    out = Path(args.out)
    _, ids = pl.write_map(matrix, cfg, out)
    print(
        f"trained {cfg.som_rows}x{cfg.som_cols} map on {len(matrix.subject_ids)} vectors; "
        f"{pl.count_clusters(ids)} clusters -> {out}"
    )
    return 0


def cmd_eval(args) -> int:
    cfg = _config(args)
    report = pl.write_eval(ft.read_features_csv(args.features), cfg, Path(args.out))
    print(ev.format_report_table(report), end="")
    return 0


def cmd_run(args) -> int:
    result = pl.run_pipeline(_config(args), args.out)
    scores = ""
    if result.report is not None:
        scores = f"recognition rate: {result.report.recognition_rate:.4f}  kappa: {result.report.kappa:.4f}  "
    print(f"{scores}clusters: {pl.count_clusters(result.cluster_ids)}")
    print(f"artifacts -> {args.out}")
    return 0


def _subcommand(sub, name: str, func, help: str, paths: dict, settings=(), stage: bool = False) -> None:
    """Add subcommand `name`, run by func: its path flags (flag: help), all
    required, a stage's optional --config, and its setting flags."""
    p = sub.add_parser(name, help=help)
    for flag, text in paths.items():
        p.add_argument(flag, required=True, help=text)
    if stage:
        p.add_argument("--config", help="run config JSON, as run reads it; --seed and --epochs override it")
    for flag in settings:
        p.add_argument(flag, type=int, help=f"sets {SETTING_FLAGS[flag]}")
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaitsig",
        description="Gait signatures: Morlet scalograms of joint angles classified with a self-organizing map.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    dataset = "dataset CSV"
    _subcommand(sub, "ingest", cmd_ingest, "validate a dataset and write it on the canonical grid",
                {"--input": dataset, "--out": None})
    _subcommand(sub, "synth", cmd_synth, "generate a synthetic labeled dataset",
                {"--config": "run config JSON with a synth section", "--out": None}, ["--seed"])
    _subcommand(sub, "cwt", cmd_cwt, "compute Morlet scalograms for a dataset; without --config, "
                "of every joint and side each subject has",
                {"--input": dataset + "; replaces the config's input", "--out": None}, stage=True)
    _subcommand(sub, "features", cmd_features, "extract feature vectors from scalogram CSVs",
                {"--scalograms": "directory of scalogram_*.csv files", "--out": None}, stage=True)
    _subcommand(sub, "train", cmd_train, "train a SOM on a feature matrix",
                {"--features": "features.csv path", "--out": None}, ["--epochs", "--seed"], stage=True)
    _subcommand(sub, "eval", cmd_eval, "leave-one-out evaluation of a feature matrix",
                {"--features": "features.csv path", "--out": None}, ["--epochs", "--seed"], stage=True)
    _subcommand(sub, "run", cmd_run, "run the whole pipeline from a config file",
                {"--config": "run config JSON", "--out": None}, ["--seed"])
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
