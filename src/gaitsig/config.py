"""Declarative run configuration.

A single JSON document holds every stage's parameters. Everything is
validated up front (each parameter object enforces its own invariants), so
a bad config fails before any computation starts, and the fully resolved
form (all defaults and derived seeds filled in) is echoed back as JSON
into the output directory for reproducibility checks. `config_from_dict`
gives a RunConfig, which names exactly one input source;
`settings_from_dict` gives its Settings alone, for a stage that reads no
dataset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from .data import ClassLabel, Joint, Side
from .features import Level
from .som import InitMode, Kernel, TrainSchedule
from .synth import DEFAULT_TEMPLATE, GaitRegion, PerturbationSpec
from .wavelet import Boundary, MorletParams, ScaleGrid


class ConfigError(ValueError):
    pass


def _require_keys(doc: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


_JSON_TYPES = ((bool, "a boolean"), (dict, "an object"), (list, "an array"),
               (str, "a string"), ((int, float), "a number"))


def _json_type(value: Any) -> str:
    if value is None:
        return "null"
    return next(name for kind, name in _JSON_TYPES if isinstance(value, kind))


def _object(value: Any, where: str) -> Mapping[str, Any]:
    """value, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: must be an object, got {_json_type(value)}")
    return value


def _section(doc: Mapping[str, Any], key: str) -> Mapping[str, Any]:
    """The object doc[key]; {} when it is absent or null."""
    value = doc.get(key)
    return {} if value is None else _object(value, key)


def _typed(doc: Mapping[str, Any], key: str, default: Any, kind: type, where: str) -> Any:
    """doc[key], which must be of type `kind` (bool: true or false)."""
    value = doc.get(key, default)
    if not isinstance(value, kind):
        raise ConfigError(f"{where}: must be {_json_type(kind())}, got {json.dumps(value)}")
    return value


def _names(doc: Mapping[str, Any], key: str, default: list[str], kind) -> tuple:
    """doc[key], a list of strings, as members of the enum `kind`."""
    value = doc.get(key, default)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{key}: must be a list of strings, got {json.dumps(value)}")
    try:
        return tuple(kind(v) for v in value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _perturbation_from_dict(doc: Mapping[str, Any], where: str) -> PerturbationSpec:
    _object(doc, where)
    _require_keys(
        doc,
        {"hf_amplitude", "hf_phase_region", "asymmetry_gain", "timing_shift", "jitter_sd"},
        where,
    )
    try:
        return PerturbationSpec(
            hf_amplitude=float(doc.get("hf_amplitude", 0.0)),
            hf_phase_region=GaitRegion(doc.get("hf_phase_region", "Stance")),
            asymmetry_gain=float(doc.get("asymmetry_gain", 1.0)),
            timing_shift=float(doc.get("timing_shift", 0.0)),
            jitter_sd=float(doc.get("jitter_sd", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _perturbation_to_dict(p: PerturbationSpec) -> dict:
    return {
        "hf_amplitude": p.hf_amplitude,
        "hf_phase_region": p.hf_phase_region.value,
        "asymmetry_gain": p.asymmetry_gain,
        "timing_shift": p.timing_shift,
        "jitter_sd": p.jitter_sd,
    }


@dataclass(frozen=True)
class SynthSection:
    """Resolved synthetic-dataset portion of a run config."""

    n_subjects: int
    rng_seed: int
    template: Mapping[Joint, tuple[tuple[int, float, float], ...]]
    groups: Mapping[ClassLabel, PerturbationSpec]
    include_normal: bool = True
    normal_jitter_sd: float | None = None

    def __post_init__(self) -> None:
        if self.n_subjects < 1:
            raise ConfigError("synth.n_subjects must be >= 1")
        if not self.include_normal and not self.groups:
            raise ConfigError("synth generates nothing: no Normal class, no groups")
        object.__setattr__(self, "template", dict(self.template))
        object.__setattr__(self, "groups", dict(self.groups))


@dataclass(frozen=True)
class Settings:
    """Every setting of a run but its input source: what the stage
    subcommands that read no dataset (features, train, eval) run with."""

    seed: int = 0
    joints: tuple[Joint, ...] = (Joint.HIP,)
    sides: tuple[Side, ...] = (Side.RIGHT, Side.LEFT)
    morlet: MorletParams = field(default_factory=MorletParams)
    scales: ScaleGrid = field(default_factory=ScaleGrid.default)
    boundary: Boundary = Boundary.ZERO
    level: Level = Level.HIGH_SCALE
    zscore: bool = False
    som_rows: int = 10
    som_cols: int = 10
    schedule: TrainSchedule = field(default_factory=TrainSchedule)
    cluster_threshold: float | None = None
    write_pgm: bool = True
    loocv: bool = True

    def __post_init__(self) -> None:
        if not self.joints or not self.sides:
            raise ConfigError("joints and sides must be non-empty")
        if self.som_rows * self.som_cols < 2:
            raise ConfigError("SOM needs at least 2 nodes")
        if self.schedule.sigma0 is None:
            object.__setattr__(
                self, "schedule", self.schedule.resolve(self.som_rows, self.som_cols)
            )


@dataclass(frozen=True)
class RunConfig(Settings):
    """The settings of a run and its one input source."""

    input_csv: str | None = None
    input_json: str | None = None
    synth: SynthSection | None = None

    def __post_init__(self) -> None:
        sources = sum(x is not None for x in (self.input_csv, self.input_json, self.synth))
        if sources == 0:
            raise ConfigError("config needs an input: input_csv, input_json, or synth")
        if sources > 1:
            raise ConfigError("config must name exactly one input source")
        super().__post_init__()


def _template_from_doc(doc, where: str):
    if doc is None:
        return dict(DEFAULT_TEMPLATE)
    template = {}
    for joint_name, harmonics in _object(doc, where).items():
        try:
            joint = Joint(joint_name)
        except ValueError:
            raise ConfigError(f"{where}: unknown joint {joint_name!r}") from None
        try:
            template[joint] = tuple(
                (int(h), float(a), float(p)) for h, a, p in harmonics
            )
        except (TypeError, ValueError):
            raise ConfigError(
                f"{where}.{joint_name}: must be a list of [harmonic, amplitude, phase]"
            ) from None
    return template


def _synth_from_dict(doc: Mapping[str, Any], seed: int) -> SynthSection:
    where = "synth"
    _object(doc, where)
    _require_keys(
        doc,
        {"n_subjects", "rng_seed", "template", "pathology", "pathology_label",
         "groups", "include_normal", "normal_jitter_sd"},
        where,
    )
    if doc.get("pathology") is not None and doc.get("groups") is not None:
        raise ConfigError(f"{where}: give either pathology or groups, not both")
    groups: dict[ClassLabel, PerturbationSpec] = {}
    if doc.get("groups") is not None:
        for label_text, pdoc in _object(doc["groups"], f"{where}.groups").items():
            groups[ClassLabel(label_text)] = _perturbation_from_dict(
                pdoc, f"{where}.groups[{label_text}]"
            )
    elif doc.get("pathology") is not None:
        label = ClassLabel(_typed(doc, "pathology_label", "CP-dp", str, f"{where}.pathology_label"))
        groups[label] = _perturbation_from_dict(doc["pathology"], f"{where}.pathology")
    rng_seed = doc.get("rng_seed")
    include_normal = _typed(doc, "include_normal", True, bool, f"{where}.include_normal")
    normal_jitter = doc.get("normal_jitter_sd")
    return SynthSection(
        n_subjects=int(doc.get("n_subjects", 10)),
        rng_seed=seed if rng_seed is None else int(rng_seed),
        template=_template_from_doc(doc.get("template"), f"{where}.template"),
        groups=groups,
        include_normal=include_normal,
        normal_jitter_sd=None if normal_jitter is None else float(normal_jitter),
    )


def _scales_from_doc(doc, where: str) -> ScaleGrid:
    if doc is None:
        return ScaleGrid.default()
    try:
        if isinstance(doc, dict):
            _require_keys(doc, {"count", "min", "max"}, where)
            return ScaleGrid.default(
                count=int(doc.get("count", 12)),
                lo=float(doc.get("min", 1.0)),
                hi=float(doc.get("max", 25.0)),
            )
        return ScaleGrid(doc)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse(doc: Mapping[str, Any]) -> tuple[dict, dict]:
    """A run-config document, every key checked and every default filled
    in, as Settings and input-source keyword arguments."""
    _require_keys(
        doc,
        {"seed", "input_csv", "input_json", "synth", "joints", "sides", "wavelet",
         "features", "som", "cluster_threshold", "write_pgm", "loocv"},
        "config",
    )
    try:
        seed = int(doc.get("seed", 0))
        synth = None
        if doc.get("synth") is not None:
            synth = _synth_from_dict(doc["synth"], seed)

        wdoc = _section(doc, "wavelet")
        _require_keys(wdoc, {"nu0", "truncation_radius", "boundary", "scales"}, "wavelet")
        morlet = MorletParams(
            nu0=float(wdoc.get("nu0", 1.0)),
            truncation_radius=float(wdoc.get("truncation_radius", 5.0)),
        )
        boundary = Boundary(wdoc.get("boundary", "zero"))
        scales = _scales_from_doc(wdoc.get("scales"), "wavelet.scales")

        fdoc = _section(doc, "features")
        _require_keys(fdoc, {"level", "zscore"}, "features")
        level = Level(fdoc.get("level", "HighScale"))
        zscore = _typed(fdoc, "zscore", False, bool, "features.zscore")

        sdoc = _section(doc, "som")
        _require_keys(
            sdoc,
            {"rows", "cols", "epochs", "alpha0", "sigma0", "sigma_end", "kernel",
             "init", "rng_seed"},
            "som",
        )
        rows = int(sdoc.get("rows", 10))
        cols = int(sdoc.get("cols", 10))
        som_seed = sdoc.get("rng_seed")
        schedule = TrainSchedule(
            epochs=int(sdoc.get("epochs", 200)),
            alpha0=float(sdoc.get("alpha0", 0.5)),
            sigma0=None if sdoc.get("sigma0") is None else float(sdoc["sigma0"]),
            sigma_end=float(sdoc.get("sigma_end", 0.3)),
            kernel=Kernel(sdoc.get("kernel", "Gaussian")),
            rng_seed=seed if som_seed is None else int(som_seed),
            init=InitMode(sdoc.get("init", "SampleInit")),
        )

        threshold = doc.get("cluster_threshold")
        settings = dict(
            seed=seed,
            joints=_names(doc, "joints", ["Hip"], Joint),
            sides=_names(doc, "sides", ["Right", "Left"], Side),
            morlet=morlet,
            scales=scales,
            boundary=boundary,
            level=level,
            zscore=zscore,
            som_rows=rows,
            som_cols=cols,
            schedule=schedule,
            cluster_threshold=None if threshold is None else float(threshold),
            write_pgm=_typed(doc, "write_pgm", True, bool, "write_pgm"),
            loocv=_typed(doc, "loocv", True, bool, "loocv"),
        )
        sources = dict(input_csv=doc.get("input_csv"), input_json=doc.get("input_json"), synth=synth)
        return settings, sources
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:  # a value of the wrong type or range
        raise ConfigError(str(exc)) from None


def settings_from_dict(doc: Mapping[str, Any]) -> Settings:
    """The settings of a run-config document, which is validated in full
    but need not name an input source."""
    settings, _ = _parse(doc)
    return Settings(**settings)


def config_from_dict(doc: Mapping[str, Any]) -> RunConfig:
    settings, sources = _parse(doc)
    return RunConfig(**settings, **sources)


def config_to_dict(cfg: RunConfig) -> dict:
    """Fully resolved form: every default and derived seed made explicit."""
    synth = None
    if cfg.synth is not None:
        synth = {
            "n_subjects": cfg.synth.n_subjects,
            "rng_seed": cfg.synth.rng_seed,
            "template": {
                j.value: [[h, a, p] for h, a, p in hs]
                for j, hs in sorted(cfg.synth.template.items(), key=lambda kv: kv[0].value)
            },
            "pathology": None,
            "pathology_label": None,
            "groups": {
                lab.value: _perturbation_to_dict(p)
                for lab, p in sorted(cfg.synth.groups.items())
            },
            "include_normal": cfg.synth.include_normal,
            "normal_jitter_sd": cfg.synth.normal_jitter_sd,
        }
    return {
        "seed": cfg.seed,
        "input_csv": cfg.input_csv,
        "input_json": cfg.input_json,
        "synth": synth,
        "joints": [j.value for j in cfg.joints],
        "sides": [s.value for s in cfg.sides],
        "wavelet": {
            "nu0": cfg.morlet.nu0,
            "truncation_radius": cfg.morlet.truncation_radius,
            "boundary": cfg.boundary.value,
            "scales": [float(s) for s in cfg.scales.scales],
        },
        "features": {
            "level": cfg.level.value,
            "zscore": cfg.zscore,
        },
        "som": {
            "rows": cfg.som_rows,
            "cols": cfg.som_cols,
            "epochs": cfg.schedule.epochs,
            "alpha0": cfg.schedule.alpha0,
            "sigma0": cfg.schedule.sigma0,
            "sigma_end": cfg.schedule.sigma_end,
            "kernel": cfg.schedule.kernel.value,
            "init": cfg.schedule.init.value,
            "rng_seed": cfg.schedule.rng_seed,
        },
        "cluster_threshold": cfg.cluster_threshold,
        "write_pgm": cfg.write_pgm,
        "loocv": cfg.loocv,
    }


def load_document(path) -> dict:
    """The JSON object of a run-config file, not yet validated."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


def load_config(path, seed_override: int | None = None) -> RunConfig:
    doc = load_document(path)
    if seed_override is not None:
        # sections with rng_seed: null derive their seed from this value
        doc["seed"] = seed_override
    return config_from_dict(doc)


def write_resolved_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
