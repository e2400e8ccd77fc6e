"""Declarative run configuration.

A single JSON document holds every stage's parameters. Each section of it
is declared once below, as a table of key -> (JSON kind, default); one
reader checks a section against its table, so a bad config fails before
any computation starts and the error names the dotted key. The fully
resolved form (all defaults and derived seeds filled in) is echoed back as
JSON into the output directory for reproducibility checks.
`config_from_dict` gives a RunConfig, which names at most one input
source.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping

from .data import CP_DP, ClassLabel, Joint, Side
from .features import N_SCALE_SAMPLES, Level
from .som import LARGEST_SIGMA0, InitMode, Kernel, TrainSchedule, _schedule_to_dict
from .synth import DEFAULT_TEMPLATE, GaitRegion, PerturbationSpec, SynthSpec
from .wavelet import (
    DEFAULT_SCALE_COUNT,
    DEFAULT_SCALE_MAX,
    DEFAULT_SCALE_MIN,
    LARGEST_SCALE,
    LARGEST_TRUNCATION_RADIUS,
    Boundary,
    MorletParams,
    ScaleGrid,
)


class ConfigError(ValueError):
    pass


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# The JSON kinds a key can take, as error messages name them.
INTEGER, NUMBER, STRING, BOOLEAN = "an integer", "a number", "a string", "a boolean"
STRINGS, OBJECT = "a list of strings", "an object"
SCALES = "an object or a list of numbers"
_IS_KIND = {
    INTEGER: _is_int,
    NUMBER: _is_number,
    STRING: lambda v: isinstance(v, str),
    BOOLEAN: lambda v: isinstance(v, bool),
    STRINGS: lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    OBJECT: lambda v: isinstance(v, dict),
    SCALES: lambda v: isinstance(v, dict) or (isinstance(v, list) and all(map(_is_number, v))),
}

# Each section: key -> (kind, default) or, for a value that sizes the
# work, (kind, default, largest value). A null default means the value is
# derived (the comment says from what) and is the only place null is
# accepted. A key that maps onto a field of a library type takes that
# field's default. The largest values lie far above any experiment's and
# keep each stage finite; the wavelet's and sigma0's are those of their
# library types. A SOM map of n nodes trains on (n, n) tables: 64x64 needs
# about 400 MB.
CONFIG = {
    "seed": (INTEGER, 0),
    "input_csv": (STRING, None),
    "input_json": (STRING, None),
    "synth": (OBJECT, None),           # no synthetic input
    "joints": (STRINGS, ["Hip"]),
    "sides": (STRINGS, ["Right", "Left"]),
    "wavelet": (OBJECT, None),         # every wavelet default
    "features": (OBJECT, None),        # every features default
    "som": (OBJECT, None),             # every som default
    "cluster_threshold": (NUMBER, None),  # 60th percentile of the U-Matrix heights
    "write_pgm": (BOOLEAN, True),
    "loocv": (BOOLEAN, True),
}
SYNTH = {
    "n_subjects": (INTEGER, 10, 100_000),
    "rng_seed": (INTEGER, None),       # seed
    "template": (OBJECT, None),        # synth.DEFAULT_TEMPLATE
    "pathology": (OBJECT, None),       # shorthand for a one-entry groups
    "pathology_label": (STRING, None),  # CP-dp, the label of pathology
    "groups": (OBJECT, None),          # no groups
    "include_normal": (BOOLEAN, SynthSpec.include_normal),
    "normal_jitter_sd": (NUMBER, None),  # jitter_sd of the first group
}
PERTURBATION = {
    "hf_amplitude": (NUMBER, PerturbationSpec.hf_amplitude),
    "hf_phase_region": (STRING, PerturbationSpec.hf_phase_region.value),
    "asymmetry_gain": (NUMBER, PerturbationSpec.asymmetry_gain),
    "timing_shift": (NUMBER, PerturbationSpec.timing_shift),
    "jitter_sd": (NUMBER, PerturbationSpec.jitter_sd),
}
WAVELET = {
    "nu0": (NUMBER, MorletParams.nu0),
    "truncation_radius": (NUMBER, MorletParams.truncation_radius, LARGEST_TRUNCATION_RADIUS),
    "boundary": (STRING, Boundary.ZERO.value),
    "scales": (SCALES, None),          # the object's defaults
}
SCALE_RANGE = {
    "count": (INTEGER, DEFAULT_SCALE_COUNT, 1000),
    "min": (NUMBER, DEFAULT_SCALE_MIN),
    "max": (NUMBER, DEFAULT_SCALE_MAX, LARGEST_SCALE),
}
FEATURES = {
    "level": (STRING, Level.HIGH_SCALE.value),
    "zscore": (BOOLEAN, False),
}
SOM = {
    "rows": (INTEGER, 10, 64),
    "cols": (INTEGER, 10, 64),
    "epochs": (INTEGER, TrainSchedule.epochs, 100_000),
    "alpha0": (NUMBER, TrainSchedule.alpha0),
    "sigma0": (NUMBER, None, LARGEST_SIGMA0),  # max(rows, cols) / 2
    "sigma_end": (NUMBER, TrainSchedule.sigma_end),
    "kernel": (STRING, TrainSchedule.kernel.value),
    "init": (STRING, TrainSchedule.init.value),
    "rng_seed": (INTEGER, None),       # seed
}


def _json_type(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, list):
        return "an array"
    return next(kind for kind in (BOOLEAN, OBJECT, STRING, NUMBER) if _IS_KIND[kind](value))


def _float(value: int | float, key: str) -> float:
    """A JSON number as a finite float. An integer beyond the float range,
    and an infinite or NaN float (JSON 1e400, or the NaN and Infinity
    tokens Python's json reads), are errors that name key."""
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"{key}: must be a number within the float range") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {value}")
    return value


def _largest(value, most, key: str):
    if value > most:
        raise ConfigError(f"{key}: must be <= {most}, got {value}")
    return value


def _read(doc: Any, schema: Mapping[str, tuple], where: str) -> dict:
    """doc, which must be a JSON object with no key outside schema, as a
    dict of every schema key: its value, checked against its kind and
    largest value (a number first converted with _float), or its default.
    where is the dotted path of doc, "" at the top level."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where or 'config'}: must be an object, got {_json_type(doc)}")
    unknown = set(doc) - set(schema)
    if unknown:
        raise ConfigError(f"{where or 'config'}: unknown keys {sorted(unknown)}")
    out = {}
    for key, (kind, default, *most) in schema.items():
        value = doc.get(key, default)
        if value is None and default is None:
            out[key] = None
            continue
        dotted = f"{where}{'.' if where else ''}{key}"
        if not _IS_KIND[kind](value):
            got = _json_type(value) if kind is OBJECT else json.dumps(value)
            raise ConfigError(f"{dotted}: must be {kind}, got {got}")
        if kind is NUMBER:
            value = _float(value, dotted)
        out[key] = _largest(value, most[0], dotted) if most else value
    return out


def _member(kind, value: str, key: str):
    """The member of the enum (or value class) `kind` named by value."""
    try:
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _build(cls, prefix: str, **kwargs):
    """cls(**kwargs), its range errors prefixed with prefix."""
    try:
        return cls(**kwargs)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _perturbation(doc: Any, where: str) -> PerturbationSpec:
    p = _read(doc, PERTURBATION, where)
    p["hf_phase_region"] = _member(GaitRegion, p["hf_phase_region"], f"{where}.hf_phase_region")
    return _build(PerturbationSpec, f"{where}: ", **p)


def _template(doc: Mapping[str, Any], where: str) -> dict:
    template = {}
    for joint_name, harmonics in doc.items():
        joint = _member(Joint, joint_name, where)
        if not isinstance(harmonics, list) or not all(
            isinstance(t, list) and len(t) == 3 and _is_int(t[0]) and all(map(_is_number, t[1:]))
            for t in harmonics
        ):
            raise ConfigError(f"{where}.{joint_name}: must be a list of [harmonic, amplitude, phase]")
        key = f"{where}.{joint_name}"
        template[joint] = tuple((h, _float(a, key), _float(p, key)) for h, a, p in harmonics)
    return template


def _seed(own: int | None, key: str, seed: int) -> int:
    """A section's RNG seed: its own rng_seed, at the dotted key, or else
    the top-level seed. numpy takes only seeds >= 0, and the error names
    the key the value came from."""
    value, key = (seed, "seed") if own is None else (own, key)
    if value < 0:
        raise ConfigError(f"{key}: must be >= 0, got {value}")
    return value


def _synth(doc: Any, seed: int) -> SynthSpec:
    s = _read(doc, SYNTH, "synth")
    if s["pathology"] is not None and s["groups"] is not None:
        raise ConfigError("synth: give either pathology or groups, not both")
    groups = {}
    if s["groups"] is not None:
        for label_text, pdoc in s["groups"].items():
            where = f"synth.groups[{label_text}]"
            groups[_member(ClassLabel, label_text, where)] = _perturbation(pdoc, where)
    elif s["pathology"] is not None:
        label = CP_DP if s["pathology_label"] is None else _member(
            ClassLabel, s["pathology_label"], "synth.pathology_label")
        groups[label] = _perturbation(s["pathology"], "synth.pathology")
    return _build(
        SynthSpec,
        "synth.",
        n_subjects=s["n_subjects"],
        rng_seed=_seed(s["rng_seed"], "synth.rng_seed", seed),
        template=DEFAULT_TEMPLATE if s["template"] is None else _template(s["template"], "synth.template"),
        groups=groups,
        include_normal=s["include_normal"],
        normal_jitter_sd=s["normal_jitter_sd"],
    )


def _scales(value: Any) -> ScaleGrid:
    """The scale grid, of at least the N_SCALE_SAMPLES scales a feature
    level samples."""
    if value is None or isinstance(value, dict):
        r = _read(value or {}, SCALE_RANGE, "wavelet.scales")
        if r["count"] < N_SCALE_SAMPLES:
            raise ConfigError(f"wavelet.scales.count: must be >= {N_SCALE_SAMPLES}, got {r['count']}")
        return _build(ScaleGrid.default, "wavelet.scales: ", count=r["count"], lo=r["min"], hi=r["max"])
    key = "wavelet.scales"
    scales = [_largest(_float(v, key), LARGEST_SCALE, key) for v in value]
    if len(scales) < N_SCALE_SAMPLES:
        raise ConfigError(f"{key}: must hold at least {N_SCALE_SAMPLES} scales, got {len(scales)}")
    return _build(ScaleGrid, f"{key}: ", scales=scales)


def _distinct(kind, values: list[str], key: str) -> tuple:
    """The members of the enum `kind` named by values, none named twice."""
    if not values:
        raise ConfigError(f"{key}: must be non-empty")
    if len(set(values)) < len(values):
        raise ConfigError(f"{key}: must not repeat a value, got {json.dumps(values)}")
    return tuple(_member(kind, v, key) for v in values)


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run and its input source, if it names one."""

    seed: int
    joints: tuple[Joint, ...]
    sides: tuple[Side, ...]
    morlet: MorletParams
    scales: ScaleGrid
    boundary: Boundary
    level: Level
    zscore: bool
    som_rows: int
    som_cols: int
    schedule: TrainSchedule
    cluster_threshold: float | None
    write_pgm: bool
    loocv: bool
    input_csv: str | None
    input_json: str | None
    synth: SynthSpec | None


def config_from_dict(doc: Mapping[str, Any]) -> RunConfig:
    """A run-config document, validated in full. It names at most one input
    source; the stage that reads one checks that it is there."""
    top = _read(doc, CONFIG, "")
    seed = top["seed"]
    synth = None if top["synth"] is None else _synth(top["synth"], seed)
    if synth is not None and top["loocv"] and len(synth.groups) + synth.include_normal < 2:
        raise ConfigError("loocv: leave-one-out needs 2 classes, and synth generates 1")
    w = _read(top["wavelet"] or {}, WAVELET, "wavelet")
    f = _read(top["features"] or {}, FEATURES, "features")
    s = _read(top["som"] or {}, SOM, "som")
    joints = _distinct(Joint, top["joints"], "joints")
    sides = _distinct(Side, top["sides"], "sides")
    schedule = _build(
        TrainSchedule,
        "som: ",
        epochs=s["epochs"],
        alpha0=s["alpha0"],
        sigma0=s["sigma0"],
        sigma_end=s["sigma_end"],
        kernel=_member(Kernel, s["kernel"], "som.kernel"),
        rng_seed=_seed(s["rng_seed"], "som.rng_seed", seed),
        init=_member(InitMode, s["init"], "som.init"),
    )
    schedule = _build(schedule.resolve, "som: ", rows=s["rows"], cols=s["cols"])
    cfg = RunConfig(
        seed=seed,
        joints=joints,
        sides=sides,
        morlet=_build(MorletParams, "wavelet: ", nu0=w["nu0"], truncation_radius=w["truncation_radius"]),
        scales=_scales(w["scales"]),
        boundary=_member(Boundary, w["boundary"], "wavelet.boundary"),
        level=_member(Level, f["level"], "features.level"),
        zscore=f["zscore"],
        som_rows=s["rows"],
        som_cols=s["cols"],
        schedule=schedule,
        cluster_threshold=top["cluster_threshold"],
        write_pgm=top["write_pgm"],
        loocv=top["loocv"],
        input_csv=top["input_csv"],
        input_json=top["input_json"],
        synth=synth,
    )
    if sum(x is not None for x in (cfg.input_csv, cfg.input_json, cfg.synth)) > 1:
        raise ConfigError("config must name exactly one input source")
    return cfg


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
                lab.value: dict(vars(p), hf_phase_region=p.hf_phase_region.value)
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
        "som": {"rows": cfg.som_rows, "cols": cfg.som_cols, **_schedule_to_dict(cfg.schedule)},
        "cluster_threshold": cfg.cluster_threshold,
        "write_pgm": cfg.write_pgm,
        "loocv": cfg.loocv,
    }


def load_document(path) -> dict:
    """The JSON object of a run-config file, not yet validated."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            # also an integer literal over sys.get_int_max_str_digits()
            # digits, which json.load raises as a plain ValueError
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
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
