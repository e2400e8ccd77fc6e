import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitsig.config import (
    CONFIG,
    FEATURES,
    NUMBER,
    OBJECT,
    PERTURBATION,
    SCALE_RANGE,
    SOM,
    SYNTH,
    WAVELET,
    ConfigError,
    config_from_dict,
    config_to_dict,
    load_config,
    load_document,
    settings_from_dict,
    write_resolved_config,
)
from gaitsig.data import CP_DP, CP_LH, CP_RH, Joint
from gaitsig.features import Level
from gaitsig.pipeline import run_pipeline
from gaitsig.som import InitMode, Kernel, best_match
from gaitsig.synth import MAX_TEMPLATE_HARMONIC, GaitRegion
from gaitsig.wavelet import Boundary

from test_acceptance import (
    LATERALITY_SCHEDULE,
    LATERALITY_SIDES,
    LATERALITY_SPEC,
    MAP_DIMS,
    NVS_SCHEDULE,
    NVS_SIDES,
    NVS_SPEC,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS, SCRIPTS = ROOT / "configs", ROOT / "scripts"


def numbers(lo, hi):
    """JSON numbers in [lo, hi]: integers and floats."""
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)), st.floats(lo, hi))


def names(enum):
    return st.sampled_from([m.value for m in enum])


seeds = st.integers(0, 2**32 - 1)
labels = st.one_of(st.sampled_from(["CP-dp", "CP-lh", "Polio"]), st.text(min_size=1, max_size=6))
perturbations = st.fixed_dictionaries({}, optional={
    "hf_amplitude": numbers(0, 10),
    "hf_phase_region": names(GaitRegion),
    "asymmetry_gain": numbers(0.1, 10),
    "timing_shift": numbers(0, 20),
    "jitter_sd": numbers(0, 2),
})
templates = st.dictionaries(
    names(Joint),
    st.lists(st.tuples(st.integers(0, MAX_TEMPLATE_HARMONIC), numbers(-30, 30), numbers(-4, 4)).map(list),
             max_size=3),
)
scales = st.one_of(
    st.none(),
    st.fixed_dictionaries({}, optional={"count": st.integers(2, 30), "min": numbers(0.5, 2), "max": numbers(3, 40)}),
    st.lists(numbers(0.1, 50), min_size=1, max_size=12, unique=True).map(sorted),
)


@st.composite
def synth_sections(draw):
    doc = draw(st.fixed_dictionaries({"n_subjects": st.integers(1, 50)}, optional={
        "rng_seed": st.one_of(st.none(), seeds),
        "template": st.one_of(st.none(), templates),
        "include_normal": st.booleans(),
        "normal_jitter_sd": st.one_of(st.none(), numbers(0, 2)),
    }))
    form = draw(st.sampled_from(["pathology", "groups", "normal"]))
    if form == "pathology":
        doc["pathology"] = draw(perturbations)
        if draw(st.booleans()):
            doc["pathology_label"] = draw(labels)
    elif form == "groups":
        doc["groups"] = draw(st.dictionaries(labels, perturbations, min_size=1, max_size=3))
    else:
        doc["include_normal"] = True
    return doc


@st.composite
def som_sections(draw):
    doc = draw(st.fixed_dictionaries({}, optional={
        "rows": st.integers(1, 12),
        "cols": st.integers(1, 12),
        "epochs": st.integers(1, 500),
        "alpha0": numbers(0, 1),
        "kernel": names(Kernel),
        "init": names(InitMode),
        "rng_seed": st.one_of(st.none(), seeds),
    }))
    rows, cols = doc.get("rows", SOM["rows"][1]), doc.get("cols", SOM["cols"][1])
    if rows * cols < 2:
        doc["cols"] = cols = 2
    if draw(st.booleans()):
        doc["sigma_end"] = draw(numbers(0.01, 1))
    if draw(st.booleans()):
        doc["sigma0"] = doc.get("sigma_end", SOM["sigma_end"][1]) + draw(numbers(0, 5))
    return doc


@st.composite
def documents(draw):
    """Correctly typed run-config documents with values in range."""
    doc = draw(st.fixed_dictionaries({}, optional={
        "seed": seeds,
        "joints": st.lists(names(Joint), min_size=1, max_size=3),
        "sides": st.lists(st.sampled_from(["Right", "Left"]), min_size=1, max_size=2),
        "wavelet": st.one_of(st.none(), st.fixed_dictionaries({}, optional={
            "nu0": numbers(0.81, 3),
            "truncation_radius": numbers(3, 8),
            "boundary": names(Boundary),
            "scales": scales,
        })),
        "features": st.one_of(st.none(), st.fixed_dictionaries({}, optional={
            "level": names(Level), "zscore": st.booleans()})),
        "som": st.one_of(st.none(), som_sections()),
        "cluster_threshold": st.one_of(st.none(), numbers(0, 10)),
        "write_pgm": st.booleans(),
        "loocv": st.booleans(),
    }))
    source = draw(st.sampled_from(["input_csv", "input_json", "synth"]))
    doc[source] = draw(synth_sections()) if source == "synth" else "data." + source[6:]
    return doc


def number_keys_hold_floats(values, table):
    # an integer given for a number key is echoed as a float: 1 as 1.0
    for key, (kind, *_) in table.items():
        assert kind is not NUMBER or values[key] is None or type(values[key]) is float, key


@settings(max_examples=200, deadline=None)
@given(doc=documents())
def test_resolved_config_is_a_fixed_point(doc):
    resolved = config_to_dict(config_from_dict(doc))
    echoed = json.loads(json.dumps(resolved, sort_keys=True))  # as resolved_config.json holds it
    assert config_to_dict(config_from_dict(echoed)) == resolved
    for section, table in ((None, CONFIG), ("wavelet", WAVELET), ("som", SOM)):
        number_keys_hold_floats(resolved if section is None else resolved[section], table)
    for group in (resolved["synth"] or {"groups": {}})["groups"].values():
        number_keys_hold_floats(group, PERTURBATION)


def test_omitted_keys_resolve_to_the_table_defaults():
    resolved = config_to_dict(config_from_dict({"input_csv": "data.csv"}))
    for section, table in ((None, CONFIG), ("wavelet", WAVELET), ("features", FEATURES), ("som", SOM)):
        values = resolved if section is None else resolved[section]
        for key, (kind, default, *_) in table.items():
            if default is not None and kind is not OBJECT:
                assert values[key] == default, (section, key)
    pathology = config_to_dict(config_from_dict({"synth": {"pathology": {}}}))["synth"]["groups"]
    assert pathology == {"CP-dp": {key: default for key, (_, default) in PERTURBATION.items()}}


# Where each table's section sits in a run-config document.
SECTION_PATHS = {
    "": CONFIG,
    "synth": SYNTH,
    "synth.pathology": PERTURBATION,
    "wavelet": WAVELET,
    "wavelet.scales": SCALE_RANGE,
    "som": SOM,
}
NUMBER_KEYS = [
    f"{where}{'.' if where else ''}{key}"
    for where, table in SECTION_PATHS.items()
    for key, (kind, *_) in table.items()
    if kind is NUMBER
]


def nested(dotted, value):
    """The document that holds value at the dotted key."""
    *sections, key = dotted.split(".")
    doc = {key: value}
    for section in reversed(sections):
        doc = {section: doc}
    return doc


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("key", NUMBER_KEYS)
def test_every_number_key_must_be_finite(key, value):
    with pytest.raises(ConfigError) as err:
        settings_from_dict(nested(key, value))
    assert str(err.value) == f"{key}: must be finite, got {value}"


@pytest.mark.parametrize("doc, message", [
    ({"synth": {"template": {"Knee": [[1, math.inf, 0.0]]}}}, "synth.template.Knee: must be finite, got inf"),
    ({"synth": {"template": {"Hip": [[2, 1.0, math.nan]]}}}, "synth.template.Hip: must be finite, got nan"),
    ({"wavelet": {"scales": [1.0, math.inf]}}, "wavelet.scales: must be finite, got inf"),
    ({"wavelet": {"scales": [-math.inf, 2]}}, "wavelet.scales: must be finite, got -inf"),
], ids=["amplitude", "phase", "scales", "scales-negative"])
def test_listed_numbers_must_be_finite(doc, message):
    with pytest.raises(ConfigError) as err:
        settings_from_dict(doc)
    assert str(err.value) == message


def test_resolved_config_written_as_standard_json(tmp_path):
    cfg = config_from_dict({"input_csv": "data.csv"})
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_resolved_config(dataclasses.replace(cfg, cluster_threshold=math.nan), tmp_path / "c.json")


# Each shipped config and the acceptance test's synth spec, schedule and
# sides it must resolve to (C09, C10); both use the hip on a 10x10 map and
# _hip_vectors' default level, HighScale.
EXPERIMENTS = {
    "normal_vs_spastic": (NVS_SPEC, NVS_SCHEDULE, NVS_SIDES),
    "laterality": (LATERALITY_SPEC, LATERALITY_SCHEDULE, LATERALITY_SIDES),
}


def test_experiments_cover_every_config():
    assert {p.stem for p in CONFIGS.glob("*.json")} == set(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_shipped_config_parses(name):
    cfg = load_config(CONFIGS / f"{name}.json")
    assert cfg.synth is not None and cfg.seed == EXPERIMENTS[name][0].rng_seed
    resolved = config_to_dict(cfg)
    assert config_to_dict(config_from_dict(resolved)) == resolved


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_shipped_config_matches_its_acceptance_test(name):
    spec, schedule, sides = EXPERIMENTS[name]
    cfg = load_config(CONFIGS / f"{name}.json")
    assert cfg.synth == spec
    assert cfg.schedule == schedule.resolve(*MAP_DIMS)
    assert (cfg.som_rows, cfg.som_cols) == MAP_DIMS
    assert cfg.joints == (Joint.HIP,) and cfg.sides == sides
    assert cfg.level is Level.HIGH_SCALE


def test_laterality_reader_prints_the_run_geometry(tmp_path, capsys):
    doc = load_document(CONFIGS / "laterality.json")
    doc["synth"]["n_subjects"] = 3
    doc["som"] = {"rows": 4, "cols": 4, "epochs": 5, "init": "SampleInit"}
    doc["write_pgm"] = doc["loocv"] = False
    result = run_pipeline(config_from_dict(doc), tmp_path)
    nodes = {}
    for v in result.vectors:
        nodes.setdefault(v.label, []).append(best_match(result.som, v.values))
    c = {label: result.som.grid_coords()[n].mean(axis=0) for label, n in nodes.items()}
    axis = c[CP_RH] - c[CP_LH]
    t = float((c[CP_DP] - c[CP_LH]) @ axis / (axis @ axis))
    assert math.isfinite(t)

    spec = importlib.util.spec_from_file_location("laterality_geometry", SCRIPTS / "laterality_geometry.py")
    reader = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reader)
    assert reader.main(tmp_path) == 0
    assert f"along the left-right axis: t = {t:.3f} " in capsys.readouterr().out
