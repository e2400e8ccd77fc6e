import dataclasses
import importlib.util
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitsig.config import (
    CONFIG,
    FEATURES,
    LARGEST_SCALE,
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
    write_resolved_config,
)
from gaitsig.data import CP_DP, CP_LH, CP_RH, ClassLabel, Joint
from gaitsig.features import N_SCALE_SAMPLES, Level
from gaitsig.pipeline import run_pipeline
from gaitsig.som import SMALLEST_GAUSSIAN_SIGMA_END, InitMode, Kernel, TrainSchedule, best_match
from gaitsig.synth import MAX_TEMPLATE_HARMONIC, GaitRegion, _slug
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


def slug(text):
    """The subject-id prefix synth gives the class named text."""
    return _slug(ClassLabel(text))


seeds = st.integers(0, 2**32 - 1)
# a group may not take the subject ids of the Normal class or of another group
labels = st.one_of(st.sampled_from(["CP-dp", "CP-lh", "Polio"]), st.text(min_size=1, max_size=6)).filter(
    lambda text: slug(text) != "normal")
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
    st.fixed_dictionaries({}, optional={
        "count": st.integers(N_SCALE_SAMPLES, 30), "min": numbers(0.5, 2), "max": numbers(3, 40)}),
    st.lists(numbers(0.1, 50), min_size=N_SCALE_SAMPLES, max_size=12, unique=True).map(sorted),
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
        doc["groups"] = draw(st.dictionaries(labels, perturbations, min_size=1, max_size=3).filter(
            lambda groups: len(set(map(slug, groups))) == len(groups)))
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
        "joints": st.lists(names(Joint), min_size=1, max_size=3, unique=True),
        "sides": st.lists(st.sampled_from(["Right", "Left"]), min_size=1, max_size=2, unique=True),
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
    if source == "synth" and synth_classes(doc["synth"]) < 2:
        doc["loocv"] = False  # leave-one-out needs 2 classes
    return doc


def synth_classes(synth):
    """The number of classes a synth section generates."""
    return len(synth.get("groups", {})) + ("pathology" in synth) + synth.get("include_normal", True)


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
    "features": FEATURES,
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
        config_from_dict(nested(key, value))
    assert str(err.value) == f"{key}: must be finite, got {value}"


@pytest.mark.parametrize("doc, message", [
    ({"synth": {"template": {"Knee": [[1, math.inf, 0.0]]}}}, "synth.template.Knee: must be finite, got inf"),
    ({"synth": {"template": {"Hip": [[2, 1.0, math.nan]]}}}, "synth.template.Hip: must be finite, got nan"),
    ({"wavelet": {"scales": [1.0, math.inf]}}, "wavelet.scales: must be finite, got inf"),
    ({"wavelet": {"scales": [-math.inf, 2]}}, "wavelet.scales: must be finite, got -inf"),
], ids=["amplitude", "phase", "scales", "scales-negative"])
def test_listed_numbers_must_be_finite(doc, message):
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
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


@pytest.mark.parametrize("doc, message", [
    ({"wavelet": {"scales": {"count": 7}}}, "wavelet.scales.count: must be >= 8, got 7"),
    ({"wavelet": {"scales": {"count": 1}}}, "wavelet.scales.count: must be >= 8, got 1"),
    ({"wavelet": {"scales": [1, 2, 3, 4, 5, 6, 7]}}, "wavelet.scales: must hold at least 8 scales, got 7"),
    ({"wavelet": {"scales": [1]}}, "wavelet.scales: must hold at least 8 scales, got 1"),
    ({"wavelet": {"scales": [1, 1e7]}}, "wavelet.scales: must be <= 200, got 10000000.0"),
    ({"som": {"sigma_end": 1e-100}}, "som: sigma_end must be >= 1e-06 with the Gaussian kernel, got 1e-100"),
    ({"som": {"sigma_end": 1e-300}}, "som: sigma_end must be >= 1e-06 with the Gaussian kernel, got 1e-300"),
    ({"joints": ["Hip", "Knee", "Hip"]}, 'joints: must not repeat a value, got ["Hip", "Knee", "Hip"]'),
    ({"sides": ["Right", "Right"]}, 'sides: must not repeat a value, got ["Right", "Right"]'),
    ({"sides": []}, "sides: must be non-empty"),
    ({"som": {"rows": 1, "cols": 1}}, "som: the map needs at least 2 nodes, got 1x1"),
], ids=["count-7", "count-1", "list-7", "list-1", "list-value-first", "sigma-end", "sigma-end-tiny",
        "joints", "sides", "sides-empty", "one-node"])
def test_settings_a_stage_cannot_run_name_the_key(doc, message):
    # each passed the config and then failed in a stage, or named no key
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert str(err.value) == message


def test_init_default_is_the_library_schedule_default():
    assert SOM["init"][1] == TrainSchedule().init.value
    assert config_from_dict({}).schedule.init is TrainSchedule().init is InitMode.SAMPLE_INIT


def test_bubble_kernel_takes_any_sigma_end():
    assert config_from_dict({"som": {"kernel": "Bubble", "sigma_end": 0}}).schedule.sigma_end == 0.0


@pytest.mark.parametrize("sigma0", [1e6, 500.0, 5.0, 1e-6])
def test_last_epoch_sigma_stays_positive_within_the_bounds(sigma0):
    # the Gaussian kernel divides by 2*sigma**2, which must not be 0
    schedule = config_from_dict({"som": {"sigma0": sigma0, "sigma_end": 1e-6, "epochs": 7}}).schedule
    last = schedule.sigma(schedule.epochs - 1)
    assert 2.0 * last * last > 0


@pytest.mark.parametrize("synth, message", [
    ({"pathology": {}, "pathology_label": "Normal"},
     "synth.groups: group 'Normal' would reuse the subject ids normal-NNN of the Normal class of include_normal"),
    ({"groups": {"Polio": {}, "polio": {}}}, "synth.groups: group 'polio' would reuse the subject ids polio-NNN of group 'Polio'"),
    ({"include_normal": True}, "loocv: leave-one-out needs 2 classes, and synth generates 1"),
    ({"pathology": {}, "include_normal": False}, "loocv: leave-one-out needs 2 classes, and synth generates 1"),
], ids=["normal-label", "same-ids", "normal-only", "pathology-only"])
def test_synth_classes_a_run_cannot_use_name_the_key(synth, message):
    with pytest.raises(ConfigError) as err:
        config_from_dict({"synth": synth})
    assert str(err.value) == message


def test_one_class_synth_accepted_without_loocv():
    cfg = config_from_dict({"synth": {"pathology": {}, "include_normal": False}, "loocv": False})
    assert list(cfg.synth.groups) == [CP_DP] and not cfg.synth.include_normal


# In-range values of every scalar key of the schema tables at the sizes of
# a tiny run, by dotted key: at the new bounds too, and a few values past
# what the config accepts. Synth values keep every angle within 180
# degrees. The keys that size the work are always drawn.
TINY = {
    "seed": seeds,
    "input_csv": st.none(),
    "input_json": st.none(),
    "joints": st.lists(names(Joint), min_size=1, max_size=3, unique=True),
    "sides": st.lists(st.sampled_from(["Right", "Left"]), min_size=1, max_size=2, unique=True),
    "cluster_threshold": st.one_of(st.none(), numbers(0, 2)),
    "write_pgm": st.booleans(),
    "loocv": st.booleans(),
    "synth.n_subjects": st.integers(1, 3),
    "synth.rng_seed": st.one_of(st.none(), seeds),
    "synth.pathology_label": st.one_of(st.none(), st.sampled_from(["CP-dp", "Polio"])),
    "synth.include_normal": st.booleans(),
    "synth.normal_jitter_sd": st.one_of(st.none(), numbers(0, 0.5)),
    "synth.pathology.hf_amplitude": numbers(0, 5),
    "synth.pathology.hf_phase_region": names(GaitRegion),
    "synth.pathology.asymmetry_gain": numbers(0.5, 2),
    "synth.pathology.timing_shift": numbers(0, 100),
    "synth.pathology.jitter_sd": numbers(0, 0.5),
    "wavelet.nu0": numbers(0.81, 3),
    "wavelet.truncation_radius": st.one_of(numbers(3, 10), st.just(WAVELET["truncation_radius"][2])),
    "wavelet.boundary": names(Boundary),
    "wavelet.scales.count": st.integers(N_SCALE_SAMPLES - 1, 12),
    "wavelet.scales.min": numbers(0.1, 2),
    "wavelet.scales.max": st.one_of(numbers(3, LARGEST_SCALE), st.just(LARGEST_SCALE)),
    "features.level": names(Level),
    "features.zscore": st.booleans(),
    "som.rows": st.integers(1, 3),
    "som.cols": st.integers(1, 3),
    "som.epochs": st.integers(1, 3),
    "som.alpha0": numbers(0, 1),
    "som.sigma0": st.one_of(st.none(), numbers(1, 10), st.just(SOM["sigma0"][2])),
    "som.sigma_end": st.one_of(numbers(SMALLEST_GAUSSIAN_SIGMA_END, 1), st.just(SMALLEST_GAUSSIAN_SIGMA_END)),
    "som.kernel": names(Kernel),
    "som.init": names(InitMode),
    "som.rng_seed": st.one_of(st.none(), seeds),
}
SIZES = {"synth.n_subjects", "som.rows", "som.cols", "som.epochs"}
# Object keys the property leaves out; synth.groups is drawn as pathology.
UNDRAWN = {"synth", "wavelet", "features", "som", "synth.template", "synth.pathology", "synth.groups",
           "wavelet.scales"}
SECTION_KEYS = {
    f"{where}{'.' if where else ''}{key}" for where, table in SECTION_PATHS.items() for key in table
}


def test_tiny_values_cover_every_key():
    assert set(TINY) | UNDRAWN == SECTION_KEYS


@st.composite
def tiny_documents(draw):
    """Run-config documents of at most 3 subjects per class, a 3x3 map and
    3 epochs, over every scalar key, with a synth input."""
    doc = {"synth": {"pathology": {}}}
    for key, values in TINY.items():
        if key in SIZES or draw(st.booleans()):
            *sections, name = key.split(".")
            node = doc
            for section in sections:
                node = node.setdefault(section, {})
            node[name] = draw(values)
    if draw(st.booleans()):
        doc.setdefault("wavelet", {})["scales"] = draw(st.lists(
            numbers(0.1, LARGEST_SCALE), min_size=N_SCALE_SAMPLES, max_size=12, unique=True).map(sorted))
    return doc


def names_a_key(message):
    """Whether message starts with a key of the document (a section or a
    dotted key; a group's [label] is dropped), then ": "."""
    key = re.sub(r"\[[^\]]*\]", "", message.split(": ", 1)[0])
    return key in SECTION_KEYS


@settings(max_examples=20, deadline=None)
@given(doc=tiny_documents())
def test_whatever_the_config_accepts_every_stage_runs(doc):
    try:
        cfg = config_from_dict(doc)
    except ConfigError as exc:
        assert names_a_key(str(exc)), str(exc)
        return
    with tempfile.TemporaryDirectory() as out:
        run_pipeline(cfg, out)
        assert not (Path(out) / "FAILED").exists()
