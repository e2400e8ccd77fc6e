import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitsig import features, pipeline, wavelet
from gaitsig.cli import SETTING_FLAGS, build_parser, main
from gaitsig.config import (
    CONFIG,
    FEATURES,
    PERTURBATION,
    SOM,
    SYNTH,
    WAVELET,
    ConfigError,
    config_from_dict,
    load_config,
)
from gaitsig.data import ClassLabel, Joint, Side, ingest_csv, write_csv
from gaitsig.evaluate import EvalReport
from gaitsig.features import read_features_csv
from gaitsig.pipeline import RUN_ARTIFACTS, scalogram_stem
from gaitsig.som import TrainSchedule

from oracles import reference_best_match, same_partition, union_find_components


def small_config(**overrides):
    doc = {
        "seed": 7,
        "synth": {
            "n_subjects": 4,
            "pathology": {
                "hf_amplitude": 5.0,
                "hf_phase_region": "Stance",
                "jitter_sd": 0.5,
            },
            "pathology_label": "CP-dp",
        },
        "joints": ["Hip"],
        "sides": ["Right"],
        "som": {"rows": 4, "cols": 4, "epochs": 30},
        "write_pgm": True,
        "loocv": True,
    }
    doc.update(overrides)
    return doc


# Settings the stagewise chain must reproduce; None runs the benchmark's
# chain: cwt and features without a config, train and eval on --epochs
# and --seed alone.
STAGEWISE_CASES = {
    "flags": None,
    "default": {},
    "zscore": {"features": {"zscore": True}},
    "bubble": {"som": {"kernel": "Bubble"}},
    "random_small": {"som": {"init": "RandomSmall"}},
    "alpha_sigma": {"som": {"alpha0": 0.3, "sigma0": 3.0, "sigma_end": 1.0}},
}


EVERY_PART = {"joints": ["Hip", "Knee", "Ankle"], "sides": ["Right", "Left"]}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def write_vectors(path, ids, labels):
    """features.csv of one random hip vector of 160 values per id; a label
    None leaves the subject unlabeled."""
    rng = np.random.default_rng(0)
    matrix = features.FeatureMatrix(values=[rng.uniform(0, 1, 160) for _ in ids], subject_ids=ids,
                                    labels=[label and ClassLabel(label) for label in labels],
                                    level=features.Level.HIGH_SCALE, parts=((Joint.HIP, Side.RIGHT),))
    features.write_features_csv(matrix, path)


def train_three_vectors(tmp_path, size, *python):
    # a 1-epoch `gaitsig train` of a size x size map on 3 vectors of 160
    # values, in a child process started as `python *python train ...`;
    # returns its stdout
    write_vectors(tmp_path / "features.csv", [f"s{i}" for i in range(3)], [None] * 3)
    cfg_path = write_config(tmp_path, {"som": {"rows": size, "cols": size}})
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, *python, "train", "--features", str(tmp_path / "features.csv"),
            "--out", str(tmp_path / "out"), "--config", str(cfg_path), "--epochs", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


EXPECTED_ARTIFACTS = [
    "resolved_config.json",
    "dataset.csv",
    "features.csv",
    "som.json",
    "umatrix.csv",
    "umatrix.pgm",
    "attraction.csv",
    "clusters.csv",
    "bmus.csv",
    "eval.json",
    "eval.txt",
    "confusion.csv",
]


def write_hip_dataset(path, ids, labels) -> Path:
    """A dataset CSV of one right-hip curve per id; no id may hold a comma,
    quote or line break."""
    lines = ["subject_id,label,joint,side,pct,angle_deg"]
    for sid, label in zip(ids, labels, strict=True):
        for pct in range(101):
            lines.append(f"{sid},{label},Hip,Right,{pct}.0,{20.0 * math.sin(pct / 16.0)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_colliding_dataset(tmp_path) -> Path:
    """Two subjects whose ids differ only where one has a space and the
    other an underscore."""
    return write_hip_dataset(tmp_path / "collide.csv", ["a b", "a_b"], ["Normal", "CP-dp"])


def read_csv_rows(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def oracle_bmus(out: Path, zscore: bool = False) -> list[list[str]]:
    """bmus.csv as its rows should read: each features.csv row's first
    nearest node of the som.json weights, z-scored first with zscore."""
    with open(out / "som.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    weights = np.reshape(doc["weights"], (doc["rows"] * doc["cols"], doc["dim"]))
    rows = [["subject_id", "label", "row", "col"]]
    for sid, label, _, _, *values in read_csv_rows(out / "features.csv")[2:]:
        x = np.array(values, dtype=float)
        if zscore:
            x = (x - x.mean()) / x.std()
        row, col = divmod(reference_best_match(weights, x), doc["cols"])
        rows.append([sid, label, str(row), str(col)])
    return rows


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestRunConfig:
    def test_run_without_input_fails_before_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "--config", str(write_config(tmp_path, {"seed": 1})), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "gaitsig: error: config needs an input: input or synth\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, synth, key", [
        ("run", {"n_subjects": 2, "groups": {"\ud800": {}}}, "synth.groups[\ud800]"),
        ("synth", {"n_subjects": 2, "pathology": {}, "pathology_label": "\udfff"}, "synth.pathology_label"),
    ])
    def test_label_utf8_cannot_encode_fails_before_output(self, tmp_path, command, synth, key):
        # in a child process: stderr writes a lone surrogate as its
        # backslash escape, where pytest's captured stream would refuse it
        cfg_path = write_config(tmp_path, {"synth": synth, "loocv": False})
        out = tmp_path / "out"
        src = str(Path(pipeline.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = [sys.executable, "-m", "gaitsig", command, "--config", str(cfg_path), "--out", str(out)]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        label = synth.get("pathology_label") or next(iter(synth["groups"]))
        message = f"gaitsig: error: {key}: class label {label!r} is not valid UTF-8 text\n"
        assert (done.returncode, done.stderr) == (1, message.encode("utf-8", "backslashreplace").decode())
        assert not out.exists()

    def test_document_without_input_parses(self):
        cfg = config_from_dict({"seed": 1})
        assert (cfg.input, cfg.synth) == (None, None)

    def test_stage_refuses_two_sources(self, tmp_path, capsys):
        cfg_path = str(write_config(tmp_path, small_config(input="x.csv")))
        argv = ["train", "--features", str(tmp_path / "features.csv"), "--config", cfg_path]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "gaitsig: error: config must name exactly one input source\n"

    def test_two_sources_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict(small_config(input="x.csv"))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict(small_config(typo_key=1))

    def test_bad_nested_value_rejected(self):
        doc = small_config()
        doc["synth"]["pathology"]["asymmetry_gain"] = -2.0
        with pytest.raises(ConfigError, match="asymmetry_gain"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"som": 5}, "som: must be an object, got a number"),
            ({"wavelet": []}, "wavelet: must be an object, got an array"),
            ({"features": "HighScale"}, "features: must be an object, got a string"),
            ({"synth": 3}, "synth: must be an object, got a number"),
            ({"synth": {"n_subjects": 2, "pathology": [1]}}, "synth.pathology: must be an object, got an array"),
            ({"synth": {"n_subjects": 2, "groups": ["Polio"]}}, "synth.groups: must be an object, got an array"),
            ({"synth": {"n_subjects": 2, "groups": {"Polio": True}}}, r"synth.groups\[Polio\]: must be an object, got a boolean"),
            ({"synth": {"n_subjects": 2, "template": "flat"}}, "synth.template: must be an object, got a string"),
            ({"synth": {"n_subjects": 2, "template": {"Hip": [[1, 2.0]]}}},
             r"synth.template.Hip: must be a list of \[harmonic, amplitude, phase\]"),
            ({"joints": "Hip"}, 'joints: must be a list of strings, got "Hip"'),
            ({"joints": ["Hip", None]}, r'joints: must be a list of strings, got \["Hip", null\]'),
            ({"sides": {"Right": 1}}, r'sides: must be a list of strings, got \{"Right": 1\}'),
            ({"sides": ["Up"]}, "sides: 'Up' is not a valid Side"),
            ({"write_pgm": "no"}, 'write_pgm: must be a boolean, got "no"'),
            ({"loocv": 0}, "loocv: must be a boolean, got 0"),
            ({"features": {"zscore": "false"}}, 'features.zscore: must be a boolean, got "false"'),
            ({"synth": {"n_subjects": 2, "include_normal": None}}, "synth.include_normal: must be a boolean, got null"),
            ({"synth": {"n_subjects": 2, "pathology": {}, "pathology_label": 5}},
             "synth.pathology_label: must be a string, got 5"),
            ({"som": {"epochs": 1.7}}, "som.epochs: must be an integer, got 1.7"),
            ({"som": {"epochs": True}}, "som.epochs: must be an integer, got true"),
            ({"som": {"epochs": [1]}}, r"som.epochs: must be an integer, got \[1\]"),
            ({"seed": "3"}, 'seed: must be an integer, got "3"'),
            ({"seed": 2.9}, "seed: must be an integer, got 2.9"),
            ({"som": {"rows": "10"}}, 'som.rows: must be an integer, got "10"'),
            ({"som": {"alpha0": "0.5"}}, 'som.alpha0: must be a number, got "0.5"'),
            ({"synth": {"n_subjects": 2.5}}, "synth.n_subjects: must be an integer, got 2.5"),
            ({"wavelet": {"scales": {"count": 12.9}}}, "wavelet.scales.count: must be an integer, got 12.9"),
            ({"input": 5}, "input: must be a string, got 5"),
            ({"som": {"kernel": "x"}}, "som.kernel: 'x' is not a valid Kernel"),
            ({"synth": {"n_subjects": 2, "template": {"Hip": [[40, 1.0, 0.0]]}}},
             r"synth.template.Hip: harmonic index 40 outside \[0, 15\]"),
            ({"synth": {"n_subjects": 2, "template": {"Hip": [[-3, 1.0, 0.0]]}}},
             r"synth.template.Hip: harmonic index -3 outside \[0, 15\]"),
        ],
        ids=["som", "wavelet", "features", "synth", "pathology", "groups", "group", "template", "harmonics",
             "joints-text", "joints-null", "sides-object", "sides-value", "write-pgm", "loocv", "zscore",
             "include-normal", "pathology-label", "epochs-float", "epochs-bool", "epochs-list", "seed-text",
             "seed-float", "rows-text", "alpha0-text", "n-subjects-float", "scale-count-float",
             "input-csv-number", "kernel-value", "harmonic-40", "harmonic-negative"],
    )
    @pytest.mark.parametrize("stage", ["run", "train"])
    def test_wrong_json_type_names_the_key(self, tmp_path, capsys, stage, edit, message):
        cfg_path = str(write_config(tmp_path, small_config(**edit)))
        argv = ["run", "--config", cfg_path] if stage == "run" else [
            "train", "--features", str(tmp_path / "features.csv"), "--config", cfg_path]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"gaitsig: error: {message}\n", err), err

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"seed": -1}, "seed: must be >= 0, got -1"),
            ({"synth": {"n_subjects": 2, "rng_seed": -3}}, "synth.rng_seed: must be >= 0, got -3"),
            ({"som": {"rng_seed": -4}}, "som.rng_seed: must be >= 0, got -4"),
            ({"som": {"alpha0": 10**400}}, "som.alpha0: must be a number within the float range"),
            ({"cluster_threshold": -(10**400)}, "cluster_threshold: must be a number within the float range"),
            ({"wavelet": {"scales": [1, 10**400]}}, "wavelet.scales: must be a number within the float range"),
            ({"synth": {"n_subjects": 2, "template": {"Hip": [[1, 10**400, 0.0]]}}},
             "synth.template.Hip: must be a number within the float range"),
            ({"som": {"rows": 10**400}}, f"som.rows: must be <= 128, got {10**400}"),
            ({"synth": {"n_subjects": 2, "normal_jitter_sd": -1.0, "pathology": {"jitter_sd": 0.5}}},
             "synth.normal_jitter_sd: must be >= 0, got -1.0"),
            ({"som": {"rows": 1, "cols": 1}}, "som: the map needs at least 2 nodes, got 1x1"),
        ],
        ids=["seed", "synth-seed", "som-seed", "alpha0-huge", "threshold-huge", "scales-huge", "amplitude-huge",
             "rows-huge", "normal-jitter", "one-node"],
    )
    @pytest.mark.parametrize("stage", ["run", "train"])
    def test_out_of_range_value_names_the_key(self, tmp_path, capsys, stage, edit, message):
        cfg_path = str(write_config(tmp_path, small_config(**edit)))
        argv = ["run", "--config", cfg_path] if stage == "run" else [
            "train", "--features", str(tmp_path / "features.csv"), "--config", cfg_path]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"gaitsig: error: {message}\n", err), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, literal, message",
        [
            ({"synth": {"pathology": {"hf_amplitude": "X"}}}, "1e400",
             "synth.pathology.hf_amplitude: must be finite, got inf"),
            ({"cluster_threshold": "X"}, "NaN", "cluster_threshold: must be finite, got nan"),
            ({"som": {"sigma0": "X"}}, "1e400", "som.sigma0: must be finite, got inf"),
        ],
        ids=["amplitude", "threshold", "sigma0"],
    )
    @pytest.mark.parametrize("stage", ["run", "train"])
    def test_non_finite_value_names_the_key(self, tmp_path, capsys, stage, edit, literal, message):
        # JSON text with 1e400 (read as inf) or the non-standard NaN token
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(small_config(**edit)).replace('"X"', literal), encoding="utf-8")
        argv = ["run", "--config", str(cfg_path)] if stage == "run" else [
            "train", "--features", str(tmp_path / "features.csv"), "--config", str(cfg_path)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"gaitsig: error: {message}\n", err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"som": {"cols": 129}}, "som.cols: must be <= 128, got 129"),
            ({"som": {"epochs": 10**400}}, f"som.epochs: must be <= 100000, got {10**400}"),
            ({"som": {"epochs": 100_001}}, "som.epochs: must be <= 100000, got 100001"),
            ({"synth": {"n_subjects": 10**400}}, f"synth.n_subjects: must be <= 100000, got {10**400}"),
            ({"wavelet": {"scales": {"count": 1001}}}, "wavelet.scales.count: must be <= 1000, got 1001"),
            ({"wavelet": {"truncation_radius": 1e6}}, r"wavelet.truncation_radius: must be <= 10, got 1000000.0"),
            ({"wavelet": {"truncation_radius": 1e300}}, r"wavelet.truncation_radius: must be <= 10, got 1e\+300"),
            ({"wavelet": {"scales": {"max": 1e7}}}, r"wavelet.scales.max: must be <= 200, got 10000000.0"),
            ({"wavelet": {"scales": {"max": 1e300}}}, r"wavelet.scales.max: must be <= 200, got 1e\+300"),
            ({"wavelet": {"scales": [1, 2, 3, 4, 5, 6, 7, 1e7]}}, r"wavelet.scales: must be <= 200, got 10000000.0"),
            ({"som": {"sigma0": 1e300}}, r"som.sigma0: must be <= 1000000, got 1e\+300"),
        ],
        ids=["cols", "epochs-huge", "epochs", "n-subjects-huge", "scale-count", "radius", "radius-huge",
             "scale-max", "scale-max-huge", "scale-list", "sigma0-huge"],
    )
    def test_size_over_its_bound_names_the_key(self, tmp_path, capsys, edit, message):
        # through train, whose features.csv is missing: a run that took the
        # size would start a stage that does not finish in a test's time
        cfg_path = str(write_config(tmp_path, small_config(**edit)))
        argv = ["train", "--features", str(tmp_path / "features.csv"), "--config", cfg_path]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"gaitsig: error: {message}\n", err), err

    def test_largest_sizes_accepted(self):
        doc = small_config(som={"rows": 128, "cols": 128, "epochs": 100_000, "sigma0": 1e6, "sigma_end": 1e-6},
                           wavelet={"truncation_radius": 10, "scales": {"count": 1000, "max": 200}})
        doc["synth"]["n_subjects"] = 100_000
        cfg = config_from_dict(doc)
        assert (cfg.som_rows, cfg.som_cols, cfg.schedule.epochs) == (128, 128, 100_000)
        assert (cfg.synth.n_subjects, len(cfg.scales.scales)) == (100_000, 1000)
        assert (cfg.morlet.truncation_radius, cfg.scales.scales[-1]) == (10.0, 200.0)
        assert (cfg.schedule.sigma0, cfg.schedule.sigma_end) == (1e6, 1e-6)
        doc["wavelet"]["scales"] = [1, 2, 3, 4, 5, 6, 7, 200]
        assert config_from_dict(doc).scales.scales[-1] == 200.0

    def test_largest_map_trains(self, tmp_path):
        train_three_vectors(tmp_path, 128, "-m", "gaitsig")
        assert json.loads((tmp_path / "out" / "som.json").read_text())["rows"] == 128

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
    def test_training_memory_is_not_quadratic_in_the_nodes(self, tmp_path):
        # node-by-node tables of a 64x64 map peaked at 441 MB; its weights
        # take 5 MB. The child reads its own peak: ru_maxrss, in the child
        # or as RUSAGE_CHILDREN here, also counts the memory of this
        # process, which the child shares until it execs.
        child = ("import sys\n"
                 "from gaitsig.cli import main\n"
                 "status = main(sys.argv[1:])\n"
                 "print(next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
                 "sys.exit(status)\n")
        peak_kib = int(train_three_vectors(tmp_path, 64, "-c", child).split()[-2])
        assert peak_kib < 100 * 1024

    def test_overlong_integer_literal_names_the_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"seed": ' + "1" * 5000 + "}", encoding="utf-8")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"gaitsig: error: {cfg_path}: not valid JSON (Exceeds the limit"), err
        assert not (tmp_path / "out").exists()

    def test_nesting_too_deep_names_the_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"gaitsig: error: {cfg_path}: not valid JSON (maximum recursion depth"), err

    def test_negative_seed_that_nothing_uses_accepted(self):
        doc = small_config(seed=-1)
        doc["synth"]["rng_seed"] = 3
        doc["som"]["rng_seed"] = 0
        cfg = config_from_dict(doc)
        assert (cfg.seed, cfg.synth.rng_seed, cfg.schedule.rng_seed) == (-1, 3, 0)

    def test_seed_override_propagates(self, tmp_path):
        path = write_config(tmp_path, small_config())
        cfg = load_config(path, seed_override=99)
        assert cfg.seed == 99
        assert cfg.synth.rng_seed == 99
        assert cfg.schedule.rng_seed == 99

    def test_explicit_section_seed_pinned(self, tmp_path):
        doc = small_config()
        doc["som"]["rng_seed"] = 5
        path = write_config(tmp_path, doc)
        cfg = load_config(path, seed_override=99)
        assert cfg.schedule.rng_seed == 5


class TestRunPipeline:
    def test_full_artifact_set(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, small_config())
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        for name in EXPECTED_ARTIFACTS:
            assert (out / name).exists(), name
        scalograms = list((out / "scalograms").glob("scalogram_*.csv"))
        assert len(scalograms) == 8  # 8 subjects x 1 joint-side
        assert not (out / "FAILED").exists()
        stdout = capsys.readouterr().out
        assert "recognition rate" in stdout and "kappa" in stdout and "clusters" in stdout
        report = json.loads((out / "eval.json").read_text())
        assert report["recognition_rate"] >= 0.9  # trivially separable classes

    def test_json_artifacts_hold_exactly_their_record_keys(self, tmp_path):
        # a record field added later (say, a wall-clock time) must not reach
        # the byte-compared tree unnoticed
        cfg_path = write_config(tmp_path, small_config())
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        doc = {name: json.loads((out / name).read_text(encoding="utf-8"))
               for name in ("resolved_config.json", "eval.json", "som.json")}
        resolved = doc["resolved_config.json"]
        assert set(resolved) == set(CONFIG)
        assert set(resolved["synth"]) == set(SYNTH)
        assert [set(group) for group in resolved["synth"]["groups"].values()] == [set(PERTURBATION)]
        for section, table in (("wavelet", WAVELET), ("features", FEATURES), ("som", SOM)):
            assert set(resolved[section]) == set(table), section
        assert set(doc["eval.json"]) == {f.name for f in fields(EvalReport)}
        assert {tuple(sorted(fold)) for fold in doc["eval.json"]["folds"]} == {("held_out", "predicted", "true")}
        assert set(doc["som.json"]) == {"rows", "cols", "dim", "trained", "schedule", "weights"}
        assert set(doc["som.json"]["schedule"]) == {f.name for f in fields(TrainSchedule)}

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_artifacts_do_not_depend_on_blas_threads(self, tmp_path):
        # the normal-vs-spastic map and dimension (10x10, one part: 160
        # values); `import gaitsig` only sets OPENBLAS_NUM_THREADS if unset
        doc = small_config(som={"rows": 10, "cols": 10, "epochs": 20, "init": "SampleInit"})
        doc["synth"]["n_subjects"] = 3
        cfg_path = str(write_config(tmp_path, doc))
        src = str(Path(pipeline.__file__).resolve().parents[1])
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            argv = [sys.executable, "-m", "gaitsig", "run", "--config", cfg_path, "--out", str(out)]
            done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr
            trees.append(tree_bytes(out))
        assert "som.json" in trees[0] and trees[0] == trees[1]

    def test_seed_changes_artifacts(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", str(cfg_path), "--out", str(out1)])
        main(["run", "--config", str(cfg_path), "--out", str(out2), "--seed", "8"])
        assert (out1 / "dataset.csv").read_bytes() != (out2 / "dataset.csv").read_bytes()

    def test_missing_input_fails_before_compute(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"seed": 1, "som": {"rows": 4, "cols": 4}})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert not out.exists()  # validation precedes any output
        assert "input" in capsys.readouterr().err

    def test_missing_input_file_fails_before_output(self, tmp_path, capsys):
        cfg = {"seed": 1, "input": str(tmp_path / "nope.csv")}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert not out.exists()
        assert "not found" in capsys.readouterr().err

    def test_stage_error_writes_failed_marker(self, tmp_path, capsys):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("subject_id,label,joint,side,pct,angle_deg\ns1,Normal,Hip,Left,0.0,nan\n")
        cfg = {"seed": 1, "input": str(bad_csv), "som": {"rows": 4, "cols": 4}}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        marker = (out / "FAILED").read_text()
        assert marker.startswith("dataset:")
        assert "[dataset]" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, part", [
        ("hf_amplitude", 1e300, "'cp-dp-000' Hip/Right"),
        ("jitter_sd", 1e300, "'normal-000' Hip/Right"),
        ("asymmetry_gain", 1e-300, "'cp-dp-000' Hip/Right"),
    ])
    def test_synthetic_angle_out_of_range_names_the_subject(self, tmp_path, capsys, key, value, part):
        doc = small_config()
        doc["synth"]["pathology"][key] = value
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 1
        message = f"subject {part}: |angle| must be <= 180.0 degrees"
        assert (out / "FAILED").read_text() == f"dataset: {message}\n"
        assert capsys.readouterr().err == f"gaitsig: [dataset] {message}\n"

    def test_one_class_loocv_run_fails_before_cwt(self, tmp_path, capsys):
        data = write_hip_dataset(tmp_path / "one.csv", ["s1", "s2", "s3"], ["Normal"] * 3)
        cfg = {"seed": 1, "input": str(data), "joints": ["Hip"], "sides": ["Right"], "loocv": True}
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 1
        assert (out / "FAILED").read_text() == "dataset: kappa undefined for single-class data\n"
        assert capsys.readouterr().err == "gaitsig: [dataset] kappa undefined for single-class data\n"
        assert not (out / "scalograms").exists() and not (out / "features.csv").exists()

    def test_resolved_config_echo_is_loadable_and_equivalent(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", str(cfg_path), "--out", str(out1)])
        # re-running from the echoed resolved config reproduces everything
        main(["run", "--config", str(out1 / "resolved_config.json"), "--out", str(out2)])
        t1, t2 = tree_bytes(out1), tree_bytes(out2)
        del t1["resolved_config.json"], t2["resolved_config.json"]
        assert t1 == t2

    def test_map_size_level_and_threshold_reach_the_artifacts(self, tmp_path):
        doc = small_config(som={"rows": 3, "cols": 5, "epochs": 30}, features={"level": "LowScale"},
                           cluster_threshold=0.5)
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
        som = json.loads((out / "som.json").read_text())
        assert (som["rows"], som["cols"]) == (3, 5)
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["features"]["level"] == "LowScale"
        assert resolved["cluster_threshold"] == 0.5

    def test_zscore_flag_changes_map_not_features(self, tmp_path):
        raw_cfg = write_config(tmp_path, small_config(), name="raw.json")
        z_doc = small_config(features={"zscore": True})
        z_cfg = write_config(tmp_path, z_doc, name="z.json")
        out_raw, out_z = tmp_path / "raw", tmp_path / "z"
        assert main(["run", "--config", str(raw_cfg), "--out", str(out_raw)]) == 0
        assert main(["run", "--config", str(z_cfg), "--out", str(out_z)]) == 0
        # extraction artifact identical; the classifier saw different inputs
        assert (out_raw / "features.csv").read_bytes() == (out_z / "features.csv").read_bytes()
        assert (out_raw / "som.json").read_bytes() != (out_z / "som.json").read_bytes()
        assert json.loads((out_z / "resolved_config.json").read_text())["features"]["zscore"] is True

    def test_umatrix_header_names_the_threshold_clusters_were_cut_at(self, tmp_path):
        def read_run(out):
            header, *rows = (out / "umatrix.csv").read_text(encoding="utf-8").splitlines()
            heights = np.array([row.split(",") for row in rows], dtype=float)
            ids = np.full(heights.shape, -2)
            for line in (out / "clusters.csv").read_text(encoding="utf-8").splitlines()[1:]:
                r, c, cluster = map(int, line.split(","))
                ids[r, c] = cluster
            return float(header.rpartition(" threshold=")[2]), heights, ids

        doc = small_config(loocv=False)
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "a")]) == 0
        _, heights, _ = read_run(tmp_path / "a")
        # the median: some cells above it, some below, and not the 60th percentile
        doc["cluster_threshold"] = float(np.median(heights))
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "b")]) == 0
        threshold, heights_b, ids = read_run(tmp_path / "b")
        assert threshold == doc["cluster_threshold"] and np.array_equal(heights_b, heights)
        assert 0 < np.count_nonzero(heights < threshold) < heights.size
        assert same_partition(ids, union_find_components(heights < threshold))

    def test_loocv_off_skips_eval(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config(loocv=False))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert not (out / "eval.json").exists()

    def test_rerun_keeps_no_stale_artifacts(self, tmp_path):
        # 3+3 subjects and a 3x3 map: with LOOCV, then without, into one directory
        doc = small_config(som={"rows": 3, "cols": 3, "epochs": 30})
        doc["synth"]["n_subjects"] = 3
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["run", "--config", str(write_config(tmp_path, doc, "a.json")), "--out", str(out)]) == 0
        assert (out / "eval.json").exists()
        doc.update(loocv=False, write_pgm=False)
        doc["synth"]["n_subjects"] = 2
        cfg_path = write_config(tmp_path, doc, "b.json")
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(fresh)]) == 0
        assert tree_bytes(out) == tree_bytes(fresh)

    def test_failed_rerun_leaves_no_artifact_of_the_earlier_run(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, small_config())), "--out", str(out)]) == 0
        (out / "notes.txt").write_text("mine\n")
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("subject_id,label,joint,side,pct,angle_deg\ns1,Normal,Hip,Left,0.0,nan\n")
        cfg_path = write_config(tmp_path, {"seed": 1, "input": str(bad_csv)}, "bad.json")
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert sorted(p.name for p in out.rglob("*")) == ["FAILED", "notes.txt", "resolved_config.json"]
        assert (out / "notes.txt").read_text() == "mine\n"

    def test_rerun_from_its_own_dataset_csv(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, small_config())), "--out", str(out)]) == 0
        before = tree_bytes(out)
        doc = {"seed": 7, "input": str(out / "dataset.csv"), "joints": ["Hip"], "sides": ["Right"],
               "som": {"rows": 4, "cols": 4, "epochs": 30}, "loocv": True}
        assert main(["run", "--config", str(write_config(tmp_path, doc, "again.json")), "--out", str(out)]) == 0
        after = tree_bytes(out)
        del before["resolved_config.json"], after["resolved_config.json"]
        assert after == before

    def test_run_artifacts_declare_every_file_a_run_writes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, small_config())), "--out", str(out)]) == 0
        declared = {p for patterns in RUN_ARTIFACTS.values() for pattern in patterns for p in out.glob(pattern)}
        written = {p for p in out.rglob("*") if p.is_file()}
        assert written - declared == {out / "resolved_config.json"}

    def test_failing_cwt_task_marks_cwt_stage(self, tmp_path, monkeypatch, capsys):
        def no_transform(*args):
            raise ValueError("no transform in this worker")

        monkeypatch.setattr(wavelet, "cwt", no_transform)
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, small_config())), "--out", str(out)]) == 1
        assert (out / "FAILED").read_text() == "cwt: no transform in this worker\n"
        assert "[cwt] no transform in this worker" in capsys.readouterr().err

    def test_failing_extraction_marks_features_stage(self, tmp_path, monkeypatch, capsys):
        def no_features(*args):
            raise ValueError("no features in this worker")

        monkeypatch.setattr(features, "extract_features", no_features)
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, small_config())), "--out", str(out)]) == 1
        first = sorted((out / "scalograms").glob("scalogram_*.csv"))[0]
        assert (out / "FAILED").read_text() == f"features: {first}: no features in this worker\n"
        assert f"[features] {first}: no features in this worker" in capsys.readouterr().err

    def test_interrupt_marks_stage_and_propagates(self, tmp_path, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "write_features", interrupted)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", str(write_config(tmp_path, small_config())), "--out", str(out)])
        assert (out / "FAILED").read_text() == "features: \n"


class TestSubcommandChain:
    def test_features_names_an_undecodable_scalogram(self, tmp_path, capsys):
        d = tmp_path / "stage"
        assert main(["synth", "--config", str(write_config(tmp_path, small_config())), "--out", str(d)]) == 0
        cwt_cfg = write_config(tmp_path, {**EVERY_PART, "write_pgm": False}, "cwt.json")
        assert main(["cwt", "--input", str(d / "dataset.csv"), "--out", str(d), "--config", str(cwt_cfg)]) == 0
        bad = sorted((d / "scalograms").glob("scalogram_*.csv"))[3]
        bad.write_bytes(bad.read_bytes().replace(b"\n", b"\n\xff", 1))
        assert main(["features", "--scalograms", str(d / "scalograms"), "--out", str(d)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"gaitsig: error: {bad}: 'utf-8' codec can't decode byte 0xff"), err

    def test_synth_then_stagewise_pipeline(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        d = tmp_path / "stage"
        assert main(["synth", "--config", str(cfg_path), "--out", str(d)]) == 0
        subjects = ingest_csv(d / "dataset.csv")
        assert len(subjects) == 8

        cwt_cfg = write_config(tmp_path, {"joints": ["Hip"], "sides": ["Right"], "write_pgm": False}, "cwt.json")
        assert main(["cwt", "--input", str(d / "dataset.csv"), "--out", str(d), "--config", str(cwt_cfg)]) == 0
        assert len(list((d / "scalograms").glob("*.csv"))) == 8

        assert main([
            "features", "--scalograms", str(d / "scalograms"), "--out", str(d),
        ]) == 0
        assert (d / "features.csv").exists()

        som_flags = ["--config", str(write_config(tmp_path, {"som": {"rows": 4, "cols": 4}}, "map.json")),
                     "--epochs", "30", "--seed", "7"]
        assert main(["train", "--features", str(d / "features.csv"), "--out", str(d), *som_flags]) == 0
        assert (d / "som.json").exists() and (d / "umatrix.csv").exists()

        assert main(["eval", "--features", str(d / "features.csv"), "--out", str(d), *som_flags]) == 0
        report = json.loads((d / "eval.json").read_text())
        assert report["recognition_rate"] >= 0.9

    @pytest.mark.parametrize("case", list(STAGEWISE_CASES))
    def test_stagewise_matches_run_artifacts(self, tmp_path, case):
        # the chained stages and the all-in-one run write identical
        # artifacts, whether the stages read run's config or, as the
        # benchmark runs them, no config and only --epochs and --seed
        doc = small_config()
        for section, values in (STAGEWISE_CASES[case] or {}).items():
            doc[section] = {**doc.get(section, {}), **values}
        flags_only = STAGEWISE_CASES[case] is None
        if flags_only:
            # every other setting at its default, as in the flag-only stages
            doc.update(EVERY_PART, som={"epochs": 30})
        cfg_path = write_config(tmp_path, doc)
        run_dir, d = tmp_path / "run", tmp_path / "stage"
        config = [] if flags_only else ["--config", str(cfg_path)]
        som_flags = ["--epochs", "30", "--seed", "7"] if flags_only else config
        assert main(["run", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
        assert main(["synth", "--config", str(cfg_path), "--out", str(d)]) == 0
        assert main(["cwt", "--input", str(d / "dataset.csv"), "--out", str(d), *config]) == 0
        assert main(["features", "--scalograms", str(d / "scalograms"), "--out", str(d), *config]) == 0
        for stage in ("train", "eval"):
            assert main([stage, "--features", str(d / "features.csv"), "--out", str(d), *som_flags]) == 0
        expected = tree_bytes(run_dir)
        del expected["resolved_config.json"]
        assert tree_bytes(d) == expected
        som = json.loads((d / "som.json").read_text())
        for key, value in doc["som"].items():
            assert som.get(key, som["schedule"].get(key)) == value, key
        if doc.get("features", {}).get("zscore"):
            # every node is a blend of z-scored vectors, each of mean 0
            assert np.abs(np.reshape(som["weights"], (-1, som["dim"])).mean(axis=1)).max() < 1e-9

    def test_cwt_input_replaces_config_source(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        d = tmp_path / "stage"
        assert main(["synth", "--config", str(cfg_path), "--out", str(d)]) == 0
        missing = write_config(tmp_path, {"input": str(tmp_path / "none.json"), "joints": ["Knee"]}, "m.json")
        for config, part, count in ((cfg_path, "_Hip_Right", 8), (missing, "_Knee_", 16)):
            assert main(["cwt", "--config", str(config), "--input", str(d / "dataset.csv"), "--out", str(d)]) == 0
            names = [p.name for p in (d / "scalograms").glob("scalogram_*.csv")]
            assert len(names) == count and all(part in n for n in names)

    def test_input_read_by_its_name(self, tmp_path):
        # a name ending in .json is a JSON manifest, any other a dataset CSV
        d = tmp_path / "synth"
        assert main(["synth", "--config", str(write_config(tmp_path, small_config())), "--out", str(d)]) == 0
        manifest = [
            {"subject_id": s.id, "label": s.label.value, "trajectories": [
                {"joint": j.value, "side": side.value, "angle_deg": s.trajectories[(j, side)].samples.tolist()}
                for j, side in s.sorted_parts()]}
            for s in ingest_csv(d / "dataset.csv")
        ]
        (tmp_path / "d.json").write_text(json.dumps(manifest), encoding="utf-8")
        for path in (tmp_path / "d.json", d / "dataset.csv"):
            pipeline.write_dataset(config_from_dict({"input": str(path)}), tmp_path / "out")
            assert (tmp_path / "out" / "dataset.csv").read_bytes() == (d / "dataset.csv").read_bytes()

    def test_stage_config_validated_in_full(self, tmp_path, capsys):
        doc = small_config()
        doc["synth"]["typo"] = 1
        cfg_path = str(write_config(tmp_path, doc))
        for stage, path_flag in (("features", "--scalograms"), ("train", "--features"), ("eval", "--features")):
            assert main([stage, path_flag, str(tmp_path), "--out", str(tmp_path), "--config", cfg_path]) == 1
            assert "synth: unknown keys ['typo']" in capsys.readouterr().err

    def test_failed_eval_leaves_no_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, small_config())), "--out", str(out)]) == 0
        som_flags = ["--config", str(write_config(tmp_path, {"som": {"rows": 4, "cols": 4}}, "map.json")),
                     "--epochs", "30", "--seed", "7"]
        assert main(["eval", "--features", str(out / "features.csv"), "--out", str(out), *som_flags]) == 0
        m = read_features_csv(out / "features.csv")
        normal = [i for i, label in enumerate(m.labels) if label.value == "Normal"]
        subset = replace(m, values=m.values[normal], subject_ids=[m.subject_ids[i] for i in normal],
                         labels=[m.labels[i] for i in normal])
        features.write_features_csv(subset, tmp_path / "normal.csv")
        assert main(["eval", "--features", str(tmp_path / "normal.csv"), "--out", str(out), *som_flags]) == 1
        assert "single-class" in capsys.readouterr().err
        assert not any((out / name).exists() for name in ("eval.json", "eval.txt", "confusion.csv"))

    def test_setting_flags_default_to_none(self):
        # a default lives only in config.py, and every setting flag
        # reaches the config through SETTING_FLAGS
        subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        paths = {"-h", "--out", "--input", "--features", "--scalograms", "--config"}
        for name, parser in subcommands.choices.items():
            for action in parser._actions:
                flag = action.option_strings[0]
                if flag not in paths:
                    assert action.default is None and flag in SETTING_FLAGS, (name, flag)

    def test_train_without_pgm_removes_old_umatrix_pgm(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, small_config())), "--out", str(out)]) == 0
        assert (out / "umatrix.pgm").exists()
        cfg_path = write_config(tmp_path, {"som": {"rows": 3, "cols": 3}, "write_pgm": False}, "no_pgm.json")
        assert main([
            "train", "--features", str(out / "features.csv"), "--out", str(out),
            "--config", str(cfg_path), "--epochs", "30", "--seed", "7",
        ]) == 0
        assert not (out / "umatrix.pgm").exists()

    def test_missing_part_fails_run_and_cwt_alike(self, tmp_path, capsys):
        data = tmp_path / "hip.csv"
        lines = ["subject_id,label,joint,side,pct,angle_deg"]
        for sid, label in (("s1", "Normal"), ("s2", "CP-dp")):
            for side in ("Right", "Left"):
                lines += [f"{sid},{label},Hip,{side},{pct}.0,{20.0 * math.sin(pct / 16.0)!r}" for pct in range(101)]
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg_path = str(write_config(tmp_path, {"input": str(data), "joints": ["Hip", "Knee"]}))
        message = "subject 's1' lacks a Knee/Right trajectory"
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"gaitsig: [cwt] {message}\n"
        out = tmp_path / "stage"
        assert main(["cwt", "--input", str(data), "--out", str(out), "--config", cfg_path]) == 1
        assert capsys.readouterr().err == f"gaitsig: error: {message}\n"
        assert not list(out.rglob("scalogram_*"))
        # without --config: every part each subject has
        assert main(["cwt", "--input", str(data), "--out", str(out)]) == 0
        assert len(list((out / "scalograms").glob("scalogram_*_Hip_*.csv"))) == 4

    def test_features_refuses_subjects_with_other_parts(self, tmp_path, capsys):
        # cwt without --config takes the parts each subject has, so s1's
        # scalograms cover a part that s2's lack
        data = tmp_path / "parts.csv"
        lines = ["subject_id,label,joint,side,pct,angle_deg"]
        for sid, label, joints in (("s1", "Normal", ("Hip", "Knee")), ("s2", "CP-dp", ("Hip",))):
            for joint in joints:
                lines += [f"{sid},{label},{joint},Right,{pct}.0,{20.0 * math.sin(pct / 16.0)!r}" for pct in range(101)]
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "stage"
        assert main(["cwt", "--input", str(data), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["features", "--scalograms", str(out / "scalograms"), "--out", str(out)]) == 1
        message = "subject 's2': parts 'Hip:Right' differs from the first row's 'Hip:Right|Knee:Right'"
        assert capsys.readouterr().err == f"gaitsig: error: {message}\n"
        assert not (out / "features.csv").exists()

    @pytest.mark.parametrize("ids", [
        ["a b", "a_b", "a%20b"],
        ["a é", "a λ"],
        ["s" * 239 + "1", "s" * 239 + "2", "s"],
        ["50%", "50%25", "50_", "a+b", "a%2Bb", "+"],
    ], ids=["space", "non-ascii", "240-chars", "percent-plus"])
    def test_any_ids_reach_features_apart(self, tmp_path, ids):
        data = write_hip_dataset(tmp_path / "d.csv", ids, ["Normal"] * len(ids))
        cfg_path = write_config(tmp_path, {"seed": 1, "input": str(data), "joints": ["Hip"], "sides": ["Right"],
                                           "som": {"rows": 2, "cols": 2, "epochs": 2}, "loocv": False})
        run, stage = tmp_path / "run", tmp_path / "stage"
        assert main(["run", "--config", str(cfg_path), "--out", str(run)]) == 0
        assert main(["cwt", "--input", str(data), "--out", str(stage)]) == 0
        assert main(["features", "--scalograms", str(stage / "scalograms"), "--out", str(stage)]) == 0
        for out in (run, stage):
            assert sorted(read_features_csv(out / "features.csv").subject_ids) == sorted(ids)
            assert len(list((out / "scalograms").glob("*.csv"))) == len(ids)
            assert max(len(os.fsencode(p.name)) for p in out.rglob("*")) <= 255

    def stagewise(self, cfg_path, d):
        assert main(["synth", "--config", str(cfg_path), "--out", str(d / "synth")]) == 0
        assert main(["ingest", "--input", str(d / "synth" / "dataset.csv"), "--out", str(d / "data")]) == 0
        assert main(["cwt", "--input", str(d / "data" / "dataset.csv"), "--out", str(d / "work")]) == 0
        assert main(["features", "--scalograms", str(d / "work" / "scalograms"), "--out", str(d / "work")]) == 0
        assert main([
            "train", "--features", str(d / "work" / "features.csv"), "--out", str(d / "work"),
            "--config", str(cfg_path),
        ]) == 0
        return tree_bytes(d)

    def test_stagewise_tree_same_on_one_cpu(self, tmp_path, monkeypatch):
        # every joint and side: 48 scalograms, more tasks than CPUs
        cfg_path = write_config(tmp_path, small_config())
        pooled = self.stagewise(cfg_path, tmp_path / "pooled")
        assert len([k for k in pooled if k.endswith(".csv") and "scalogram_" in k]) == 48
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert self.stagewise(cfg_path, tmp_path / "one") == pooled

    def test_corrupt_scalogram_names_file(self, tmp_path, capsys):
        d = tmp_path / "stage"
        main(["synth", "--config", str(write_config(tmp_path, small_config())), "--out", str(d)])
        cwt_cfg = write_config(tmp_path, {**EVERY_PART, "write_pgm": False}, "cwt.json")
        assert main(["cwt", "--input", str(d / "dataset.csv"), "--out", str(d), "--config", str(cwt_cfg)]) == 0
        bad = sorted((d / "scalograms").glob("*.csv"))[17]
        lines = bad.read_text(encoding="utf-8").split("\n")
        lines[4] = "x" + lines[4]  # the second scale row
        bad.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["features", "--scalograms", str(d / "scalograms"), "--out", str(d)]) == 1
        assert f"{bad}:5: could not convert string to float: 'x" in capsys.readouterr().err
        assert not (d / "features.csv").exists()

    @pytest.mark.parametrize("line, drop, message", [
        (0, " joint=Hip", "1: provenance line has no joint= field"),
        (0, " side=Right", "1: provenance line has no side= field"),
        (0, " subject=normal-001", "1: provenance line has no subject= field"),
        (4, None, "5: 100 values, but the # pct= axis has 101"),
    ], ids=["no-joint", "no-side", "no-subject", "short-row"])
    def test_malformed_scalogram_names_file_and_line(self, tmp_path, capsys, line, drop, message):
        d = tmp_path / "stage"
        main(["synth", "--config", str(write_config(tmp_path, small_config())), "--out", str(d)])
        cwt_cfg = write_config(tmp_path, {"joints": ["Hip"], "sides": ["Right"], "write_pgm": False}, "cwt.json")
        assert main(["cwt", "--input", str(d / "dataset.csv"), "--out", str(d), "--config", str(cwt_cfg)]) == 0
        bad = sorted((d / "scalograms").glob("*.csv"))[5]
        lines = bad.read_text(encoding="utf-8").split("\n")
        # a provenance key dropped, or the last value of the second scale row
        lines[line] = lines[line].replace(drop, "") if drop else lines[line].rpartition(",")[0]
        bad.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["features", "--scalograms", str(d / "scalograms"), "--out", str(d)]) == 1
        assert capsys.readouterr().err == f"gaitsig: error: {bad}:{message}\n"
        assert not (d / "features.csv").exists()

    def test_ids_sharing_a_first_word_stay_apart(self, tmp_path):
        subjects = ingest_csv(write_colliding_dataset(tmp_path))
        ids = ["pt 0, visit=1", "pt 0, visit=2"]
        write_csv([replace(s, id=sid) for s, sid in zip(subjects, ids)], tmp_path / "d.csv")
        d = tmp_path / "stage"
        assert main(["cwt", "--input", str(tmp_path / "d.csv"), "--out", str(d)]) == 0
        assert main(["features", "--scalograms", str(d / "scalograms"), "--out", str(d)]) == 0
        assert list(read_features_csv(d / "features.csv").subject_ids) == ids

    def test_cwt_rerun_removes_stale_scalograms(self, tmp_path):
        big, small = small_config(), small_config(seed=8)
        small["synth"]["n_subjects"] = 2
        d, fresh = tmp_path / "d", tmp_path / "fresh"
        for doc, name in ((big, "big"), (small, "small")):
            main(["synth", "--config", str(write_config(tmp_path, doc, f"{name}.json")), "--out", str(tmp_path / name)])
        assert main(["cwt", "--input", str(tmp_path / "big" / "dataset.csv"), "--out", str(d)]) == 0
        cwt_cfg = write_config(tmp_path, {"joints": ["Hip", "Knee"], "write_pgm": False}, "cwt.json")
        for out in (d, fresh):
            assert main([
                "cwt", "--input", str(tmp_path / "small" / "dataset.csv"), "--out", str(out),
                "--config", str(cwt_cfg),
            ]) == 0
        assert tree_bytes(d) == tree_bytes(fresh)
        assert len(tree_bytes(fresh)) == 4 * 2 * 2  # 4 subjects x 2 joints x 2 sides, CSV only

    def test_ingest_round_trip(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        d1, d2 = tmp_path / "a", tmp_path / "b"
        main(["synth", "--config", str(cfg_path), "--out", str(d1)])
        assert main(["ingest", "--input", str(d1 / "dataset.csv"), "--out", str(d2)]) == 0
        assert (d1 / "dataset.csv").read_bytes() == (d2 / "dataset.csv").read_bytes()
        # in place: the dataset stage never deletes its own input
        assert main(["ingest", "--input", str(d2 / "dataset.csv"), "--out", str(d2)]) == 0
        assert (d1 / "dataset.csv").read_bytes() == (d2 / "dataset.csv").read_bytes()

    def test_unknown_option_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--bogus"])
        assert exc.value.code == 2


PLAIN = "AZaz09._-"
_IDS = st.text(alphabet=st.sampled_from([*PLAIN, " ", "%", "~", "+", "/", "é", "λ", "\u00a0", "😀"]),
               min_size=1, max_size=300)


class TestScalogramStem:
    @settings(max_examples=300, deadline=None)
    @given(ids=st.lists(_IDS, min_size=1, max_size=8, unique=True))
    @example(ids=["a b", "a_b", "a%20b", "a%2520b", "a é", "a λ", "a~b"])
    @example(ids=["s" * 200, "s" * 201, "s" * 239 + "1", "s" * 239 + "2", "s" * 135])
    @example(ids=["%" * 67, "%" * 66 + "+", "é" * 33, "é" * 34])
    def test_stems_are_plain_short_and_distinct(self, ids):
        stems = [scalogram_stem(sid) for sid in ids]
        assert len(set(stems)) == len(ids)
        for sid, stem in zip(ids, stems):
            assert stem.isascii() and "/" not in stem and 0 < len(stem) <= 200, stem
            if set(sid) <= set(PLAIN) and len(sid) <= 200:
                assert stem == sid


class TestBmus:
    @pytest.mark.parametrize("zscore", [False, True], ids=["raw", "zscore"])
    def test_run_records_each_subjects_best_match(self, tmp_path, zscore):
        out = tmp_path / "out"
        doc = small_config(loocv=False, features={"zscore": zscore}, som={"rows": 6, "cols": 6, "epochs": 30})
        doc["synth"]["n_subjects"] = 10
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
        bmus = read_csv_rows(out / "bmus.csv")
        assert len(bmus) == 1 + 20 and bmus == oracle_bmus(out, zscore)
        # this map tells the vectors it was trained on from the others
        assert bmus != oracle_bmus(out, not zscore)

    @pytest.mark.parametrize("ids, labels", [
        (["a,b", 'say "hi"', "line\nbreak", "cr\rhere", "plain"], ["CP,x", 'q"\n', "a\rb", None, "Normal"]),
        (["s0", "s1", "s2"], [None] * 3),
    ], ids=["quoted", "unlabeled"])
    def test_train_writes_any_id_and_label_back(self, tmp_path, ids, labels):
        write_vectors(tmp_path / "features.csv", ids, labels)
        cfg_path = write_config(tmp_path, {"som": {"rows": 3, "cols": 3}})
        assert main(["train", "--features", str(tmp_path / "features.csv"), "--out", str(tmp_path),
                     "--config", str(cfg_path), "--epochs", "5"]) == 0
        bmus = read_csv_rows(tmp_path / "bmus.csv")
        assert [row[:2] for row in bmus[1:]] == [[sid, label or ""] for sid, label in zip(ids, labels)]
        assert bmus == oracle_bmus(tmp_path)

    def test_failed_rerun_leaves_no_stale_bmus(self, tmp_path, monkeypatch):
        def no_training(*args):
            raise ValueError("no training")

        write_vectors(tmp_path / "features.csv", ["s0", "s1", "s2"], [None] * 3)
        cfg_path = write_config(tmp_path, {"som": {"rows": 2, "cols": 2}})
        argv = ["train", "--features", str(tmp_path / "features.csv"), "--out", str(tmp_path), "--config", str(cfg_path)]
        assert main(argv) == 0 and (tmp_path / "bmus.csv").exists()
        monkeypatch.setattr(pipeline.sm, "train", no_training)
        assert main(argv) == 1
        assert not (tmp_path / "bmus.csv").exists()
