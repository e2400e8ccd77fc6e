import argparse
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gaitsig import features, pipeline, wavelet
from gaitsig.cli import SETTING_FLAGS, build_parser, main
from gaitsig.config import ConfigError, config_from_dict, load_config
from gaitsig.data import Joint, Side, ingest_csv, write_csv
from gaitsig.features import read_features_csv
from gaitsig.pipeline import RUN_ARTIFACTS

from oracles import same_partition, union_find_components


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


# Settings the stagewise chain must reproduce; None runs it on flags alone.
STAGEWISE_CASES = {
    "flags": None,
    "default": {},
    "zscore": {"features": {"zscore": True}},
    "bubble": {"som": {"kernel": "Bubble"}},
    "random_small": {"som": {"init": "RandomSmall"}},
    "alpha_sigma": {"som": {"alpha0": 0.3, "sigma0": 3.0, "sigma_end": 1.0}},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


EXPECTED_ARTIFACTS = [
    "resolved_config.json",
    "dataset.csv",
    "features.csv",
    "som.json",
    "umatrix.csv",
    "umatrix.pgm",
    "attraction.csv",
    "clusters.csv",
    "eval.json",
    "eval.txt",
    "confusion.csv",
]


def write_colliding_dataset(tmp_path) -> Path:
    """Two subjects whose ids differ but map to one file stem, `a_b`."""
    path = tmp_path / "collide.csv"
    lines = ["subject_id,label,joint,side,pct,angle_deg"]
    for sid, label in (("a b", "Normal"), ("a_b", "CP-dp")):
        for pct in range(101):
            lines.append(f"{sid},{label},Hip,Right,{pct}.0,{20.0 * math.sin(pct / 16.0)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


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
        assert capsys.readouterr().err == "gaitsig: error: config needs an input: input_csv, input_json, or synth\n"
        assert not out.exists()

    def test_document_without_input_parses(self):
        cfg = config_from_dict({"seed": 1})
        assert (cfg.input_csv, cfg.input_json, cfg.synth) == (None, None, None)

    def test_stage_refuses_two_sources(self, tmp_path, capsys):
        cfg_path = str(write_config(tmp_path, small_config(input_csv="x.csv")))
        argv = ["train", "--features", str(tmp_path / "features.csv"), "--config", cfg_path]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "gaitsig: error: config must name exactly one input source\n"

    def test_two_sources_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict(small_config(input_csv="x.csv"))

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
            ({"input_csv": 5}, "input_csv: must be a string, got 5"),
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
            ({"som": {"rows": 10**400}}, f"som.rows: must be <= 64, got {10**400}"),
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

    def test_non_finite_threshold_flag_names_the_key(self, tmp_path, capsys):
        # checked with the settings, before the features are read
        argv = ["train", "--features", str(tmp_path / "features.csv"), "--threshold", "nan"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "gaitsig: error: cluster_threshold: must be finite, got nan\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"som": {"cols": 65}}, "som.cols: must be <= 64, got 65"),
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
        doc = small_config(som={"rows": 64, "cols": 64, "epochs": 100_000, "sigma0": 1e6, "sigma_end": 1e-6},
                           wavelet={"truncation_radius": 10, "scales": {"count": 1000, "max": 200}})
        doc["synth"]["n_subjects"] = 100_000
        cfg = config_from_dict(doc)
        assert (cfg.som_rows, cfg.som_cols, cfg.schedule.epochs) == (64, 64, 100_000)
        assert (cfg.synth.n_subjects, len(cfg.scales.scales)) == (100_000, 1000)
        assert (cfg.morlet.truncation_radius, cfg.scales.scales[-1]) == (10.0, 200.0)
        assert (cfg.schedule.sigma0, cfg.schedule.sigma_end) == (1e6, 1e-6)
        doc["wavelet"]["scales"] = [1, 2, 3, 4, 5, 6, 7, 200]
        assert config_from_dict(doc).scales.scales[-1] == 200.0

    def test_largest_map_trains(self, tmp_path):
        # the map bound is one training can allocate: (n, n) node tables
        rng = np.random.default_rng(0)
        vectors = [features.FeatureVector(values=rng.uniform(0, 1, 160), subject_id=f"s{i}",
                                          parts=((Joint.HIP, Side.RIGHT),), level=features.Level.HIGH_SCALE)
                   for i in range(3)]
        features.write_features_csv(vectors, tmp_path / "features.csv")
        src = str(Path(pipeline.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = [sys.executable, "-m", "gaitsig", "train", "--features", str(tmp_path / "features.csv"),
                "--out", str(tmp_path / "out"), "--map-dims", "64x64", "--epochs", "1"]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads((tmp_path / "out" / "som.json").read_text())["rows"] == 64

    def test_overlong_integer_literal_names_the_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"seed": ' + "1" * 5000 + "}", encoding="utf-8")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"gaitsig: error: {cfg_path}: not valid JSON (Exceeds the limit"), err
        assert not (tmp_path / "out").exists()

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
        cfg = {"seed": 1, "input_csv": str(tmp_path / "nope.csv")}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert not out.exists()
        assert "not found" in capsys.readouterr().err

    def test_stage_error_writes_failed_marker(self, tmp_path, capsys):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("subject_id,label,joint,side,pct,angle_deg\ns1,Normal,Hip,Left,0.0,nan\n")
        cfg = {"seed": 1, "input_csv": str(bad_csv), "som": {"rows": 4, "cols": 4}}
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

    def test_colliding_file_stems_rejected(self, tmp_path, capsys):
        cfg = {"seed": 1, "input_csv": str(write_colliding_dataset(tmp_path)),
               "joints": ["Hip"], "sides": ["Right"], "som": {"rows": 2, "cols": 2}}
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 1
        assert (out / "FAILED").read_text().startswith("cwt:")
        assert "'a b' and 'a_b'" in capsys.readouterr().err
        assert not list(out.rglob("scalogram_*"))

    def test_resolved_config_echo_is_loadable_and_equivalent(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", str(cfg_path), "--out", str(out1)])
        # re-running from the echoed resolved config reproduces everything
        main(["run", "--config", str(out1 / "resolved_config.json"), "--out", str(out2)])
        t1, t2 = tree_bytes(out1), tree_bytes(out2)
        del t1["resolved_config.json"], t2["resolved_config.json"]
        assert t1 == t2

    def test_map_dims_and_level_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        out = tmp_path / "out"
        assert main([
            "run", "--config", str(cfg_path), "--out", str(out),
            "--map-dims", "3x5", "--level", "LowScale", "--threshold", "0.5",
        ]) == 0
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
        cfg_path = write_config(tmp_path, {"seed": 1, "input_csv": str(bad_csv)}, "bad.json")
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert sorted(p.name for p in out.rglob("*")) == ["FAILED", "notes.txt", "resolved_config.json"]
        assert (out / "notes.txt").read_text() == "mine\n"

    def test_rerun_from_its_own_dataset_csv(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, small_config())), "--out", str(out)]) == 0
        before = tree_bytes(out)
        doc = {"seed": 7, "input_csv": str(out / "dataset.csv"), "joints": ["Hip"], "sides": ["Right"],
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
    def test_synth_then_stagewise_pipeline(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        d = tmp_path / "stage"
        assert main(["synth", "--config", str(cfg_path), "--out", str(d)]) == 0
        subjects = ingest_csv(d / "dataset.csv")
        assert len(subjects) == 8

        assert main([
            "cwt", "--input", str(d / "dataset.csv"), "--out", str(d),
            "--joints", "Hip", "--sides", "Right", "--no-pgm",
        ]) == 0
        assert len(list((d / "scalograms").glob("*.csv"))) == 8

        assert main([
            "features", "--scalograms", str(d / "scalograms"), "--out", str(d),
        ]) == 0
        assert (d / "features.csv").exists()

        assert main([
            "train", "--features", str(d / "features.csv"), "--out", str(d),
            "--map-dims", "4x4", "--epochs", "30", "--seed", "7",
        ]) == 0
        assert (d / "som.json").exists() and (d / "umatrix.csv").exists()

        assert main([
            "eval", "--features", str(d / "features.csv"), "--out", str(d),
            "--map-dims", "4x4", "--epochs", "30", "--seed", "7",
        ]) == 0
        report = json.loads((d / "eval.json").read_text())
        assert report["recognition_rate"] >= 0.9

    @pytest.mark.parametrize("case", list(STAGEWISE_CASES))
    def test_stagewise_matches_run_artifacts(self, tmp_path, case):
        # the chained stages and the all-in-one run write identical
        # artifacts, whether the stages read run's config or only flags
        doc = small_config()
        for section, values in (STAGEWISE_CASES[case] or {}).items():
            doc[section] = {**doc.get(section, {}), **values}
        cfg_path = write_config(tmp_path, doc)
        run_dir, d = tmp_path / "run", tmp_path / "stage"
        if STAGEWISE_CASES[case] is None:
            cwt_flags, feature_flags = ["--joints", "Hip", "--sides", "Right"], []
            som_flags = ["--map-dims", "4x4", "--epochs", "30", "--seed", "7"]
        else:
            cwt_flags = feature_flags = som_flags = ["--config", str(cfg_path)]
        assert main(["run", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
        assert main(["synth", "--config", str(cfg_path), "--out", str(d)]) == 0
        assert main(["cwt", "--input", str(d / "dataset.csv"), "--out", str(d), *cwt_flags]) == 0
        assert main(["features", "--scalograms", str(d / "scalograms"), "--out", str(d), *feature_flags]) == 0
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
        missing = write_config(tmp_path, {"input_json": str(tmp_path / "none.json"), "joints": ["Knee"]}, "m.json")
        for config, part, count in ((cfg_path, "_Hip_Right", 8), (missing, "_Knee_", 16)):
            assert main(["cwt", "--config", str(config), "--input", str(d / "dataset.csv"), "--out", str(d)]) == 0
            names = [p.name for p in (d / "scalograms").glob("scalogram_*.csv")]
            assert len(names) == count and all(part in n for n in names)

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
        som_flags = ["--map-dims", "4x4", "--epochs", "30", "--seed", "7"]
        assert main(["eval", "--features", str(out / "features.csv"), "--out", str(out), *som_flags]) == 0
        normal = [v for v in read_features_csv(out / "features.csv") if v.label.value == "Normal"]
        features.write_features_csv(normal, tmp_path / "normal.csv")
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
        assert main([
            "train", "--features", str(out / "features.csv"), "--out", str(out),
            "--map-dims", "3x3", "--epochs", "30", "--seed", "7", "--no-pgm",
        ]) == 0
        assert not (out / "umatrix.pgm").exists()

    def test_missing_part_fails_run_and_cwt_alike(self, tmp_path, capsys):
        data = tmp_path / "hip.csv"
        lines = ["subject_id,label,joint,side,pct,angle_deg"]
        for sid, label in (("s1", "Normal"), ("s2", "CP-dp")):
            for side in ("Right", "Left"):
                lines += [f"{sid},{label},Hip,{side},{pct}.0,{20.0 * math.sin(pct / 16.0)!r}" for pct in range(101)]
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg_path = str(write_config(tmp_path, {"input_csv": str(data), "joints": ["Hip", "Knee"]}))
        message = "subject 's1' lacks a Knee/Right trajectory"
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"gaitsig: [cwt] {message}\n"
        out = tmp_path / "stage"
        for flags in (["--config", cfg_path], ["--joints", "Hip,Knee"]):
            assert main(["cwt", "--input", str(data), "--out", str(out), *flags]) == 1
            assert capsys.readouterr().err == f"gaitsig: error: {message}\n"
            assert not list(out.rglob("scalogram_*"))
        # without --config, --joints and --sides: every part each subject has
        assert main(["cwt", "--input", str(data), "--out", str(out), "--no-pgm"]) == 0
        assert len(list((out / "scalograms").glob("scalogram_*_Hip_*.csv"))) == 4

    def test_cwt_colliding_file_stems_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["cwt", "--input", str(write_colliding_dataset(tmp_path)), "--out", str(out)]) == 1
        assert "'a b' and 'a_b'" in capsys.readouterr().err
        assert not list(out.rglob("scalogram_*"))

    def stagewise(self, cfg_path, d):
        assert main(["synth", "--config", str(cfg_path), "--out", str(d / "synth")]) == 0
        assert main(["ingest", "--input", str(d / "synth" / "dataset.csv"), "--out", str(d / "data")]) == 0
        assert main(["cwt", "--input", str(d / "data" / "dataset.csv"), "--out", str(d / "work")]) == 0
        assert main(["features", "--scalograms", str(d / "work" / "scalograms"), "--out", str(d / "work")]) == 0
        assert main([
            "train", "--features", str(d / "work" / "features.csv"), "--out", str(d / "work"),
            "--map-dims", "4x4", "--epochs", "30", "--seed", "7",
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
        assert main(["cwt", "--input", str(d / "dataset.csv"), "--out", str(d), "--no-pgm"]) == 0
        bad = sorted((d / "scalograms").glob("*.csv"))[17]
        lines = bad.read_text(encoding="utf-8").split("\n")
        lines[4] = "x" + lines[4]  # the second scale row
        bad.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["features", "--scalograms", str(d / "scalograms"), "--out", str(d)]) == 1
        assert f"{bad}:5: could not convert string to float: 'x" in capsys.readouterr().err
        assert not (d / "features.csv").exists()

    def test_ids_sharing_a_first_word_stay_apart(self, tmp_path):
        subjects = ingest_csv(write_colliding_dataset(tmp_path))
        ids = ["pt 0, visit=1", "pt 0, visit=2"]
        write_csv([replace(s, id=sid) for s, sid in zip(subjects, ids)], tmp_path / "d.csv")
        d = tmp_path / "stage"
        assert main(["cwt", "--input", str(tmp_path / "d.csv"), "--out", str(d)]) == 0
        assert main(["features", "--scalograms", str(d / "scalograms"), "--out", str(d)]) == 0
        assert [v.subject_id for v in read_features_csv(d / "features.csv")] == ids

    def test_cwt_rerun_removes_stale_scalograms(self, tmp_path):
        big, small = small_config(), small_config(seed=8)
        small["synth"]["n_subjects"] = 2
        d, fresh = tmp_path / "d", tmp_path / "fresh"
        for doc, name in ((big, "big"), (small, "small")):
            main(["synth", "--config", str(write_config(tmp_path, doc, f"{name}.json")), "--out", str(tmp_path / name)])
        assert main(["cwt", "--input", str(tmp_path / "big" / "dataset.csv"), "--out", str(d)]) == 0
        for out in (d, fresh):
            assert main([
                "cwt", "--input", str(tmp_path / "small" / "dataset.csv"), "--out", str(out),
                "--joints", "Hip,Knee", "--no-pgm",
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
