"""Acceptance suite: one test per criterion, each printing a PASS line
(run with `pytest tests/test_acceptance.py -v -s`). Expected values come
from the independent oracles in tests/oracles.py, rational arithmetic, or
hand computation; tolerances are pinned here.
"""

import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gaitsig.cli import main as cli_main
from gaitsig.data import CP_DP, CP_LH, CP_RH, GaitTrajectory, Joint, Side
from gaitsig.evaluate import kappa, loocv
from gaitsig.features import FeatureMatrix, Level, extract_features, split_regions
from gaitsig.som import (
    InitMode,
    Kernel,
    SomMap,
    TrainSchedule,
    best_match,
    clusters,
    init,
    train,
    umatrix,
)
from gaitsig.synth import GaitRegion, PerturbationSpec, SynthSpec, generate
from gaitsig.wavelet import MorletParams, ScaleGrid, cwt, morlet

from oracles import band_energy_above, reference_cwt

PCT = np.linspace(0.0, 100.0, 101)


def _traj(samples, joint=Joint.HIP, side=Side.RIGHT):
    return GaitTrajectory(joint=joint, side=side, samples=samples)


def _passed(n, name):
    print(f"ACCEPTANCE {n:02d} {name}: PASS")


def test_c01_morlet_correctness():
    v0 = morlet(0.0, MorletParams(nu0=1.0))
    assert abs(v0.real - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-12
    assert v0.imag == 0.0
    rng = np.random.default_rng(101)
    for t in rng.uniform(-6.0, 6.0, 100):
        plus, minus = morlet(float(t)), morlet(float(-t))
        assert abs(plus.real - minus.real) < 1e-12  # even real part
        assert abs(plus.imag + minus.imag) < 1e-12  # odd imaginary part
    _passed(1, "Morlet correctness")


def test_c02_cwt_scale_localization():
    grid = ScaleGrid.default()
    bin_ratio = grid.scales[1] / grid.scales[0]
    dense = ScaleGrid.default(count=120)  # 10x the scale resolution
    for s_star in (2.0, 4.0, 8.0, 16.0):
        x = 10.0 * np.cos(2.0 * np.pi * PCT / s_star)  # f = 1/s*, so nu0/f = s*
        sc = cwt(_traj(x), grid)

        # implementation matches the brute-force quadrature on the 12-grid
        ref = reference_cwt(x, dt=1.0, scales=grid.scales)
        assert np.allclose(sc.values, ref, rtol=1e-12, atol=1e-12 * ref.max())

        # interior columns peak within one bin of the grid scale nearest s*
        near = grid.nearest_index(s_star)
        for col in range(40, 61):
            assert abs(int(np.argmax(sc.values[:, col])) - near) <= 1

        # dense-grid oracle localizes the peak at s* within one coarse bin
        ref_dense = reference_cwt(x, dt=1.0, scales=dense.scales)
        for col in (45, 50, 55):
            s_peak = dense.scales[int(np.argmax(ref_dense[:, col]))]
            assert abs(math.log(s_peak / s_star)) <= math.log(bin_ratio)
    _passed(2, "CWT scale localization vs dense quadrature oracle")


def test_c03_cwt_linearity_and_zero():
    zero = cwt(_traj(np.zeros(101)))
    assert np.array_equal(zero.values, np.zeros_like(zero.values))
    x = 20.0 * np.cos(2.0 * np.pi * PCT / 100.0) + 5.0 * np.cos(6.0 * np.pi * PCT / 100.0 + 0.4)
    a = 2.5
    base = cwt(_traj(x)).values
    scaled = cwt(_traj(a * x)).values
    assert np.allclose(scaled, a * base, rtol=1e-12, atol=1e-12 * base.max())
    _passed(3, "CWT linearity and zero signal")


def test_c04_feature_geometry():
    subject = generate(SynthSpec(n_subjects=1, rng_seed=4))[0]
    parts = {}
    for side in (Side.RIGHT, Side.LEFT):
        sc = replace(
            cwt(subject.trajectories[(Joint.HIP, side)]),
            subject_id=subject.id, label=subject.label,
        )
        parts[side] = extract_features(sc, Level.HIGH_SCALE)
        assert len(parts[side]) == 160
    combined = FeatureMatrix.from_parts(
        [(subject.id, subject.label, (Joint.HIP, side), parts[side]) for side in (Side.LEFT, Side.RIGHT)],
        Level.HIGH_SCALE,
    )
    assert len(combined.values[0]) == 320
    assert combined.parts == ((Joint.HIP, Side.RIGHT), (Joint.HIP, Side.LEFT))

    sc = cwt(_traj(np.abs(np.sin(PCT / 7.0)) * 40.0))
    rng = np.random.default_rng(44)
    for frac in rng.uniform(0.05, 0.95, 10):
        r = split_regions(sc, float(frac))
        rebuilt = np.block([[r.stance_low, r.swing_low], [r.stance_high, r.swing_high]])
        assert np.array_equal(rebuilt, sc.values)
    _passed(4, "feature vector geometry and exact region tiling")


def test_c05_som_update_fixed_point():
    schedule = TrainSchedule(
        epochs=1, alpha0=1.0, sigma0=0.0, sigma_end=0.0,
        kernel=Kernel.BUBBLE, rng_seed=0,
    )
    w = np.array([[0.1, -0.7, 2.2], [50.0, 50.0, 50.0]])
    som = SomMap(rows=1, cols=2, weights=w, schedule=schedule)
    x = np.array([0.3, 0.2, -1.9])
    out = train(som, x[None, :])
    assert np.array_equal(out.weights[0], x)  # bit-exact fixed point
    assert np.array_equal(out.weights[1], w[1])
    _passed(5, "SOM update-rule fixed point (bit-exact)")


def test_c06_som_two_cluster_oracle():
    rng = np.random.default_rng(6)
    sep = 10.0
    radius = sep / 20.0  # separation = 20x cluster radius
    mu_a, mu_b = np.array([0.0, 0.0]), np.array([sep, 0.0])
    data = np.vstack([
        mu_a + rng.normal(0.0, radius, (20, 2)),
        mu_b + rng.normal(0.0, radius, (20, 2)),
    ])
    schedule = TrainSchedule(rng_seed=6)  # default schedule
    som = train(init(1, 2, schedule, samples=data), data)
    err = min(
        max(np.linalg.norm(som.weights[0] - mu_a), np.linalg.norm(som.weights[1] - mu_b)),
        max(np.linalg.norm(som.weights[0] - mu_b), np.linalg.norm(som.weights[1] - mu_a)),
    )
    assert err <= 0.10 * sep
    _passed(6, "SOM two-cluster convergence to means")


def test_c07_umatrix_oracle():
    # hand-computed 2x2 case with 1-d weights 0, 2, 6, 9:
    #   h00 = (2+6)/2, h01 = (2+7)/2, h10 = (6+3)/2, h11 = (7+3)/2
    som = SomMap(
        rows=2, cols=2, weights=np.array([[0.0], [2.0], [6.0], [9.0]]),
        schedule=TrainSchedule().resolve(2, 2), trained=True,
    )
    assert np.array_equal(umatrix(som).heights, np.array([[4.0, 4.5], [4.5, 5.0]]))

    flat = SomMap(
        rows=3, cols=3, weights=np.tile([7.0, -1.0], (9, 1)),
        schedule=TrainSchedule().resolve(3, 3), trained=True,
    )
    assert np.array_equal(umatrix(flat).heights, np.zeros((3, 3)))
    _passed(7, "U-Matrix neighbor-mean oracle")


def test_c08_kappa_oracle():
    assert abs(kappa(np.diag([12, 8, 20])) - 1.0) < 1e-12
    assert abs(kappa(np.array([[25, 25], [25, 25]]))) < 1e-12
    m = [[45, 5], [15, 35]]
    total = Fraction(100)
    p_o = Fraction(80) / total
    p_e = (Fraction(50) / total) * (Fraction(60) / total) + (Fraction(50) / total) * (Fraction(40) / total)
    expected = (p_o - p_e) / (1 - p_e)
    assert expected == Fraction(3, 5)
    assert abs(kappa(np.array(m)) - float(expected)) < 1e-12
    _passed(8, "Cohen's kappa oracle (rational arithmetic)")


# The paper's two experiments, which configs/normal_vs_spastic.json and
# configs/laterality.json state for `gaitsig run` (tests/test_config.py
# checks that they agree): both train a 10x10 map on hip HighScale vectors.
MAP_DIMS = (10, 10)
NVS_SIDES = (Side.RIGHT,)
NVS_SPEC = SynthSpec(
    n_subjects=20,
    groups={CP_DP: PerturbationSpec(
        hf_amplitude=5.0, hf_phase_region=GaitRegion.STANCE, jitter_sd=0.5
    )},
    rng_seed=42,
)
NVS_SCHEDULE = TrainSchedule(epochs=200, rng_seed=42, init=InitMode.SAMPLE_INIT)
LATERALITY_SIDES = (Side.RIGHT, Side.LEFT)
LATERALITY_GAIN = 1.6
LATERALITY_SPEC = SynthSpec(
    n_subjects=12,
    rng_seed=21,
    groups={
        CP_LH: PerturbationSpec(hf_amplitude=4.0, asymmetry_gain=LATERALITY_GAIN, jitter_sd=0.3),
        CP_RH: PerturbationSpec(hf_amplitude=4.0, asymmetry_gain=1.0 / LATERALITY_GAIN, jitter_sd=0.3),
        CP_DP: PerturbationSpec(hf_amplitude=4.0, asymmetry_gain=1.0, jitter_sd=0.3),
    },
    include_normal=False,
)
LATERALITY_SCHEDULE = TrainSchedule(epochs=200, rng_seed=21, init=InitMode.SAMPLE_INIT)


def _hip_vectors(subjects, sides, level=Level.HIGH_SCALE):
    """The feature matrix of the subjects' hip parts on these sides, one
    row per subject in id order."""
    return FeatureMatrix.from_parts(
        [
            (s.id, s.label, (Joint.HIP, side), extract_features(cwt(s.trajectories[(Joint.HIP, side)]), level))
            for s in subjects
            for side in sides
        ],
        level,
    )


def test_c09_end_to_end_discrimination():
    subjects = generate(NVS_SPEC)
    # hf amplitude calibrated so class spectra differ >= 10x above harmonic 10
    spastic = next(s for s in subjects if s.label == CP_DP)
    normal = next(s for s in subjects if s.label != CP_DP)
    e_sp = band_energy_above(spastic.trajectories[(Joint.HIP, Side.RIGHT)].samples, 10)
    e_no = band_energy_above(normal.trajectories[(Joint.HIP, Side.RIGHT)].samples, 10)
    assert e_sp >= 10.0 * e_no

    vectors = _hip_vectors(subjects, sides=NVS_SIDES)
    rows, cols = MAP_DIMS
    report = loocv(vectors, NVS_SCHEDULE, rows=rows, cols=cols)
    assert report.recognition_rate >= 0.90
    assert report.kappa >= 0.80

    again = loocv(vectors, NVS_SCHEDULE, rows=rows, cols=cols)
    assert np.array_equal(report.confusion, again.confusion)
    assert report.folds == again.folds
    assert report.kappa == again.kappa
    _passed(9, f"normal-vs-spastic LOOCV (rate={report.recognition_rate:.3f}, kappa={report.kappa:.3f}, deterministic)")


def test_c10_laterality_separation():
    subjects = generate(LATERALITY_SPEC)
    vectors = _hip_vectors(subjects, sides=LATERALITY_SIDES)
    x = vectors.values
    som = train(init(*MAP_DIMS, LATERALITY_SCHEDULE, samples=x), x)
    ids = clusters(umatrix(som)).reshape(-1)  # default threshold
    coords = som.grid_coords()

    nodes = {}
    for label, row in zip(vectors.labels, x):
        nodes.setdefault(label, []).append(best_match(som, row))
    left_clusters = {int(ids[n]) for n in nodes[CP_LH]} - {-1}
    right_clusters = {int(ids[n]) for n in nodes[CP_RH]} - {-1}
    assert left_clusters and right_clusters
    assert not (left_clusters & right_clusters)  # disjoint U-Matrix clusters

    c_left = coords[nodes[CP_LH]].mean(axis=0)
    c_right = coords[nodes[CP_RH]].mean(axis=0)
    c_sym = coords[nodes[CP_DP]].mean(axis=0)
    axis = c_right - c_left
    t = float((c_sym - c_left) @ axis / (axis @ axis))
    assert 0.0 < t < 1.0  # symmetric class lies between left and right
    _passed(10, f"laterality clusters disjoint, symmetric between (t={t:.2f})")


def test_c11_pipeline_determinism(tmp_path):
    config = {
        "seed": 11,
        "synth": {
            "n_subjects": 5,
            "pathology": {"hf_amplitude": 5.0, "hf_phase_region": "Stance", "jitter_sd": 0.5},
        },
        "joints": ["Hip"],
        "sides": ["Right", "Left"],
        "som": {"rows": 6, "cols": 6, "epochs": 60},
        "write_pgm": True,
        "loocv": True,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    trees = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        trees.append({
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        })
    assert trees[0].keys() == trees[1].keys()
    for key in trees[0]:
        assert trees[0][key] == trees[1][key], f"artifact differs across reruns: {key}"
    suffixes = {k.rsplit(".", 1)[-1] for k in trees[0]}
    assert {"csv", "json", "pgm"} <= suffixes
    _passed(11, "byte-identical pipeline reruns (CSV/JSON/PGM)")
