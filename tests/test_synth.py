import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitsig.data import CP_DP, CP_LH, CP_RH, ClassLabel, Joint, NORMAL, Side
from gaitsig.synth import GaitRegion, PerturbationSpec, SynthSpec, generate

from oracles import band_energy_above, reference_synth_trajectory

HIP_R = (Joint.HIP, Side.RIGHT)
HIP_L = (Joint.HIP, Side.LEFT)


def _identical_datasets(a, b):
    assert len(a) == len(b)
    for s, t in zip(a, b):
        assert s.id == t.id and s.label == t.label
        assert s.trajectories.keys() == t.trajectories.keys()
        for key in s.trajectories:
            assert np.array_equal(s.trajectories[key].samples, t.trajectories[key].samples)


class TestSpecValidation:
    def test_template_harmonic_cap(self):
        with pytest.raises(ValueError, match="harmonic index"):
            SynthSpec(n_subjects=1, rng_seed=0, template={Joint.HIP: ((16, 1.0, 0.0),)})

    def test_n_subjects_positive(self):
        with pytest.raises(ValueError, match="n_subjects"):
            SynthSpec(n_subjects=0, rng_seed=0)

    def test_something_to_generate(self):
        with pytest.raises(ValueError, match="generates nothing"):
            SynthSpec(n_subjects=1, rng_seed=0, include_normal=False)

    @pytest.mark.parametrize("jitter", [-1.0, float("nan")])
    def test_normal_jitter_sd_non_negative(self, jitter):
        # a Normal class of its own jitter is a group named Normal; a negative
        # sd would negate the jitter draws, and a NaN one fail late, per subject
        with pytest.raises(ValueError, match="^perturbation magnitudes must be >= 0$"):
            SynthSpec(n_subjects=1, rng_seed=0, groups={NORMAL: PerturbationSpec(jitter_sd=jitter)},
                      include_normal=False)

    def test_perturbation_validation(self):
        with pytest.raises(ValueError, match="asymmetry_gain"):
            PerturbationSpec(asymmetry_gain=0.0)
        with pytest.raises(ValueError, match=">= 0"):
            PerturbationSpec(hf_amplitude=-1.0)


class TestGenerate:
    def test_degenerate_spec_gives_identical_normals(self):
        subjects = generate(SynthSpec(n_subjects=2, rng_seed=5))
        assert len(subjects) == 2
        assert all(s.label == NORMAL for s in subjects)
        for key in subjects[0].trajectories:
            assert np.array_equal(
                subjects[0].trajectories[key].samples,
                subjects[1].trajectories[key].samples,
            )

    def test_same_seed_bit_identical(self):
        spec = SynthSpec(
            n_subjects=3,
            groups={CP_DP: PerturbationSpec(hf_amplitude=4.0, jitter_sd=0.8)},
            rng_seed=123,
        )
        _identical_datasets(generate(spec), generate(spec))

    def test_different_seed_differs(self):
        base = dict(n_subjects=2, groups={CP_DP: PerturbationSpec(jitter_sd=1.0)})
        a = generate(SynthSpec(rng_seed=1, **base))
        b = generate(SynthSpec(rng_seed=2, **base))
        assert not np.array_equal(
            a[0].trajectories[HIP_R].samples, b[0].trajectories[HIP_R].samples
        )

    def test_labels_and_counts(self):
        spec = SynthSpec(
            n_subjects=4, groups={CP_DP: PerturbationSpec(hf_amplitude=2.0)}, rng_seed=0
        )
        subjects = generate(spec)
        assert len(subjects) == 8
        assert sum(s.label == NORMAL for s in subjects) == 4
        assert sum(s.label == CP_DP for s in subjects) == 4
        assert len({s.id for s in subjects}) == 8

    def test_stance_hf_energy_ratio_at_least_10x(self):
        # the acceptance-criterion-9 calibration case: 5 deg of stance-phase
        # high-frequency content, checked with the independent FFT oracle
        spec = SynthSpec(
            n_subjects=1,
            groups={CP_DP: PerturbationSpec(hf_amplitude=5.0, hf_phase_region=GaitRegion.STANCE)},
            rng_seed=9,
        )
        normal, spastic = generate(spec)
        e_normal = band_energy_above(normal.trajectories[HIP_R].samples, 10)
        e_spastic = band_energy_above(spastic.trajectories[HIP_R].samples, 10)
        assert e_spastic >= 10.0 * e_normal
        assert e_spastic > 1.0  # non-trivial absolute energy

    def test_hf_energy_monotone_in_amplitude(self):
        energies = []
        for amp in (1.0, 2.0, 4.0, 8.0):
            spec = SynthSpec(
                n_subjects=1,
                groups={CP_DP: PerturbationSpec(hf_amplitude=amp, hf_phase_region=GaitRegion.BOTH)},
                rng_seed=9,
            )
            _, path = generate(spec)
            energies.append(band_energy_above(path.trajectories[HIP_R].samples, 10))
        assert all(a < b for a, b in zip(energies, energies[1:]))

    def test_swing_region_places_energy_in_swing(self):
        spec = SynthSpec(
            n_subjects=1,
            groups={CP_DP: PerturbationSpec(hf_amplitude=5.0, hf_phase_region=GaitRegion.SWING)},
            rng_seed=2,
        )
        _, path = generate(spec)
        normal = generate(SynthSpec(n_subjects=1, rng_seed=2))[0]
        diff = path.trajectories[HIP_R].samples - normal.trajectories[HIP_R].samples
        pct = np.linspace(0, 100, 101)
        assert np.allclose(diff[pct < 60.0], 0.0, atol=1e-12)
        assert np.max(np.abs(diff[pct >= 60.0])) > 0.5

    def test_symmetric_gain_means_equal_sides(self):
        spec = SynthSpec(
            n_subjects=2,
            groups={CP_DP: PerturbationSpec(hf_amplitude=3.0, asymmetry_gain=1.0, jitter_sd=0.7)},
            rng_seed=4,
        )
        for subj in generate(spec):
            assert np.array_equal(
                subj.trajectories[HIP_R].samples, subj.trajectories[HIP_L].samples
            )

    def test_asymmetry_gain_is_left_right_ratio(self):
        gain = 1.8
        spec = SynthSpec(
            n_subjects=1,
            groups={CP_DP: PerturbationSpec(asymmetry_gain=gain)},
            rng_seed=4,
        )
        _, path = generate(spec)
        left = path.trajectories[HIP_L].samples
        right = path.trajectories[HIP_R].samples
        ratio = np.linalg.norm(left) / np.linalg.norm(right)
        assert ratio == pytest.approx(gain, rel=1e-12)

    def test_timing_shift_is_circular_shift(self):
        # a 5% shift on the canonical grid moves samples by 5 columns
        spec0 = SynthSpec(
            n_subjects=1, groups={CP_DP: PerturbationSpec(timing_shift=0.0)}, rng_seed=6
        )
        spec5 = SynthSpec(
            n_subjects=1, groups={CP_DP: PerturbationSpec(timing_shift=5.0)}, rng_seed=6
        )
        _, p0 = generate(spec0)
        _, p5 = generate(spec5)
        base = p0.trajectories[HIP_R].samples[:-1]  # one period
        shifted = p5.trajectories[HIP_R].samples[:-1]
        assert np.allclose(shifted, np.roll(base, 5), atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_determinism_property(self, seed):
        spec = SynthSpec(
            n_subjects=2,
            groups={CP_DP: PerturbationSpec(hf_amplitude=2.0, jitter_sd=0.5)},
            rng_seed=seed,
        )
        _identical_datasets(generate(spec), generate(spec))

    @settings(max_examples=150, deadline=None)
    @given(
        template=st.dictionaries(
            st.sampled_from(Joint),
            st.lists(st.tuples(st.integers(0, 15), st.floats(-40, 40), st.floats(-4, 4)), max_size=4),
            min_size=1,
        ),
        label=st.sampled_from(["CP-dp", "Polio", "pt group 2"]),
        seed=st.integers(0, 2**32 - 1),
        jitter_sd=st.just(0.0) | st.floats(0, 3),
        hf_amplitude=st.just(0.0) | st.floats(0, 20),
        region=st.sampled_from(GaitRegion),
        timing_shift=st.just(0.0) | st.floats(0, 100),
        asymmetry_gain=st.just(1.0) | st.floats(0.25, 4),
    )
    def test_matches_the_reference_recipe_bit_for_bit(
        self, template, label, seed, jitter_sd, hf_amplitude, region, timing_shift, asymmetry_gain
    ):
        pert = PerturbationSpec(hf_amplitude=hf_amplitude, hf_phase_region=region, asymmetry_gain=asymmetry_gain,
                                timing_shift=timing_shift, jitter_sd=jitter_sd)
        spec = SynthSpec(n_subjects=2, rng_seed=seed, template=template, groups={ClassLabel(label): pert},
                         include_normal=False)
        names = {j.value: hs for j, hs in template.items()}
        expected = [
            reference_synth_trajectory(names, seed, label, k, hf_amplitude, region.value, timing_shift,
                                       asymmetry_gain, jitter_sd)
            for k in range(2)
        ]
        if max(np.abs(y).max() for subject in expected for y in subject.values()) > 180.0:
            with pytest.raises(ValueError, match=r"\|angle\| must be <= 180.0 degrees$"):
                generate(spec)
            return
        subjects = generate(spec)
        for subject, parts in zip(subjects, expected):
            got = {(j.value, s.value): t.samples for (j, s), t in subject.trajectories.items()}
            assert got.keys() == parts.keys()
            for part, y in parts.items():
                assert got[part].tobytes() == y.tobytes(), part


class TestGenerateGroups:
    def test_group_streams_independent_of_composition(self):
        groups_all = {
            CP_LH: PerturbationSpec(asymmetry_gain=1.5, jitter_sd=0.2),
            CP_RH: PerturbationSpec(asymmetry_gain=1 / 1.5, jitter_sd=0.2),
        }
        both = generate(SynthSpec(n_subjects=2, rng_seed=7, groups=groups_all, include_normal=False))
        only_lh = generate(
            SynthSpec(n_subjects=2, rng_seed=7, groups={CP_LH: groups_all[CP_LH]}, include_normal=False)
        )
        lh_from_both = [s for s in both if s.label == CP_LH]
        _identical_datasets(lh_from_both, only_lh)

    @pytest.mark.parametrize("group_jitter", [0.0, 0.7, None])
    def test_normal_is_the_identity_perturbation(self, group_jitter):
        # the Normal class equals a group named Normal with only the first
        # group's jitter, or none without groups (None)
        groups = {} if group_jitter is None else {CP_DP: PerturbationSpec(
            hf_amplitude=3.0, asymmetry_gain=1.4, timing_shift=2.0, jitter_sd=group_jitter)}
        with_normal = generate(SynthSpec(n_subjects=3, rng_seed=9, groups=groups))
        as_group = generate(SynthSpec(
            n_subjects=3, rng_seed=9, groups={NORMAL: PerturbationSpec(jitter_sd=group_jitter or 0.0)},
            include_normal=False,
        ))
        _identical_datasets([s for s in with_normal if s.label == NORMAL], as_group)

    @pytest.mark.parametrize("jitter_sd", [0.0, 0.3, 2.0])
    def test_normal_group_matches_the_reference_recipe_bit_for_bit(self, jitter_sd):
        # a Normal class of its own jitter: first in the dataset, normal-NNN ids
        pathology = PerturbationSpec(hf_amplitude=5.0, jitter_sd=0.5)
        spec = SynthSpec(n_subjects=2, rng_seed=42, groups={CP_DP: pathology, NORMAL: PerturbationSpec(
            jitter_sd=jitter_sd)}, include_normal=False)
        subjects = generate(spec)
        assert [s.id for s in subjects] == ["normal-000", "normal-001", "cp-dp-000", "cp-dp-001"]
        template = {j.value: hs for j, hs in spec.template.items()}
        for k, subject in enumerate(subjects[:2]):
            expected = reference_synth_trajectory(template, 42, "Normal", k, jitter_sd=jitter_sd)
            got = {(j.value, s.value): t.samples for (j, s), t in subject.trajectories.items()}
            assert got.keys() == expected.keys()
            for part, y in expected.items():
                assert got[part].tobytes() == y.tobytes(), part

    def test_empty_generation_rejected(self):
        with pytest.raises(ValueError):
            generate(SynthSpec(n_subjects=0, rng_seed=0))

    @pytest.mark.parametrize("labels, message", [
        ([ClassLabel("Normal")], "group 'Normal' would reuse the subject ids normal-NNN of the Normal class"),
        ([ClassLabel("normal")], "group 'normal' would reuse the subject ids normal-NNN of the Normal class"),
        ([ClassLabel("X y"), ClassLabel("x-Y")], "group 'x-Y' would reuse the subject ids x-y-NNN of group 'X y'"),
    ], ids=["normal", "normal-lowercase", "two-groups"])
    def test_classes_sharing_subject_ids_rejected(self, labels, message):
        with pytest.raises(ValueError, match=f"^groups: {message}"):
            SynthSpec(n_subjects=1, rng_seed=0, groups={lab: PerturbationSpec() for lab in labels})
        SynthSpec(n_subjects=1, rng_seed=0, groups={labels[-1]: PerturbationSpec()}, include_normal=len(labels) > 1)

    @pytest.mark.parametrize("group, normal_jitter, part", [
        (PerturbationSpec(hf_amplitude=1e300), 0.0, "'cp-dp-000' Hip/Right"),
        (PerturbationSpec(asymmetry_gain=1e-300), 0.0, "'cp-dp-000' Hip/Right"),
        (PerturbationSpec(asymmetry_gain=1e300), 0.0, "'cp-dp-000' Hip/Left"),
        (PerturbationSpec(), 1e300, "'normal-000' Hip/Right"),
    ], ids=["hf-amplitude", "gain-small", "gain-large", "normal-jitter"])
    def test_out_of_range_angles_name_the_subject_and_part(self, group, normal_jitter, part):
        spec = SynthSpec(n_subjects=1, rng_seed=0, include_normal=False,
                         groups={CP_DP: group, NORMAL: PerturbationSpec(jitter_sd=normal_jitter)})
        with pytest.raises(ValueError, match=f"^subject {part}: \\|angle\\| must be <= 180.0 degrees$"):
            generate(spec)

    def test_mirror_gains_are_side_swaps(self):
        g = 1.6
        groups = {
            CP_LH: PerturbationSpec(asymmetry_gain=g),
            CP_RH: PerturbationSpec(asymmetry_gain=1 / g),
        }
        subs = generate(SynthSpec(n_subjects=1, rng_seed=3, groups=groups, include_normal=False))
        lh = next(s for s in subs if s.label == CP_LH)
        rh = next(s for s in subs if s.label == CP_RH)
        assert np.allclose(
            lh.trajectories[HIP_L].samples, rh.trajectories[HIP_R].samples, atol=1e-12
        )
        assert np.allclose(
            lh.trajectories[HIP_R].samples, rh.trajectories[HIP_L].samples, atol=1e-12
        )
