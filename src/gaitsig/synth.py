"""Synthetic labeled gait datasets.

Every subject follows one built-in low-harmonic template, DEFAULT_TEMPLATE
(gait spectra concentrate below the 15th harmonic), with per-subject
Gaussian jitter on the harmonic amplitudes. Pathological subjects
additionally carry a high-frequency component (harmonics 10..20, mimicking
spastic content), a left/right amplitude asymmetry, and/or a timing shift
of the whole cycle.

Everything is a pure function of (spec, seed): per-subject RNG streams are
derived from (seed, class label, subject index), so a dataset is
bit-reproducible and a class's subjects do not depend on how many other
subjects or classes are generated alongside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .data import CANONICAL_GRID_SIZE, STANCE_END_PCT, ClassLabel, GaitTrajectory, Joint, NORMAL, Side, Subject

HF_HARMONICS = tuple(range(10, 21))

Harmonic = tuple[int, float, float]  # (harmonic index, amplitude in degrees, phase in radians)

# The components per joint. Hip: dominant fundamental plus a small 2nd
# harmonic. Knee: two-peak pattern from harmonics 0-3 with the swing-phase
# flexion peak near 60 deg. Ankle: harmonics 1-4. The coefficients are
# a stand-in, not ground truth.
DEFAULT_TEMPLATE: Mapping[Joint, tuple[Harmonic, ...]] = {
    Joint.HIP: ((1, 30.0, 0.0), (2, 4.0, 0.5)),
    Joint.KNEE: ((0, 24.0, 0.0), (1, 19.7, 1.804), (2, 12.6, -2.642), (3, 2.8, -1.915)),
    Joint.ANKLE: ((0, 0.6, 0.0), (1, 3.4, -1.876), (2, 6.3, 1.444), (3, 3.0, -2.536), (4, 2.5, -0.078)),
}


class GaitRegion(Enum):
    STANCE = "Stance"
    SWING = "Swing"


@dataclass(frozen=True)
class PerturbationSpec:
    """Pathology menu applied on top of the normal template.

    hf_amplitude is the l2 norm of the added component amplitudes across
    harmonics 10..20 (degrees), windowed to hf_phase_region of the cycle.
    asymmetry_gain g scales the left side by sqrt(g) and the right by
    1/sqrt(g), so g is the left/right amplitude ratio and g and 1/g are
    mirror images. timing_shift displaces all events by a percentage of the
    cycle (circular). jitter_sd is the per-subject Gaussian amplitude
    jitter applied to every harmonic, shared between sides.
    """

    hf_amplitude: float = 0.0
    hf_phase_region: GaitRegion = GaitRegion.STANCE
    asymmetry_gain: float = 1.0
    timing_shift: float = 0.0
    jitter_sd: float = 0.0

    def __post_init__(self) -> None:
        # not >= 0, so that NaN is refused too
        if not all(x >= 0 for x in (self.hf_amplitude, self.timing_shift, self.jitter_sd)):
            raise ValueError("perturbation magnitudes must be >= 0")
        if not self.asymmetry_gain > 0:
            raise ValueError("asymmetry_gain must be > 0")


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one dataset: n_subjects per class, for the Normal class
    (unless include_normal is false) and each pathological group, each
    class its perturbation of DEFAULT_TEMPLATE.

    The Normal class of include_normal takes the jitter_sd of the first
    group in label order (0 without groups). A Normal class of any other
    jitter is a group named Normal, with include_normal false. Each error
    names the field it is about.
    """

    n_subjects: int
    rng_seed: int
    groups: Mapping[ClassLabel, PerturbationSpec] = field(default_factory=dict)
    include_normal: bool = True

    def __post_init__(self) -> None:
        if self.n_subjects < 1:
            raise ValueError(f"n_subjects: must be >= 1, got {self.n_subjects}")
        if not self.include_normal and not self.groups:
            raise ValueError("include_normal: false with no groups generates nothing")
        # subject ids are <slug>-NNN, so no two classes may share a slug
        owners = {_slug(NORMAL): "the Normal class of include_normal"} if self.include_normal else {}
        for label in sorted(self.groups):
            name, slug = f"group {label.value!r}", _slug(label)
            if owners.setdefault(slug, name) != name:
                raise ValueError(f"groups: {name} would reuse the subject ids {slug}-NNN of {owners[slug]}")
        object.__setattr__(self, "groups", dict(self.groups))


def _hf_components(amplitude: float) -> tuple[Harmonic, ...]:
    """Fixed high-frequency pattern scaled to the requested amplitude.

    Equal weights across harmonics 10..20 with a fixed phase stagger; the
    pattern is deterministic per class so that intra-class variation comes
    only from jitter.
    """
    if amplitude == 0.0:
        return ()
    a = amplitude / math.sqrt(len(HF_HARMONICS))
    return tuple((h, a, 0.7 * h) for h in HF_HARMONICS)


def _region_window(phase_pct: np.ndarray, region: GaitRegion) -> np.ndarray:
    stance = phase_pct < STANCE_END_PCT
    return np.where(stance if region is GaitRegion.STANCE else ~stance, 1.0, 0.0)


def _harmonic_sum(phase: np.ndarray, components: Sequence[Harmonic]) -> np.ndarray:
    """The sum of amp * cos(2 pi h phase/100 + ph) over the components."""
    y = np.zeros_like(phase)
    for h, amp, ph in components:
        y += amp * np.cos(2.0 * np.pi * h * phase / 100.0 + ph)
    return y


def _synth_samples(
    pct: np.ndarray,
    harmonics: Sequence[Harmonic],
    hf: Sequence[Harmonic],
    region: GaitRegion,
    shift: float,
    gain: float,
) -> np.ndarray:
    phase = np.mod(pct - shift, 100.0)
    y = _harmonic_sum(phase, harmonics)
    if hf:
        y += _region_window(phase, region) * _harmonic_sum(phase, hf)
    return gain * y


def _jittered(components: Sequence[Harmonic], sd: float, rng: np.random.Generator) -> list[Harmonic]:
    """The components with one Gaussian jitter draw added to each amplitude;
    an empty list draws nothing."""
    jitter = rng.normal(0.0, 1.0, len(components)) * sd
    return [(h, amp + d, ph) for (h, amp, ph), d in zip(components, jitter)]


def _make_subject(
    sid: str,
    label: ClassLabel,
    perturbation: PerturbationSpec,
    rng: np.random.Generator,
) -> Subject:
    pct = np.linspace(0.0, 100.0, CANONICAL_GRID_SIZE)
    jitter_sd = perturbation.jitter_sd
    hf_base = _hf_components(perturbation.hf_amplitude)
    region = perturbation.hf_phase_region
    shift = perturbation.timing_shift
    root = math.sqrt(perturbation.asymmetry_gain)
    gain_left, gain_right = root, 1.0 / root

    trajectories = {}
    # canonical joint order fixes the RNG draw sequence
    for joint in Joint:
        # one jitter draw per amplitude, shared by both sides
        harmonics = _jittered(DEFAULT_TEMPLATE[joint], jitter_sd, rng)
        hf = _jittered(hf_base, jitter_sd, rng)
        for side, gain in ((Side.RIGHT, gain_right), (Side.LEFT, gain_left)):
            samples = _synth_samples(pct, harmonics, hf, region, shift, gain)
            try:
                traj = GaitTrajectory(joint=joint, side=side, samples=samples)
            except ValueError as exc:
                # the jittered angles of this draw left the valid range
                raise ValueError(f"subject {sid!r} {joint.value}/{side.value}: {exc}") from None
            trajectories[(joint, side)] = traj
    return Subject(id=sid, label=label, trajectories=trajectories)


def _slug(label: ClassLabel) -> str:
    return label.value.lower().replace(" ", "-")


def _class_stream(label: ClassLabel) -> int:
    # injective label -> int so per-class RNG streams are stable across
    # dataset compositions
    return int.from_bytes(label.value.encode("utf-8"), "big")


def generate(spec: SynthSpec) -> list[Subject]:
    """The dataset described by spec: n_subjects per class, the Normal
    class first and then each group in sorted label order.

    Per-class RNG streams key on the class label itself, so a class's
    subjects are identical regardless of which other classes are generated
    alongside it.
    """
    groups = sorted(spec.groups.items())
    # Normal is the identity perturbation: no HF burst, no shift, gain 1
    normal = PerturbationSpec(jitter_sd=groups[0][1].jitter_sd if groups else 0.0)
    classes = [(NORMAL, normal)] if spec.include_normal else []
    return [
        _make_subject(
            f"{_slug(label)}-{k:03d}", label, pert,
            np.random.default_rng([spec.rng_seed, _class_stream(label), k]),
        )
        for label, pert in classes + groups
        for k in range(spec.n_subjects)
    ]
