"""Continuous wavelet transform of gait trajectories with the Morlet wavelet.

The mother wavelet is a complex sine localized by a Gaussian envelope,

    psi(t) = (1/sqrt(2*pi)) * exp(-t^2/2) * (cos(2*pi*nu0*t) + i*sin(2*pi*nu0*t)),

admissible for nu0 > 0.8 (default nu0 = 1.0). The transform of a signal x
on the cycle-percentage axis is discretized by the rectangle rule on the
trajectory's own grid:

    W(s, tau) = (1/sqrt(s)) * sum_k x(t_k) * conj(psi((t_k - tau)/s)) * dt,

with the wavelet truncated at |t - tau| > truncation_radius * s (the
scaled Gaussian's standard deviation is s, so the default radius of 5
leaves tail mass below 1e-6). tau ranges over every grid point; the signal
is treated as zero outside [0, 100] by default, with periodic extension
available as an option. Scalograms store the magnitude |W|.

A low scale responds to high-frequency content and vice versa: a pure
sinusoid of frequency f (cycles per percent) peaks near scale nu0/f.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import ClassLabel, GaitTrajectory, Joint, Side, csv_fields, undecodable_as

_GAUSS_NORM = 1.0 / math.sqrt(2.0 * math.pi)

DEFAULT_SCALE_COUNT = 12
DEFAULT_SCALE_MIN = 1.0
DEFAULT_SCALE_MAX = 25.0
# A Morlet kernel has 2*floor(radius*scale/dt)+1 taps: a truncation radius
# of 10, where the Gaussian is below 2e-22 of its peak, and a scale of 200,
# two gait cycles, cap it at 4001 taps on the 101-point grid.
LARGEST_TRUNCATION_RADIUS = 10
LARGEST_SCALE = 200


@dataclass(frozen=True)
class MorletParams:
    nu0: float = 1.0
    truncation_radius: float = 5.0

    def __post_init__(self) -> None:
        if not self.nu0 > 0.8:
            raise ValueError(f"nu0 must be > 0.8 for admissibility, got {self.nu0}")
        if not self.truncation_radius >= 3.0:
            raise ValueError(
                f"truncation_radius must be >= 3, got {self.truncation_radius}"
            )
        if self.truncation_radius > LARGEST_TRUNCATION_RADIUS:
            raise ValueError(
                f"truncation_radius must be <= {LARGEST_TRUNCATION_RADIUS}, "
                f"got {self.truncation_radius}"
            )


@dataclass(frozen=True, eq=False)
class ScaleGrid:
    """Ordered scale values in units of the cycle-percentage axis."""

    scales: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.scales, dtype=float)
        if arr.ndim != 1 or len(arr) == 0:
            raise ValueError("scales must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)) or not np.all(arr > 0):
            raise ValueError("scales must be finite and > 0")
        if not np.all(np.diff(arr) > 0):
            raise ValueError("scales must be strictly increasing")
        if arr[-1] > LARGEST_SCALE:
            raise ValueError(f"scales must be <= {LARGEST_SCALE}")
        arr.setflags(write=False)
        object.__setattr__(self, "scales", arr)

    @classmethod
    def default(
        cls,
        count: int = DEFAULT_SCALE_COUNT,
        lo: float = DEFAULT_SCALE_MIN,
        hi: float = DEFAULT_SCALE_MAX,
    ) -> "ScaleGrid":
        """Logarithmically spaced scales, by default 12 over [1, 25]."""
        if count < 2:
            raise ValueError("scale count must be >= 2")
        return cls(np.geomspace(lo, hi, count))

    def __len__(self) -> int:
        return len(self.scales)

    def nearest_index(self, s: float) -> int:
        return int(np.argmin(np.abs(self.scales - s)))


class Boundary(Enum):
    ZERO = "zero"
    PERIODIC = "periodic"


@dataclass(frozen=True, eq=False)
class Scalogram:
    """|CWT| magnitudes, one row per scale, one column per grid point."""

    values: np.ndarray
    time_axis: np.ndarray
    scale_axis: ScaleGrid
    joint: Joint
    side: Side
    subject_id: str = ""
    label: ClassLabel | None = None

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        taxis = np.array(self.time_axis, dtype=float)
        if vals.shape != (len(self.scale_axis), len(taxis)):
            raise ValueError(
                f"values shape {vals.shape} inconsistent with axes "
                f"({len(self.scale_axis)}, {len(taxis)})"
            )
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("scalogram values must be finite and >= 0")
        vals.setflags(write=False)
        taxis.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "time_axis", taxis)


def morlet(t, params: MorletParams | None = None):
    """Evaluate the Morlet mother wavelet; complex, vectorized over t."""
    if params is None:
        params = MorletParams()
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("t must be finite")
    envelope = _GAUSS_NORM * np.exp(-0.5 * arr * arr)
    angle = 2.0 * np.pi * params.nu0 * arr
    out = envelope * (np.cos(angle) + 1j * np.sin(angle))
    return complex(out) if np.isscalar(t) else out


def _half_width(radius: float, dt: float) -> int:
    """Largest m with m*dt <= radius, robust at float boundaries. From
    2**53 on, floats are further apart than 1 and the steps below would
    take about half their spacing to finish, so radius/dt must be less."""
    if not radius / dt < 2.0**53:
        raise ValueError(f"truncation half-width radius/dt must be < 2**53, got {radius / dt}")
    k = max(int(math.floor(radius / dt)), 0)
    while (k + 1) * dt <= radius:
        k += 1
    while k > 0 and k * dt > radius:
        k -= 1
    return k


def _periodic_extend(x: np.ndarray, k: int) -> np.ndarray:
    # period = grid_size - 1 samples (the 100% sample starts the next cycle)
    p = len(x) - 1
    left = x[np.mod(np.arange(-k, 0), p)]
    right = x[np.mod(np.arange(len(x), len(x) + k), p)]
    return np.concatenate([left, x, right])


@functools.lru_cache(maxsize=8)
def _kernels(
    scales: tuple[float, ...], params: MorletParams, dt: float
) -> tuple[tuple[int, np.ndarray], ...]:
    """Per scale, the truncation half-width k and the flipped, conjugated,
    scaled Morlet kernel on offsets -k..k. A cohort's curves share one
    grid and one dt, so the kernels are built once; they are read-only,
    since every caller gets the same arrays."""
    out = []
    for s in scales:
        k = _half_width(params.truncation_radius * s, dt)
        offsets = np.arange(-k, k + 1)
        kernel = np.conj(morlet(offsets * dt / s, params)) * (dt / math.sqrt(s))
        # column j = sum_k x[k] * kernel[k - j]  ==  (x * flip(kernel))[j + k]
        flipped = kernel[::-1]
        flipped.setflags(write=False)
        out.append((k, flipped))
    return tuple(out)


def cwt(
    traj: GaitTrajectory,
    grid: ScaleGrid | None = None,
    params: MorletParams | None = None,
    boundary: Boundary = Boundary.ZERO,
    subject_id: str = "",
    label: ClassLabel | None = None,
) -> Scalogram:
    """Morlet scalogram of one trajectory on (scale grid x trajectory grid),
    carrying the given subject id and label.

    Direct (non-FFT) convolution per scale; scales write disjoint rows, so
    the result does not depend on evaluation order.
    """
    if grid is None:
        grid = ScaleGrid.default()
    if params is None:
        params = MorletParams()
    if not isinstance(grid, ScaleGrid):
        raise ValueError("grid must be a ScaleGrid")
    x = traj.samples
    n = traj.grid_size
    dt = 100.0 / (n - 1)
    rows = np.empty((len(grid), n))
    for i, (k, flipped) in enumerate(_kernels(tuple(grid.scales.tolist()), params, dt)):
        if boundary is Boundary.PERIODIC:
            # k samples either side: "valid" keeps the full convolution's [2k, 2k + n)
            coeff = np.convolve(_periodic_extend(x, k), flipped, "valid")
        else:
            conv = np.convolve(x, flipped)
            coeff = conv[k : k + n]
        rows[i] = np.abs(coeff)
    return Scalogram(
        values=rows,
        time_axis=traj.pct_axis,
        scale_axis=grid,
        joint=traj.joint,
        side=traj.side,
        subject_id=subject_id,
        label=label,
    )


# --- scalogram CSV interchange ---------------------------------------------
#
# Matrix CSV (row = scale, column = cycle %), preceded by '#' comment lines
# carrying provenance and both axes so files are self-describing. The
# provenance line is a space-delimited CSV record, so any subject id and
# label text reads back unchanged; plain ids give plain `key=value` tokens.


def write_scalogram_csv(sc: Scalogram, path) -> None:
    label = sc.label.value if sc.label is not None else ""
    header = [
        "#",
        "scalogram",
        f"subject={sc.subject_id}",
        f"label={label}",
        f"joint={sc.joint.value}",
        f"side={sc.side.value}",
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_fields(header, " ") + "\n")
        fh.write("# scales=" + ",".join(map(repr, sc.scale_axis.scales.tolist())) + "\n")
        fh.write("# pct=" + ",".join(map(repr, sc.time_axis.tolist())) + "\n")
        for row in sc.values.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def read_scalogram_csv(path) -> Scalogram:
    scales: np.ndarray | None = None
    pct: np.ndarray | None = None
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh, undecodable_as(ValueError, path):
        header = csv.reader(fh, delimiter=" ")
        fields = next(header, [])
        if fields[:2] != ["#", "scalogram"]:
            raise ValueError(f"{path}: missing scalogram header lines")
        meta = dict(f.partition("=")[::2] for f in fields[2:])
        for key in ("subject", "joint", "side"):
            if key not in meta:
                raise ValueError(f"{path}:1: provenance line has no {key}= field")
        for lineno, line in enumerate(fh, start=header.line_num + 1):
            line = line.strip()
            try:
                if line.startswith("# scales="):
                    scales = np.array(list(map(float, line[len("# scales="):].split(","))))
                elif line.startswith("# pct="):
                    pct = np.array(list(map(float, line[len("# pct="):].split(","))))
                elif line and not line.startswith("#"):
                    rows.append((lineno, list(map(float, line.split(",")))))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if scales is None or pct is None:
        raise ValueError(f"{path}: missing scalogram header lines")
    for lineno, row in rows:
        if len(row) != len(pct):
            raise ValueError(f"{path}:{lineno}: {len(row)} values, but the # pct= axis has {len(pct)}")
    try:
        return Scalogram(
            values=np.array([row for _, row in rows]),
            time_axis=pct,
            scale_axis=ScaleGrid(scales),
            joint=Joint(meta["joint"]),
            side=Side(meta["side"]),
            subject_id=meta["subject"],
            label=ClassLabel(meta["label"]) if meta.get("label") else None,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
