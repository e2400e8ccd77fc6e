import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitsig import wavelet
from gaitsig.data import ClassLabel, Joint, Side
from gaitsig.pgm import to_gray, write_pgm
from gaitsig.wavelet import (
    MorletParams,
    ScaleGrid,
    Scalogram,
    cwt,
    morlet,
    read_scalogram_csv,
    write_scalogram_csv,
)

from conftest import harmonic_signal, make_traj
from oracles import reference_read_pgm

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TestMorlet:
    def test_value_at_zero(self):
        v = morlet(0.0)
        assert v.real == pytest.approx(INV_SQRT_2PI, abs=1e-15)
        assert v.imag == 0.0

    def test_value_at_one(self):
        # envelope * cos(2*pi) = exp(-1/2)/sqrt(2*pi); sin(2*pi) ~ 0
        v = morlet(1.0)
        assert v.real == pytest.approx(INV_SQRT_2PI * math.exp(-0.5), abs=1e-12)
        assert abs(v.imag) < 1e-12

    def test_even_odd_symmetry(self):
        for t in (0.37, 1.9, 3.3):
            plus, minus = morlet(t), morlet(-t)
            assert plus.real == pytest.approx(minus.real, abs=1e-12)
            assert plus.imag == pytest.approx(-minus.imag, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        ts = np.array([-1.2, 0.0, 0.4, 2.0])
        vec = morlet(ts)
        for t, v in zip(ts, vec):
            assert v == morlet(float(t))

    def test_admissibility_enforced(self):
        with pytest.raises(ValueError, match="admissibility"):
            MorletParams(nu0=0.8)
        MorletParams(nu0=0.81)  # boundary is strict

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            morlet(float("nan"))


class TestScaleGrid:
    def test_default_12_log_spaced(self):
        grid = ScaleGrid.default()
        assert len(grid) == 12
        assert grid.scales[0] == 1.0 and grid.scales[-1] == 25.0
        ratios = grid.scales[1:] / grid.scales[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            ScaleGrid([1.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="> 0"):
            ScaleGrid([-1.0, 2.0])
        with pytest.raises(ValueError, match="non-empty"):
            ScaleGrid([])

    @pytest.mark.parametrize("largest", [math.nextafter(200.0, math.inf), 1e7])
    def test_largest_scale(self, largest):
        with pytest.raises(ValueError, match="^scales must be <= 200$"):
            ScaleGrid([1.0, largest])
        assert ScaleGrid([1.0, 200.0]).scales[-1] == 200.0
        assert ScaleGrid(np.geomspace(1.0, 200.0, 8)).scales[-1] == 200.0

    def test_largest_scale_count(self):
        # a library grid takes the config's bound on wavelet.scales
        with pytest.raises(ValueError, match="^scales must hold at most 1000 values, got 1001$"):
            ScaleGrid(np.arange(1, 1002) / 10)
        with pytest.raises(ValueError, match="^scales must hold at most 1000 values, got 1001$"):
            ScaleGrid.default(count=1001)
        assert len(ScaleGrid(np.arange(1, 1001) / 10)) == len(ScaleGrid.default(count=1000)) == 1000

    def test_nearest_index(self):
        grid = ScaleGrid.default()
        assert grid.nearest_index(8.0) == 7
        assert grid.nearest_index(1.0) == 0
        assert grid.nearest_index(100.0) == 11


class TestCwt:
    def test_zero_signal_gives_exact_zeros(self):
        sc = cwt(make_traj(np.zeros(101)))
        assert np.array_equal(sc.values, np.zeros_like(sc.values))

    def test_linearity(self):
        pct = np.linspace(0, 100, 101)
        x = harmonic_signal(pct, [(1, 20.0, 0.3), (3, 5.0, 1.0)])
        base = cwt(make_traj(x)).values
        scaled = cwt(make_traj(2.5 * x)).values
        assert np.allclose(scaled, 2.5 * base, rtol=1e-12, atol=1e-12)

    def test_negative_scaling_gives_same_magnitude(self):
        pct = np.linspace(0, 100, 101)
        x = harmonic_signal(pct, [(2, 10.0, 0.0)])
        assert np.allclose(
            cwt(make_traj(-x)).values, cwt(make_traj(x)).values, rtol=1e-12, atol=1e-12
        )

    def test_matches_reference_quadrature(self):
        # the dual-route check: direct double-loop quadrature of the
        # defining sum, written independently in tests/oracles.py
        from oracles import reference_cwt

        rng = np.random.default_rng(42)
        x = rng.uniform(-30, 30, 101)
        sc = cwt(make_traj(x))
        ref = reference_cwt(x, dt=1.0, scales=sc.scale_axis.scales)
        assert np.allclose(sc.values, ref, rtol=1e-12, atol=1e-12 * ref.max())

    def test_scale_localization_single_tone(self):
        # nu0/f = 8 inside [1, 25]: interior columns must peak within one
        # bin of the grid scale nearest 8
        grid = ScaleGrid.default()
        pct = np.linspace(0, 100, 101)
        sc = cwt(make_traj(10.0 * np.cos(2 * np.pi * pct / 8.0)), grid)
        near = grid.nearest_index(8.0)
        for col in range(35, 66):
            assert abs(int(np.argmax(sc.values[:, col])) - near) <= 1

    def test_shift_covariance_interior_bump(self):
        # compactly supported bump translated by 20% translates interior
        # scalogram columns by 20 bins (within one bin)
        pct = np.linspace(0, 100, 101)

        def bump(center):
            w = np.clip(1 - ((pct - center) / 8.0) ** 2, 0.0, None)
            return 30.0 * w * w

        row = 3  # scale ~2.4: support well inside the record for both bumps
        a = cwt(make_traj(bump(30.0))).values[row]
        b = cwt(make_traj(bump(50.0))).values[row]
        assert abs(int(np.argmax(b)) - int(np.argmax(a)) - 20) <= 1

    def test_discretization_convergence(self):
        # doubling the grid changes interior values by < 1% of the
        # interior peak for the default low-harmonic template
        harmonics = [(1, 30.0, 0.0), (2, 4.0, 0.5)]
        coarse_pct = np.linspace(0, 100, 101)
        fine_pct = np.linspace(0, 100, 201)
        sc_coarse = cwt(make_traj(harmonic_signal(coarse_pct, harmonics)))
        sc_fine = cwt(make_traj(harmonic_signal(fine_pct, harmonics)))
        # the interior: the +-2 sigma envelope of each scale lies inside [0, 100]
        half = 2.0 * sc_coarse.scale_axis.scales[:, None]
        t = sc_coarse.time_axis[None, :]
        interior = (t - half >= 0.0) & (t + half <= 100.0)
        # compare on shared columns (fine grid contains the coarse one)
        diff = np.abs(sc_fine.values[:, ::2] - sc_coarse.values)
        peak = sc_coarse.values[interior].max()
        # scales below the 2-sample oscillation limit are knowingly
        # under-sampled on the 1% grid; convergence applies above it
        sampled_ok = sc_coarse.scale_axis.scales >= 2.0
        assert np.max(diff[np.ix_(sampled_ok, np.arange(101))]
                      [interior[sampled_ok]]) < 0.01 * peak

    def test_provenance_and_invariants(self):
        traj = make_traj(np.ones(101), joint=Joint.KNEE, side=Side.LEFT)
        sc = cwt(traj)
        assert sc.joint is Joint.KNEE and sc.side is Side.LEFT
        assert sc.values.shape == (12, 101)
        assert np.all(sc.values >= 0) and np.all(np.isfinite(sc.values))

    def test_subject_and_label_set_on_the_scalogram(self):
        traj = make_traj(np.linspace(-5.0, 5.0, 101), joint=Joint.ANKLE, side=Side.LEFT)
        got = cwt(traj, None, None, subject_id="pt 7", label=ClassLabel("CP-lh"))
        want = replace(cwt(traj), subject_id="pt 7", label=ClassLabel("CP-lh"))
        assert got.values.tobytes() == want.values.tobytes()
        assert got.time_axis.tobytes() == want.time_axis.tobytes()
        assert got.scale_axis.scales.tobytes() == want.scale_axis.scales.tobytes()
        assert (got.subject_id, got.label, got.joint, got.side) == (
            want.subject_id, want.label, want.joint, want.side,
        )

    def test_bad_grid_type_rejected(self):
        with pytest.raises(ValueError, match="ScaleGrid"):
            cwt(make_traj(np.zeros(101)), grid=np.array([1.0, 2.0]))


def uncached_cwt(traj, grid, params):
    """Reference: the transform with every kernel built inline, per call."""
    x, n = traj.samples, traj.grid_size
    dt = 100.0 / (n - 1)
    rows = np.empty((len(grid), n))
    for i, s in enumerate(grid.scales):
        k = wavelet._half_width(5.0 * s, dt)
        kernel = np.conj(morlet(np.arange(-k, k + 1) * dt / s, params)) * (dt / math.sqrt(s))
        rows[i] = np.abs(np.convolve(x, kernel[::-1])[k : k + n])
    return rows


class TestHalfWidth:
    @pytest.mark.parametrize("radius, dt, k", [(5.0, 1.0, 5), (5.0, 0.3, 16), (0.5, 1.0, 0), (2.0**52, 1.0, 2**52)])
    def test_largest_multiple_within_the_radius(self, radius, dt, k):
        assert wavelet._half_width(radius, dt) == k

    def test_radius_beyond_unit_float_spacing_refused(self):
        # from 2**53 on, the stepping loop takes about half the float
        # spacing in steps (2**29 at 1e25): run it in a child process, so
        # that a regression fails on the timeout and does not hang the suite
        code = (
            "from gaitsig.wavelet import _half_width\n"
            "try:\n    _half_width(1e25, 1.0)\nexcept ValueError as exc:\n    print(exc)\n"
        )
        src = str(Path(wavelet.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30)
        assert done.stdout == "truncation half-width radius/dt must be < 2**53, got 1e+25\n", done.stderr
        with pytest.raises(ValueError, match="2\\*\\*53"):
            wavelet._half_width(2.0**53, 1.0)


class TestKernelCache:
    def test_cached_call_equals_fresh_computation(self):
        traj = make_traj(harmonic_signal(np.linspace(0, 100, 101), [(3, 12.0, 0.4), (9, 2.0, 1.0)]))
        grid, params = ScaleGrid(np.geomspace(0.5, 30.0, 10)), MorletParams(nu0=1.3)
        wavelet._kernels.cache_clear()
        fresh = cwt(traj, grid, params)
        cached = cwt(traj, ScaleGrid(grid.scales.copy()), MorletParams(nu0=1.3))
        assert wavelet._kernels.cache_info().hits == 1
        reference = uncached_cwt(traj, grid, params)
        assert fresh.values.tobytes() == cached.values.tobytes() == reference.tobytes()

    def test_key_separates_grids_params_and_spacing(self):
        pct = np.linspace(0, 100, 101)
        traj = make_traj(harmonic_signal(pct, [(2, 10.0, 0.0)]))
        coarse = make_traj(harmonic_signal(pct[::2], [(2, 10.0, 0.0)]))
        for t, grid, params in [
            (traj, ScaleGrid.default(), MorletParams()),
            (traj, ScaleGrid.default(count=8), MorletParams()),
            (traj, ScaleGrid.default(), MorletParams(nu0=2.0)),
            (coarse, ScaleGrid.default(), MorletParams()),
        ]:
            got = cwt(t, grid, params)
            assert got.values.tobytes() == uncached_cwt(t, grid, params).tobytes()


class TestScalogramCsv:
    def test_round_trip(self, tmp_path):
        from gaitsig.data import ClassLabel

        pct = np.linspace(0, 100, 101)
        sc = cwt(make_traj(harmonic_signal(pct, [(2, 15.0, 0.2)])))
        from dataclasses import replace

        sc = replace(sc, subject_id="subj-7", label=ClassLabel("CP-lh"))
        path = tmp_path / "sc.csv"
        write_scalogram_csv(sc, path)
        back = read_scalogram_csv(path)
        assert np.array_equal(back.values, sc.values)
        assert np.array_equal(back.time_axis, sc.time_axis)
        assert np.array_equal(back.scale_axis.scales, sc.scale_axis.scales)
        assert back.subject_id == "subj-7" and back.label == ClassLabel("CP-lh")
        assert back.joint is sc.joint and back.side is sc.side

    def test_plain_header_is_space_separated(self, tmp_path):
        # readers that split the provenance line on whitespace rely on it
        sc = replace(cwt(make_traj(np.zeros(101))), subject_id="pt-0.b", label=ClassLabel("CP-dp"))
        write_scalogram_csv(sc, tmp_path / "sc.csv")
        first = (tmp_path / "sc.csv").read_text(encoding="utf-8").split("\n")[0]
        assert first == "# scalogram subject=pt-0.b label=CP-dp joint=Hip side=Right"

    @pytest.mark.parametrize("sid, record", [
        ("a\nb", '# scalogram "subject=a\nb" "label=CP dp" joint=Hip side=Right'),
        ("a\rb", '"#" "scalogram" "subject=a\rb" "label=CP dp" "joint=Hip" "side=Right"'),
    ], ids=["line-feed", "carriage-return"])
    def test_header_quoted_as_every_csv_record(self, tmp_path, sid, record):
        # a "\r" quotes every field, as in dataset.csv and features.csv;
        # otherwise only the fields that need it are quoted
        sc = replace(cwt(make_traj(np.zeros(101))), subject_id=sid, label=ClassLabel("CP dp"))
        write_scalogram_csv(sc, tmp_path / "sc.csv")
        assert (tmp_path / "sc.csv").read_bytes().startswith(f"{record}\n# scales=".encode())
        assert read_scalogram_csv(tmp_path / "sc.csv").subject_id == sid

    @settings(max_examples=60, deadline=None)
    @given(sid=st.text(), label=st.none() | st.text(min_size=1))
    @example(sid="pt 0, visit=2", label="CP dp")
    @example(sid="a\rb", label="c\rd")
    @example(sid='a\rb "c"\n', label="x=y z")
    def test_round_trip_any_id_and_label_text(self, sid, label):
        label = None if label is None else ClassLabel(label)
        sc = replace(cwt(make_traj(np.linspace(-5.0, 5.0, 101))), subject_id=sid, label=label)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sc.csv"
            write_scalogram_csv(sc, path)
            back = read_scalogram_csv(path)
        assert (back.subject_id, back.label) == (sc.subject_id, sc.label)
        assert back.values.tobytes() == sc.values.tobytes()

    def test_scale_above_the_largest_refused_on_read(self, tmp_path):
        path = tmp_path / "sc.csv"
        write_scalogram_csv(cwt(make_traj(np.zeros(101))), path)
        text = path.read_text(encoding="utf-8").replace(",25.0\n", ",250.0\n", 1)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=r"sc\.csv: scales must be <= 200$"):
            read_scalogram_csv(path)

    def test_corrupt_value_names_file_and_line(self, tmp_path):
        path = tmp_path / "sc.csv"
        write_scalogram_csv(cwt(make_traj(np.zeros(101))), path)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[5] = "x" + lines[5]
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=r"sc\.csv:6: could not convert"):
            read_scalogram_csv(path)

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "sc.csv"
        write_scalogram_csv(cwt(make_traj(np.zeros(101))), path)
        data = path.read_bytes()
        last = data.rindex(b"\n", 0, -1) + 1  # a byte of the last matrix row
        path.write_bytes(data[:last] + b"\xff" + data[last + 1:])
        with pytest.raises(ValueError, match=r"sc\.csv: 'utf-8' codec can't decode byte 0xff"):
            read_scalogram_csv(path)


class TestPgm:
    def test_min_max_normalization(self):
        m = np.array([[0.0, 5.0], [10.0, 2.5]])
        gray = to_gray(m)
        assert gray[0, 0] == 0 and gray[1, 0] == 255
        assert gray[0, 1] == 128  # rint(0.5 * 255) = rint(127.5) -> 128

    def test_constant_matrix_black(self):
        assert np.array_equal(to_gray(np.full((3, 4), 7.0)), np.zeros((3, 4), np.uint8))

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.uniform(0, 9, (12, 101))
        path = tmp_path / "img.pgm"
        write_pgm(m, path)
        back = reference_read_pgm(path)
        assert np.array_equal(back, to_gray(m))
        assert path.read_bytes().startswith(b"P5\n101 12\n255\n")


@settings(max_examples=25, deadline=None)
@given(amp=st.floats(0.5, 100.0), seed=st.integers(0, 10**6))
def test_magnitude_scaling_property(amp, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, 101)
    grid = ScaleGrid(np.array([1.5, 4.0, 12.0]))
    base = cwt(make_traj(x), grid).values
    scaled = cwt(make_traj(np.clip(amp * x, -180, 180)), grid).values
    if np.max(np.abs(amp * x)) <= 180:
        assert np.allclose(scaled, amp * base, rtol=1e-12, atol=1e-12 * max(base.max(), 1))
