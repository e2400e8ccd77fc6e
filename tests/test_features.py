import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitsig.data import ClassLabel, Joint, NORMAL, POLIO, Side, part_sort_key
from gaitsig.features import (
    FeatureMatrix,
    Level,
    SINGLE_JOINT_LENGTH,
    extract_features,
    level_scale_indices,
    read_features_csv,
    split_regions,
    standardize,
    write_features_csv,
)
from gaitsig.pipeline import write_features
from gaitsig.wavelet import ScaleGrid, Scalogram, cwt, write_scalogram_csv

from conftest import harmonic_signal, make_traj
from oracles import reference_write_features_csv


def make_scalogram(values, subject_id="s1", label=NORMAL, joint=Joint.HIP, side=Side.RIGHT):
    values = np.asarray(values, dtype=float)
    n_scales, n_time = values.shape
    return Scalogram(
        values=values,
        time_axis=np.linspace(0.0, 100.0, n_time),
        scale_axis=ScaleGrid(np.geomspace(1.0, 25.0, n_scales)),
        joint=joint,
        side=side,
        subject_id=subject_id,
        label=label,
    )


class TestSplitRegions:
    def test_default_boundary_matches_clinical_convention(self):
        sc = make_scalogram(np.zeros((12, 101)))
        regions = split_regions(sc)
        assert regions.stance_low.shape == (6, 61)  # stance = pct 0..60, swing = 61..100
        assert regions.swing_low.shape == (6, 40)
        assert regions.swing_high.shape == (6, 40)
        assert regions.stance_high.shape == (6, 61)

    def test_half_split_mirror_symmetry(self):
        rng = np.random.default_rng(1)
        left = rng.uniform(0, 1, (12, 50))
        # 100 columns: mirror-symmetric about the center
        values = np.concatenate([left, left[:, ::-1]], axis=1)
        sc = make_scalogram(values)
        regions = split_regions(sc, 0.5)
        assert np.array_equal(regions.stance_low, regions.swing_low[:, ::-1])

    def test_all_ones_tiling(self):
        sc = make_scalogram(np.ones((12, 101)))
        regions = split_regions(sc)
        four = (regions.stance_low, regions.swing_low, regions.swing_high, regions.stance_high)
        assert sum(r.size for r in four) == sc.values.size
        assert all(np.all(r == 1.0) for r in four)

    @settings(max_examples=30)
    @given(
        frac=st.floats(0.01, 0.99),
        n_scales=st.integers(2, 16),
        n_time=st.integers(21, 151),
        seed=st.integers(0, 10**6),
    )
    def test_tiling_property(self, frac, n_scales, n_time, seed):
        rng = np.random.default_rng(seed)
        sc = make_scalogram(rng.uniform(0, 5, (n_scales, n_time)))
        r = split_regions(sc, frac)
        rebuilt = np.block([
            [r.stance_low, r.swing_low],
            [r.stance_high, r.swing_high],
        ])
        assert np.array_equal(rebuilt, sc.values)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="stance_fraction"):
            split_regions(make_scalogram(np.zeros((12, 101))), 1.0)


class TestLevelIndices:
    def test_canonical_windows_overlap_in_middle_four(self):
        low = level_scale_indices(12, Level.LOW_SCALE)
        high = level_scale_indices(12, Level.HIGH_SCALE)
        assert list(low) == list(range(0, 8))
        assert list(high) == list(range(4, 12))
        assert sorted(set(low) & set(high)) == [4, 5, 6, 7]

    def test_too_few_scales_rejected(self):
        with pytest.raises(ValueError, match="at least 8"):
            level_scale_indices(7, Level.HIGH_SCALE)


class TestExtractFeatures:
    def test_zero_scalogram(self):
        fv = extract_features(make_scalogram(np.zeros((12, 101))))
        assert len(fv) == SINGLE_JOINT_LENGTH == 160
        assert np.array_equal(fv, np.zeros(160))

    def test_scale_index_rows_high_level(self):
        # value = scale row index, constant per row: every time block must
        # equal the high-level indices 4..11
        values = np.tile(np.arange(12.0)[:, None], (1, 101))
        fv = extract_features(make_scalogram(values), Level.HIGH_SCALE)
        blocks = fv.reshape(20, 8)
        assert np.array_equal(blocks, np.tile(np.arange(4.0, 12.0), (20, 1)))

    def test_time_major_ordering(self):
        # value = 100*time_pct + scale_index encodes the flatten order
        cols = np.linspace(0.0, 100.0, 101)
        values = 100.0 * cols[None, :] + np.arange(12.0)[:, None]
        fv = extract_features(make_scalogram(values), Level.LOW_SCALE)
        expected = np.array(
            [100.0 * (5.0 * t) + s for t in range(20) for s in range(8)]
        )
        assert np.allclose(fv, expected, rtol=0, atol=1e-9)

    def test_sample_columns_are_every_5_percent(self):
        values = np.zeros((12, 101))
        values[:, ::5] = 1.0  # mark 0,5,..,100
        values[:, 100] = 1.0
        fv = extract_features(make_scalogram(values))
        assert np.array_equal(fv, np.ones(160))  # only marked columns sampled

    def test_incompatible_time_axis_rejected(self):
        sc = make_scalogram(np.zeros((12, 51)))  # every 2%: lacks 5% columns
        with pytest.raises(ValueError, match="5%"):
            extract_features(sc)

    def test_provenance_carried(self, tmp_path):
        # the features stage takes a row's subject, label and part from its scalogram
        sc = make_scalogram(np.zeros((12, 101)), subject_id="abc", label=ClassLabel("Polio"),
                            joint=Joint.KNEE, side=Side.LEFT)
        write_scalogram_csv(sc, tmp_path / "scalogram_abc.csv")
        fv = write_features(tmp_path, Level.HIGH_SCALE, tmp_path)
        assert fv.subject_ids == ("abc",)
        assert fv.labels == (ClassLabel("Polio"),)
        assert fv.parts == ((Joint.KNEE, Side.LEFT),)

    def test_determinism_bit_exact(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 3, (12, 101))
        a = extract_features(make_scalogram(values))
        b = extract_features(make_scalogram(values))
        assert np.array_equal(a, b)

    def test_normal_template_band_energies(self):
        # derived with the full-scalogram region-sum oracle: above the
        # 2-sample oscillation limit the high-scale band dominates for a
        # low-harmonic template; the raw LowScale window instead inherits
        # the |signal|-mirroring aliased s=1 row (see decisions ledger)
        pct = np.linspace(0, 100, 101)
        sc = cwt(make_traj(harmonic_signal(pct, [(1, 30.0, 0.0), (2, 4.0, 0.5)])))
        scales = sc.scale_axis.scales
        sampled_ok = scales >= 2.0
        low_band = sc.values[sampled_ok & (scales < 5.0)]
        high_band = sc.values[sampled_ok & (scales >= 5.0)]
        assert np.linalg.norm(high_band) > 2.0 * np.linalg.norm(low_band)
        # the literal feature-window comparison inverts because of the
        # aliased lowest scale; recorded, not hidden:
        hi = extract_features(sc, Level.HIGH_SCALE)
        lo = extract_features(sc, Level.LOW_SCALE)
        assert np.linalg.norm(lo) > np.linalg.norm(hi)


def _combine(rows):
    return FeatureMatrix.from_parts(rows, Level.HIGH_SCALE)


class TestCombineJoints:
    """FeatureMatrix.from_parts joins each subject's single-part rows in
    canonical order."""

    def _fv(self, joint, side, fill, subject="s1"):
        return subject, NORMAL, (joint, side), np.full(160, float(fill))

    def test_single_part_identity(self):
        fv = self._fv(Joint.HIP, Side.RIGHT, 2.0)
        out = _combine([fv])
        assert np.array_equal(out.values[0], fv[3])
        assert out.parts == (fv[2],)

    def test_right_left_hip_is_320(self):
        out = _combine([
            self._fv(Joint.HIP, Side.LEFT, 2.0),
            self._fv(Joint.HIP, Side.RIGHT, 1.0),
        ])
        assert len(out.values[0]) == 320
        # canonical order: right block first regardless of input order
        assert np.array_equal(out.values[0, :160], np.ones(160))
        assert np.array_equal(out.values[0, 160:], np.full(160, 2.0))
        assert out.parts == ((Joint.HIP, Side.RIGHT), (Joint.HIP, Side.LEFT))

    def test_order_insensitive(self):
        a = _combine([
            self._fv(Joint.HIP, Side.RIGHT, 1.0), self._fv(Joint.HIP, Side.LEFT, 2.0),
        ])
        b = _combine([
            self._fv(Joint.HIP, Side.LEFT, 2.0), self._fv(Joint.HIP, Side.RIGHT, 1.0),
        ])
        assert np.array_equal(a.values, b.values) and a.parts == b.parts

    def test_joint_major_order(self):
        out = _combine([
            self._fv(Joint.KNEE, Side.RIGHT, 3.0),
            self._fv(Joint.HIP, Side.LEFT, 2.0),
            self._fv(Joint.HIP, Side.RIGHT, 1.0),
        ])
        assert out.parts == (
            (Joint.HIP, Side.RIGHT), (Joint.HIP, Side.LEFT), (Joint.KNEE, Side.RIGHT),
        )

    def test_mixed_labels_rejected(self):
        rows = [self._fv(Joint.HIP, Side.RIGHT, 1.0), ("s1", POLIO, (Joint.HIP, Side.LEFT), np.ones(160))]
        with pytest.raises(ValueError, match="^subject 's1': mixed labels across parts$"):
            _combine(rows)

    @pytest.mark.parametrize("subjects, message", [
        (["s1", "s1"], "subject 's1': duplicate part 'Hip:Right'"),
        (["a", "b", "b"], "subject 'b': duplicate part 'Hip:Right'"),
        (["a", "a", "b"], "subject 'a': duplicate part 'Hip:Right'"),
    ], ids=["one-subject", "second-subject", "first-subject"])
    def test_repeated_part_names_the_subject_and_part(self, subjects, message):
        # the subject that repeats the part, whatever the other subjects hold
        rows = [self._fv(Joint.HIP, Side.RIGHT, 1.0, sid) for sid in subjects]
        with pytest.raises(ValueError) as err:
            _combine(rows)
        assert str(err.value) == message

    def test_duplicate_parts_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            _combine([
                self._fv(Joint.HIP, Side.RIGHT, 1.0),
                self._fv(Joint.HIP, Side.RIGHT, 2.0),
            ])


def _matrix(**fields):
    """A one-part matrix of two subjects, s1 and s2, with these fields
    replaced."""
    return FeatureMatrix(**{
        "values": np.ones((2, 160)), "subject_ids": ("s1", "s2"), "labels": (NORMAL, POLIO),
        "level": Level.HIGH_SCALE, "parts": ((Joint.HIP, Side.RIGHT),), **fields,
    })


class TestFeatureMatrix:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"values": np.ones((0, 160)), "subject_ids": (), "labels": ()},
             "a feature matrix needs a 2-d array of at least one row, got (0, 160)"),
            ({"values": np.ones((2, 0)), "parts": ()}, "a feature matrix needs at least one part"),
            ({"values": np.ones((2, 320)), "parts": ((Joint.HIP, Side.LEFT), (Joint.HIP, Side.RIGHT))},
             "parts 'Hip:Left|Hip:Right' are not in canonical order"),
            ({"values": np.ones((2, 320)), "parts": ((Joint.HIP, Side.RIGHT), (Joint.HIP, Side.RIGHT))},
             "parts 'Hip:Right|Hip:Right' hold a duplicate"),
            ({"values": np.ones((2, 161))}, "rows must have length 160 (160 x 1 parts), got 161"),
            ({"subject_ids": ("s1", "s1")}, "subject_id 's1' repeats"),
            ({"labels": (NORMAL,)}, "2 rows need 2 subject ids and labels, got 2 and 1"),
            ({"values": [np.ones(160), np.full(160, np.inf)]}, "feature values must be finite"),
        ],
        ids=["no-rows", "empty-parts", "part-order", "repeated-part", "width", "repeated-id", "label-count",
             "non-finite"],
    )
    def test_refuses(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _matrix(**fields)

    def test_values_read_only(self):
        m = _matrix()
        with pytest.raises(ValueError, match="read-only"):
            m.values[0, 0] = 2.0


class TestFeatureVectorInvariants:
    """A matrix row is a subject's feature vector: 160 values per part,
    and >= 0 where features.csv stores it (a z-scored row goes negative)."""

    def test_length_law(self):
        with pytest.raises(ValueError, match="length"):
            _matrix(values=np.zeros((1, 161)), subject_ids=("s",), labels=(None,))

    def test_negative_values_rejected(self, tmp_path):
        v = np.zeros(160)
        v[0] = -1.0
        path = tmp_path / "features.csv"
        with pytest.raises(ValueError, match=">= 0"):
            write_features_csv(_matrix(values=[v], subject_ids=("s",), labels=(None,)), path)
        assert not path.exists()


class TestStandardize:
    def test_zscore_moments(self):
        from gaitsig.features import zscore

        rng = np.random.default_rng(21)
        z = zscore(rng.uniform(0, 9, 160))
        assert abs(z.mean()) < 1e-12
        assert z.std() == pytest.approx(1.0, abs=1e-12)

    def test_zscore_constant_vector_safe(self):
        from gaitsig.features import zscore

        assert np.array_equal(zscore(np.full(8, 3.0)), np.zeros(8))

    def test_standardize_keeps_provenance(self):
        fv = _matrix(values=[np.linspace(0, 5, 160)], subject_ids=("s9",), labels=(ClassLabel("Polio"),))
        sv = standardize(fv)
        assert sv.subject_ids == ("s9",) and sv.labels == (ClassLabel("Polio"),)
        assert np.any(sv.values < 0)  # which features.csv refuses


_PARTS = [(j, s) for j in Joint for s in Side]
# features.csv text: UTF-8 encodable, so no surrogates
_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "é", "λ", "a"]) | st.characters(exclude_categories=("Cs",)),
                min_size=1, max_size=8)
_VALUES = st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300, 3.0, 160.0]) | \
    st.floats(0.0, 1e308, allow_infinity=False)


class TestFeaturesCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        a = _matrix(
            values=[rng.uniform(0, 4, 320) for i in range(4)],
            subject_ids=[f"s{i}" for i in range(4)],
            parts=((Joint.HIP, Side.RIGHT), (Joint.HIP, Side.LEFT)),
            level=Level.HIGH_SCALE,
            labels=[ClassLabel("CP-rh") if i % 2 else NORMAL for i in range(4)],
        )
        path = tmp_path / "features.csv"
        write_features_csv(a, path)
        b = read_features_csv(path)
        assert np.array_equal(a.values, b.values)
        assert (a.subject_ids, a.parts, a.level, a.labels) == (
            b.subject_ids, b.parts, b.level, b.labels
        )

    def test_plain_ids_are_comma_joined(self, tmp_path):
        # readers that split rows on "," rely on unquoted plain rows
        values = np.array([0.25, 1e-05] + [3.0] * 158)
        v = _matrix(values=[values, values], subject_ids=("pt 0.b-1", "s2"), labels=(ClassLabel("CP-dp"), None))
        path = tmp_path / "features.csv"
        write_features_csv(v, path)
        vals = ",".join(repr(float(x)) for x in values)
        names = ",".join(f"f{i:03d}" for i in range(160))
        assert path.read_text(encoding="utf-8").split("\n")[1:] == [
            f"subject_id,label,level,parts,{names}",
            f"pt 0.b-1,CP-dp,HighScale,Hip:Right,{vals}",
            f"s2,,HighScale,Hip:Right,{vals}",
            "",
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(st.text(), min_size=1, max_size=3, unique=True),
        labels=st.lists(st.none() | st.text(min_size=1), min_size=3, max_size=3),
    )
    @example(ids=["a,b", "x\ry", "subject_id"], labels=['q"\n', None, "#c"])
    def test_round_trip_any_id_and_label_text(self, ids, labels):
        rows = list(zip(ids, labels))
        vectors = _matrix(
            values=[np.full(160, float(i)) for i in range(len(rows))], subject_ids=[sid for sid, _ in rows],
            parts=((Joint.KNEE, Side.LEFT),), level=Level.LOW_SCALE,
            labels=[None if lab is None else ClassLabel(lab) for _, lab in rows],
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "features.csv"
            write_features_csv(vectors, path)
            back = read_features_csv(path)
        assert list(zip(back.subject_ids, back.labels)) == list(zip(vectors.subject_ids, vectors.labels))
        assert np.array_equal(vectors.values, back.values)

    def test_write_twice_identical_bytes(self, tmp_path):
        v = _matrix(values=[np.linspace(0, 1, 160)], subject_ids=("s",), level=Level.LOW_SCALE,
                    labels=(NORMAL,))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_features_csv(v, p1)
        write_features_csv(v, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(
        texts=st.lists(st.tuples(_TEXT, st.none() | _TEXT), min_size=1, max_size=3, unique_by=lambda t: t[0]),
        parts=st.lists(st.sampled_from(_PARTS), min_size=1, max_size=2, unique=True),
        level=st.sampled_from(Level),
        data=st.data(),
    )
    @example(texts=[("a,b", 'a"b'), ("a\rb", None), ("a\nb", " é")], parts=[(Joint.HIP, Side.LEFT)],
             level=Level.HIGH_SCALE, data=None)
    def test_bytes_equal_row_by_row_writer(self, texts, parts, level, data):
        parts = sorted(parts, key=lambda p: part_sort_key(*p))  # the order a matrix holds
        width = SINGLE_JOINT_LENGTH * len(parts)
        rows = []
        for i, (sid, label) in enumerate(texts):
            values = data.draw(st.lists(_VALUES, min_size=width, max_size=width)) if data else [5e-324 * i] * width
            rows.append((sid, label, values))
        vectors = _matrix(
            values=[values for _, _, values in rows], subject_ids=[sid for sid, _, _ in rows], parts=parts,
            level=level, labels=[None if label is None else ClassLabel(label) for _, label, _ in rows],
        )
        with tempfile.TemporaryDirectory() as tmp:
            path, reference = Path(tmp) / "features.csv", Path(tmp) / "reference.csv"
            write_features_csv(vectors, path)
            reference_write_features_csv(
                [(sid, label or "", level.value, [(j.value, s.value) for j, s in parts], values)
                 for sid, label, values in rows],
                reference,
            )
            assert path.read_bytes() == reference.read_bytes()


def _two_subjects(*second):
    """From single-part rows: s1 with the hip and knee on the right, s2
    with the parts second."""
    first = ((Joint.HIP, Side.RIGHT), (Joint.KNEE, Side.RIGHT))
    rows = [("s1", NORMAL, part, np.ones(160)) for part in first] + [("s2", NORMAL, part, np.ones(160)) for part in second]
    return FeatureMatrix.from_parts(rows, Level.HIGH_SCALE)


def _features_file(path, rows):
    """A features.csv of one-part vectors, row i of subject s<i>, with
    these (field, text) edits, one dict per row: e.g. {"f010": "nan?"}."""
    names = ["subject_id", "label", "level", "parts"] + [f"f{i:03d}" for i in range(160)]
    lines = ["# layout", ",".join(names)]
    for i, edits in enumerate(rows):
        row = dict(zip(names, [f"s{i}", "Normal", "HighScale", "Hip:Right"] + ["1.5"] * 160))
        row.update(edits)
        lines.append(",".join(v for v in row.values() if v is not None))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestFeaturesCsvErrors:
    @pytest.mark.parametrize(
        "edits, message",
        [
            ({"f010": "nan?"}, "f010 'nan?' is not a number"),
            ({"f159": ""}, "f159 '' is not a number"),
            ({"f010": "nan"}, "f010 'nan': feature values must be finite and >= 0"),
            ({"f003": "-1e-300"}, "f003 '-1e-300': feature values must be finite and >= 0"),
            ({"f003": "inf", "f004": "x"}, "f004 'x' is not a number"),
            ({"f157": None, "f158": None, "f159": None},
             "parts 'Hip:Right': feature vector must have length 160 (160 x 1 parts), got 157"),
            ({"parts": "Hip:Right|Knee:Left"},
             "parts 'Hip:Right|Knee:Left': feature vector must have length 320 (160 x 2 parts), got 160"),
            ({"parts": "Elbow:Right"}, "parts 'Elbow:Right' is not a |-list of Joint:Side"),
            ({"level": "MidScale"}, "level 'MidScale' is not one of ['HighScale', 'LowScale']"),
        ],
        ids=["text", "empty", "nan", "negative", "first-bad-number", "short", "long-parts", "parts", "level"],
    )
    def test_error_names_file_line_and_column(self, tmp_path, edits, message):
        path = tmp_path / "features.csv"
        _features_file(path, [{}, {}, edits])
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:5: {message}')}$"):
            read_features_csv(path)

    @pytest.mark.parametrize("n_rows, header, message", [
        (0, True, "no feature rows"),
        (3, False, "no subject_id header line"),
    ], ids=["no-rows", "no-header"])
    def test_file_without_rows_or_header_named(self, tmp_path, n_rows, header, message):
        path = tmp_path / "features.csv"
        _features_file(path, [{}] * n_rows)
        lines = path.read_text(encoding="utf-8").split("\n")
        path.write_text("\n".join(lines if header else lines[:1] + lines[2:]), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_features_csv(path)

    def test_line_is_physical_after_multiline_id(self, tmp_path):
        path = tmp_path / "features.csv"
        _features_file(path, [{"subject_id": '"a\nb"'}, {"f000": "?"}])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:5: f000 '\\?' is not a number$"):
            read_features_csv(path)

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (lambda: _two_subjects((Joint.HIP, Side.RIGHT)),
             "subject 's2': parts 'Hip:Right' differs from the first row's 'Hip:Right|Knee:Right'"),
            (lambda: _two_subjects((Joint.HIP, Side.RIGHT), (Joint.HIP, Side.LEFT), (Joint.KNEE, Side.RIGHT)),
             "subject 's2': parts 'Hip:Right|Hip:Left|Knee:Right' differs from the first row's 'Hip:Right|Knee:Right'"),
            (lambda: _matrix(subject_ids=("s1", "s1")), "subject_id 's1' repeats"),
        ],
        ids=["parts", "length", "repeated-id"],
    )
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, matrix, message):
        # no matrix holds them, so no file is written
        path = tmp_path / "features.csv"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_features_csv(matrix(), path)
        assert not path.exists()


    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "features.csv"
        _features_file(path, [{}, {}])
        path.write_bytes(path.read_bytes().replace(b"s1", b"\xff", 1))  # the second row's subject_id
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0xff"):
            read_features_csv(path)

    def test_train_reports_the_field(self, tmp_path, capsys):
        from gaitsig.cli import main

        path = tmp_path / "features.csv"
        _features_file(path, [{}, {"f010": "nan?"}])
        assert main(["train", "--features", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"gaitsig: error: {path}:4: f010 'nan?' is not a number\n"

    @pytest.mark.parametrize("stage", ["train", "eval"])
    def test_stages_refuse_a_repeated_subject(self, tmp_path, capsys, stage):
        # LOOCV would hold the subject out twice, each fold training on the other copy
        from gaitsig.cli import main

        path = tmp_path / "features.csv"
        _features_file(path, [{}, {"label": "CP-dp"}, {"subject_id": "s0"}])
        assert main([stage, "--features", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"gaitsig: error: {path}:5: subject_id 's0' repeats line 3\n"

    @pytest.mark.parametrize("stage", ["train", "eval"])
    @pytest.mark.parametrize(
        "edits, message",
        [
            ({"level": "LowScale"}, "level 'LowScale' differs from the first row's 'HighScale'"),
            ({"parts": "Hip:Right|Hip:Left", **{f"f{i:03d}": "1.5" for i in range(160, 320)}},
             "parts 'Hip:Right|Hip:Left' differs from the first row's 'Hip:Right'"),
        ],
        ids=["level", "parts"],
    )
    def test_stages_refuse_rows_that_mix_levels_or_parts(self, tmp_path, capsys, stage, edits, message):
        from gaitsig.cli import main

        path = tmp_path / "features.csv"
        _features_file(path, [{"subject_id": "a"}, {"subject_id": "b", "label": "CP-dp"}, {"subject_id": "c", **edits}])
        assert main([stage, "--features", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"gaitsig: error: {path}:5: {message}\n"
