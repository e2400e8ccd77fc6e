import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitsig.data import (
    CANONICAL_GRID_SIZE,
    CSV_COLUMNS,
    ClassLabel,
    GaitTrajectory,
    Joint,
    NORMAL,
    ParseError,
    SchemaError,
    Side,
    Subject,
    ingest_csv,
    resample,
    write_csv,
)

from conftest import make_traj
from oracles import reference_ingest_error, reference_write_csv


class TestGaitTrajectory:
    def test_canonical_grid(self):
        traj = make_traj(np.zeros(101))
        assert traj.grid_size == CANONICAL_GRID_SIZE
        assert traj.pct_axis[0] == 0.0 and traj.pct_axis[-1] == 100.0

    def test_rejects_short_grid(self):
        with pytest.raises(ValueError, match="grid_size"):
            make_traj(np.zeros(20))

    def test_rejects_nan(self):
        samples = np.zeros(101)
        samples[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            make_traj(samples)

    def test_rejects_out_of_range_angle(self):
        samples = np.zeros(101)
        samples[50] = 181.0
        with pytest.raises(ValueError, match="angle"):
            make_traj(samples)

    def test_samples_read_only(self):
        traj = make_traj(np.zeros(101))
        with pytest.raises(ValueError):
            traj.samples[0] = 1.0


class TestSubject:
    def test_requires_trajectories(self):
        with pytest.raises(ValueError, match="at least one"):
            Subject(id="s", label=NORMAL, trajectories={})

    def test_requires_matching_grids(self):
        t1 = make_traj(np.zeros(101))
        t2 = make_traj(np.zeros(51), side=Side.LEFT)
        with pytest.raises(ValueError, match="grid_size"):
            Subject(id="s", label=NORMAL, trajectories={
                (Joint.HIP, Side.RIGHT): t1, (Joint.HIP, Side.LEFT): t2,
            })

    def test_refuses_a_trajectory_filed_under_another_part(self):
        t = make_traj(np.zeros(101), joint=Joint.KNEE, side=Side.LEFT)
        with pytest.raises(ValueError, match="Knee/Left trajectory filed under Hip/Right"):
            Subject(id="s", label=NORMAL, trajectories={(Joint.HIP, Side.RIGHT): t})


class TestClassLabel:
    def test_known_order(self):
        assert NORMAL < ClassLabel("CP-dp") < ClassLabel("Polio")

    def test_other_sorts_after_known(self):
        assert ClassLabel("SpinaBifida") < ClassLabel("Limp")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ClassLabel("")

    @pytest.mark.parametrize("text", ["\ud800", "CP-\udfff"])
    def test_text_utf8_cannot_encode_rejected(self, text):
        with pytest.raises(ValueError) as err:
            ClassLabel(text)
        assert str(err.value) == f"class label {text!r} is not valid UTF-8 text"


class TestResample:
    def test_constant_invariant(self):
        traj = make_traj(np.full(101, 30.0))
        out = resample(traj, 21)
        assert np.array_equal(out.samples, np.full(21, 30.0))

    def test_ramp_exact(self, ramp_traj):
        out = resample(ramp_traj, 21)
        assert np.array_equal(out.samples, np.arange(0.0, 101.0, 5.0))

    def test_sine_round_trip(self):
        pct = np.linspace(0.0, 100.0, 101)
        traj = make_traj(10.0 * np.sin(2 * np.pi * pct / 100.0))
        back = resample(resample(traj, 1001), 101)
        assert np.max(np.abs(back.samples - traj.samples)) < 1e-6 * 10.0

    def test_same_size_is_identity(self, ramp_traj):
        assert np.array_equal(resample(ramp_traj, 101).samples, ramp_traj.samples)

    def test_rejects_tiny_grid(self, ramp_traj):
        with pytest.raises(ValueError, match="new_grid_size"):
            resample(ramp_traj, 1)

    def test_result_below_min_grid_rejected(self, ramp_traj):
        # 2 <= n < 21 passes resample's own check but violates the
        # trajectory's grid_size invariant
        with pytest.raises(ValueError, match="grid_size"):
            resample(ramp_traj, 5)

    @settings(max_examples=50)
    @given(
        a=st.floats(-50, 50),
        b=st.floats(-1, 1),
        n=st.integers(21, 401),
    )
    def test_affine_exactness(self, a, b, n):
        pct = np.linspace(0.0, 100.0, 101)
        traj = make_traj(a + b * pct)
        out = resample(traj, n)
        expected = a + b * np.linspace(0.0, 100.0, n)
        assert np.allclose(out.samples, expected, rtol=0.0, atol=1e-10)

    def test_endpoints_preserved_exactly(self):
        rng = np.random.default_rng(3)
        traj = make_traj(rng.uniform(-40, 40, 101))
        for n in (21, 33, 101, 257):
            out = resample(traj, n)
            assert out.samples[0] == traj.samples[0]
            assert out.samples[-1] == traj.samples[-1]


def _write_rows(path, rows, header="subject_id,label,joint,side,pct,angle_deg"):
    lines = [header] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestIngestCsv:
    def test_identity_round_trip(self, tmp_path):
        rows = [
            f"s1,Normal,Hip,Left,{float(p)!r},{float(np.cos(p))!r}" for p in range(101)
        ]
        path = tmp_path / "d.csv"
        _write_rows(path, rows)
        subjects = ingest_csv(path)
        assert len(subjects) == 1
        subj = subjects[0]
        assert subj.id == "s1" and subj.label == NORMAL
        traj = subj.trajectories[(Joint.HIP, Side.LEFT)]
        assert np.array_equal(traj.samples, np.cos(np.arange(101.0)))

    def test_coarse_grid_resampled(self, tmp_path):
        # 51-point grid (every 2%): a linear ramp must resample exactly
        rows = [f"s1,Normal,Knee,Right,{float(2 * k)!r},{float(2 * k)!r}" for k in range(51)]
        path = tmp_path / "d.csv"
        _write_rows(path, rows)
        traj = ingest_csv(path)[0].trajectories[(Joint.KNEE, Side.RIGHT)]
        assert traj.grid_size == 101
        assert np.allclose(traj.samples, np.arange(101.0), rtol=0.0, atol=1e-12)

    def test_nan_angle_is_parse_error_naming_row(self, tmp_path):
        rows = [f"s1,Normal,Hip,Left,{float(p)!r},0.0" for p in range(101)]
        rows[5] = "s1,Normal,Hip,Left,5.0,nan"
        path = tmp_path / "d.csv"
        _write_rows(path, rows)
        with pytest.raises(ParseError, match=":7:"):  # header + 6 data rows
            ingest_csv(path)

    def test_missing_label_is_schema_error(self, tmp_path):
        rows = [f"s1,,Hip,Left,{float(p)!r},0.0" for p in range(101)]
        path = tmp_path / "d.csv"
        _write_rows(path, rows)
        with pytest.raises(SchemaError, match="label"):
            ingest_csv(path)

    def test_non_uniform_grid_is_schema_error(self, tmp_path):
        rows = [f"s1,Normal,Hip,Left,{float(p)!r},0.0" for p in range(101)]
        rows[50] = "s1,Normal,Hip,Left,50.5,0.0"
        path = tmp_path / "d.csv"
        _write_rows(path, rows)
        with pytest.raises(SchemaError, match="uniform"):
            ingest_csv(path)

    def test_incomplete_grid_is_schema_error(self, tmp_path):
        rows = [f"s1,Normal,Hip,Left,{float(p)!r},0.0" for p in range(100)]  # missing 100%
        path = tmp_path / "d.csv"
        _write_rows(path, rows)
        with pytest.raises(SchemaError, match="uniform"):
            ingest_csv(path)

    def test_short_grid_error_names_file_subject_and_part(self, tmp_path):
        rows = [f"s1,Normal,Hip,Left,{float(p)!r},0.0" for p in (0, 50, 100)]
        path = tmp_path / "d.csv"
        _write_rows(path, rows)
        message = f"{path}: subject 's1' Hip/Left angle_deg: grid_size must be >= 21, got 3"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            ingest_csv(path)

    def test_bad_joint_is_parse_error(self, tmp_path):
        rows = ["s1,Normal,Elbow,Left,0.0,0.0"]
        path = tmp_path / "d.csv"
        _write_rows(path, rows)
        with pytest.raises(ParseError, match="joint"):
            ingest_csv(path)

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"subject_id,label,joint,side,pct,angle_deg\ns1,Normal,Hip,Left,0.0,\xff\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0xff"):
            ingest_csv(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with the UTF-8 byte order mark
        rows = [f"s1,Normal,Hip,Left,{float(p)!r},{float(p)!r}" for p in range(101)]
        path = tmp_path / "d.csv"
        _write_rows(path, rows)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        (subject,) = ingest_csv(path)
        assert subject.id == "s1" and subject.label == NORMAL
        assert np.array_equal(subject.trajectories[(Joint.HIP, Side.LEFT)].samples, np.arange(101.0))
        rows[5] = "s1,Normal,Hip,Left,5.0,nan"
        _write_rows(path, rows)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:7: "):  # header + 6 data rows
            ingest_csv(path)

    def test_wrong_header_is_schema_error(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_rows(path, ["s1,Normal,Hip,Left,0.0,0.0"], header="a,b,c,d,e,f")
        with pytest.raises(SchemaError, match="header"):
            ingest_csv(path)

    def test_conflicting_labels_rejected(self, tmp_path):
        rows = [f"s1,Normal,Hip,Left,{float(p)!r},0.0" for p in range(101)]
        rows += [f"s1,Polio,Hip,Right,{float(p)!r},0.0" for p in range(101)]
        path = tmp_path / "d.csv"
        _write_rows(path, rows)
        with pytest.raises(SchemaError, match="conflicting"):
            ingest_csv(path)

    def test_pct_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_rows(path, ["s1,Normal,Hip,Left,101.0,0.0"])
        with pytest.raises(ParseError, match="pct"):
            ingest_csv(path)

    @pytest.mark.parametrize(
        "row, error, message",
        [
            ("s1,Normal,Hip,Left,0.0", ParseError, "expected 6 fields"),
            (",Normal,Hip,Left,0.0,0.0", ParseError, "empty subject_id"),
            ("s1,,Hip,Left,0.0,0.0", SchemaError, "missing label"),
            ("s1,Normal,Elbow,Left,0.0,0.0", ParseError, "unknown joint 'Elbow'"),
            ("s1,Normal,Hip,Up,0.0,0.0", ParseError, "unknown side 'Up'"),
            ("s1,Normal,Hip,Left,x,0.0", ParseError, "pct 'x' is not a number"),
            ("s1,Normal,Hip,Left,nan,0.0", ParseError, r"pct nan outside \[0, 100\]"),
            ("s1,Normal,Hip,Left,1.0,ten", ParseError, "angle_deg 'ten' is not a number"),
            ("s1,Normal,Hip,Left,1.0,-inf", ParseError, "angle_deg '-inf' is not finite"),
            ("s1,Normal,Hip,Left,1.0,180.5", ParseError, r"\|angle_deg\| exceeds 180.0"),
            ("s1,Polio,Hip,Left,1.0,0.0", SchemaError, "subject 's1' has conflicting labels Normal and Polio"),
        ],
    )
    def test_row_errors_name_file_and_line(self, tmp_path, row, error, message):
        path = tmp_path / "d.csv"
        _write_rows(path, ["s1,Normal,Hip,Left,0.0,0.0", "", row])
        with pytest.raises(error, match=f"^{re.escape(str(path))}:4: {message}$"):
            ingest_csv(path)


def _run_rows(joint="Hip", side="Left", label="Normal", sid="s1", n=21):
    """The rows of one complete trajectory on an n-point grid, as fields."""
    return [[sid, label, joint, side, repr(100.0 * k / (n - 1)), repr(float(k))] for k in range(n)]


def _edit(rows, i, **fields):
    """rows with the named fields of row i replaced; `fields=k` cuts or
    pads the row to k fields."""
    row = list(rows[i])
    for name, value in fields.items():
        if name == "fields":
            row = (row + ["0"] * value)[:value]
        else:
            row[CSV_COLUMNS.index(name)] = value
    return rows[:i] + [row] + rows[i + 1 :]


A = _run_rows()  # lines 2-22 when it comes first
B = _run_rows(side="Right")  # lines 23-43 after A
POLIO_B = _run_rows(side="Right", label="Polio")

# rows, error class, line, message: the first failing row in file order
# wins, and within it the first failing check in the order field count,
# subject_id, label, joint, side, pct number, pct range, angle number,
# finite, magnitude, label conflict
ROW_ERRORS = {
    "pct-number-mid-run": (_edit(A, 5, pct="x") + B, ParseError, 7, "pct 'x' is not a number"),
    "pct-range-mid-run": (_edit(A, 5, pct="100.5") + B, ParseError, 7, r"pct 100.5 outside [0, 100]"),
    "angle-number-mid-run": (_edit(A, 5, angle_deg="ten") + B, ParseError, 7, "angle_deg 'ten' is not a number"),
    "finite-mid-run": (_edit(A, 5, angle_deg="nan") + B, ParseError, 7, "angle_deg 'nan' is not finite"),
    "magnitude-mid-run": (_edit(A, 5, angle_deg="-180.5") + B, ParseError, 7, "|angle_deg| exceeds 180.0"),
    "last-row-of-run": (_edit(A, 20, angle_deg="nan") + B, ParseError, 22, "angle_deg 'nan' is not finite"),
    "field-count-first": (A + _edit(B, 0, fields=5), ParseError, 23, "expected 6 fields"),
    "field-count-mid-run": (_edit(A, 5, fields=7) + B, ParseError, 7, "expected 6 fields"),
    "empty-id-first": (A + _edit(B, 0, subject_id=""), ParseError, 23, "empty subject_id"),
    "label-first": (A + _edit(B, 0, label=""), SchemaError, 23, "missing label"),
    "joint-first": (A + _edit(B, 0, joint="Elbow"), ParseError, 23, "unknown joint 'Elbow'"),
    "side-first": (A + _edit(B, 0, side="Up"), ParseError, 23, "unknown side 'Up'"),
    "pct-number-first": (A + _edit(B, 0, pct=" "), ParseError, 23, "pct ' ' is not a number"),
    "pct-range-first": (A + _edit(B, 0, pct="-1"), ParseError, 23, "pct -1.0 outside [0, 100]"),
    "angle-number-first": (A + _edit(B, 0, angle_deg=""), ParseError, 23, "angle_deg '' is not a number"),
    "finite-first": (A + _edit(B, 0, angle_deg="-inf"), ParseError, 23, "angle_deg '-inf' is not finite"),
    "magnitude-first": (A + _edit(B, 0, angle_deg="1e3"), ParseError, 23, "|angle_deg| exceeds 180.0"),
    "conflict-first": (A + POLIO_B, SchemaError, 23, "subject 's1' has conflicting labels Normal and Polio"),
    "pct-number-before-angle": (_edit(A, 5, pct="x", angle_deg="ten"), ParseError, 7, "pct 'x' is not a number"),
    "pct-range-before-finite": (_edit(A, 5, pct="101", angle_deg="nan"), ParseError, 7, "pct 101.0 outside [0, 100]"),
    "finite-before-magnitude": (_edit(A, 5, angle_deg="inf"), ParseError, 7, "angle_deg 'inf' is not finite"),
    "id-before-joint": (A + _edit(B, 0, subject_id="", joint="Elbow"), ParseError, 23, "empty subject_id"),
    "label-before-joint": (A + _edit(B, 0, label="", joint="Elbow"), SchemaError, 23, "missing label"),
    "joint-before-side": (A + _edit(B, 0, joint="Elbow", side="Up"), ParseError, 23, "unknown joint 'Elbow'"),
    "number-before-conflict": (A + _edit(POLIO_B, 0, angle_deg="nan"), ParseError, 23, "angle_deg 'nan' is not finite"),
    "conflict-before-later-row": (A + _edit(POLIO_B, 4, angle_deg="nan"), SchemaError, 23,
                                  "subject 's1' has conflicting labels Normal and Polio"),
    "earlier-row-before-earlier-check": (_edit(_edit(A, 3, angle_deg="200"), 6, pct="x"), ParseError, 5,
                                         "|angle_deg| exceeds 180.0"),
    "pending-run-before-field-count": (_edit(A, 10, angle_deg="nan") + _edit(B, 0, fields=5), ParseError, 12,
                                       "angle_deg 'nan' is not finite"),
    "pending-rows-before-field-count": (_edit(_edit(A, 3, pct="x"), 10, fields=5), ParseError, 5,
                                        "pct 'x' is not a number"),
    "blank-lines-counted": (A[:4] + ["", ""] + A[4:] + _edit(B, 2, angle_deg="nan"), ParseError, 27,
                            "angle_deg 'nan' is not finite"),
}

# cell values that each fail some row check in some column
_BAD_TOKENS = ["x", "", " ", "nan", "inf", "-inf", "1e3", "-180.5", "100.5", "-1", "Elbow", "Up", "Polio"]


@st.composite
def broken_datasets(draw):
    """A valid dataset, 2 subjects x 2 parts x 21 grid points with the rows
    of a subject's parts optionally interleaved, as rows of fields; then
    1-3 edits, each setting a cell to a failing token or cutting a row to
    5 fields or padding it to 7."""
    interleave = draw(st.booleans())
    rows = []
    for sid, label in (("s1", "Normal"), ("s2", "CP-dp")):
        a = _run_rows(sid=sid, label=label)
        b = _run_rows(joint="Knee", side="Right", sid=sid, label=label)
        rows += [row for pair in zip(a, b) for row in pair] if interleave else a + b
    edits = [
        (draw(st.integers(0, len(rows) - 1)), draw(st.sampled_from(CSV_COLUMNS + ("fields",))))
        for _ in range(draw(st.integers(1, 3)))
    ]
    for i, name in sorted(edits, key=lambda edit: edit[1] == "fields"):  # a cut row has no cell 5
        rows = _edit(rows, i, **{name: draw(st.sampled_from([5, 7] if name == "fields" else _BAD_TOKENS))})
    return rows


class TestIngestRuns:
    """ingest_csv checks a run of rows that share (subject_id, label, joint,
    side) at once; its errors must be those of a row-by-row check."""

    def _write(self, path, rows):
        _write_rows(path, [row if isinstance(row, str) else ",".join(row) for row in rows])

    @pytest.mark.parametrize("rows, error, line, message", ROW_ERRORS.values(), ids=list(ROW_ERRORS))
    def test_first_failing_row_and_check(self, tmp_path, rows, error, line, message):
        path = tmp_path / "d.csv"
        self._write(path, rows)
        with pytest.raises(error, match=f"^{re.escape(f'{path}:{line}: {message}')}$") as info:
            ingest_csv(path)
        assert type(info.value) is error

    @settings(max_examples=300, deadline=None)
    @given(rows=broken_datasets())
    def test_errors_match_row_by_row_oracle(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("rows") / "d.csv"
        self._write(path, rows)
        expected = reference_ingest_error(path)
        if expected is None:
            # every row passes: only the checks of a whole trajectory may fail
            try:
                ingest_csv(path)
            except SchemaError as exc:
                assert str(exc).startswith(f"{path}: subject ")
            return
        name, line, message = expected
        with pytest.raises((ParseError, SchemaError)) as info:
            ingest_csv(path)
        assert (type(info.value).__name__, str(info.value)) == (name, f"{path}:{line}: {message}")

    @pytest.mark.parametrize(
        "rows",
        [A[:8] + B + A[8:], A[::-1] + B[::-1], A[:4] + ["", ""] + A[4:] + [""] + B, A[:10] + B[:3] + A[10:] + B[3:]],
        ids=["non-adjacent", "unsorted", "blank-lines", "interleaved"],
    )
    def test_rows_of_one_part_merge_in_grid_order(self, tmp_path, rows):
        path = tmp_path / "d.csv"
        self._write(path, rows)
        (subj,) = ingest_csv(path)
        expected = np.interp(np.linspace(0.0, 100.0, 101), np.linspace(0.0, 100.0, 21), np.arange(21.0))
        assert subj.id == "s1" and subj.label == NORMAL
        assert list(subj.trajectories) == [(Joint.HIP, Side.LEFT), (Joint.HIP, Side.RIGHT)]
        for traj in subj.trajectories.values():
            assert traj.samples.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "rows", [_edit(A, 5, pct=A[4][4]) + B, A + B + A[:1]], ids=["within-run", "across-runs"]
    )
    def test_duplicate_pct_rejected(self, tmp_path, rows):
        path = tmp_path / "d.csv"
        self._write(path, rows)
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: subject 's1' Hip/Left: duplicate pct values$"):
            ingest_csv(path)

    def test_error_names_physical_line_after_multiline_id(self, tmp_path):
        # each row of "a<newline>b" takes two lines: rows 2-3, 4-5, ..., 42-43
        multi = [['"a\nb"', *row[1:]] for row in A]
        path = tmp_path / "d.csv"
        self._write(path, multi + _edit(B, 3, angle_deg="nan"))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:47: angle_deg 'nan' is not finite$"):
            ingest_csv(path)
        self._write(path, _edit(multi, 4, angle_deg="x"))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:11: angle_deg 'x' is not a number$"):
            ingest_csv(path)


# dataset text: UTF-8 encodable, so no surrogates
_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "é", "λ", "a", "0"]) | st.characters(exclude_categories=("Cs",)),
                min_size=1, max_size=8)
_ANGLES = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 3.0, -180.0, 180.0]) | \
    st.floats(-180.0, 180.0)


_PARTS = [(j.value, s.value) for j in Joint for s in Side]


@st.composite
def subject_specs(draw):
    """Subjects as (id, label, {(joint, side): samples}) on one grid size,
    each id used once, as a dataset holds them."""
    n = draw(st.sampled_from([21, 22, 51, 101]))
    parts = st.lists(st.sampled_from(_PARTS), min_size=1, max_size=3, unique=True)
    return [
        (sid, draw(_TEXT), {part: draw(st.lists(_ANGLES, min_size=n, max_size=n)) for part in draw(parts)})
        for sid in draw(st.lists(_TEXT, min_size=1, max_size=3, unique=True))
    ]


class TestWriteCsv:
    @settings(max_examples=120, deadline=None)
    @given(specs=subject_specs())
    @example(specs=[("a,b", "x\ry", {("Hip", "Left"): [-0.0] * 21}), ('a"b', "a\nb", {("Ankle", "Right"): [5e-324] * 21})])
    def test_bytes_equal_row_by_row_writer(self, tmp_path_factory, specs):
        tmp = tmp_path_factory.mktemp("write_csv")
        subjects = [
            Subject(id=sid, label=ClassLabel(label), trajectories={
                (Joint(j), Side(s)): make_traj(samples, joint=Joint(j), side=Side(s))
                for (j, s), samples in parts.items()
            })
            for sid, label, parts in specs
        ]
        write_csv(subjects, tmp / "dataset.csv")
        reference_write_csv(specs, tmp / "reference.csv")
        assert (tmp / "dataset.csv").read_bytes() == (tmp / "reference.csv").read_bytes()
        # any id and label text reads back, and ingest -> write -> ingest is bit-identical
        ingested = ingest_csv(tmp / "dataset.csv")
        assert [(s.id, s.label, set(s.trajectories)) for s in ingested] == [
            (s.id, s.label, set(s.trajectories)) for s in subjects]
        write_csv(ingested, tmp / "again.csv")
        again = ingest_csv(tmp / "again.csv")
        assert [(s.id, s.label, s.sorted_parts()) for s in again] == [
            (s.id, s.label, s.sorted_parts()) for s in ingested]
        for a, b in zip(ingested, again):
            for key in a.trajectories:
                assert a.trajectories[key].samples.tobytes() == b.trajectories[key].samples.tobytes()


class TestRoundTrip:
    def _random_subjects(self, seed):
        rng = np.random.default_rng(seed)
        subjects = []
        for i in range(3):
            trajectories = {}
            for joint in (Joint.HIP, Joint.KNEE):
                for side in Side:
                    trajectories[(joint, side)] = make_traj(
                        rng.uniform(-60, 60, 101), joint=joint, side=side
                    )
            subjects.append(
                Subject(id=f"subj-{i}", label=ClassLabel("CP-dp"), trajectories=trajectories)
            )
        return subjects

    def test_csv_round_trip_bit_identical(self, tmp_path):
        subjects = self._random_subjects(11)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(subjects, p1)
        again = ingest_csv(p1)
        write_csv(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for s, t in zip(subjects, again):
            assert s.id == t.id and s.label == t.label
            for key in s.trajectories:
                assert np.array_equal(s.trajectories[key].samples, t.trajectories[key].samples)

    def test_csv_round_trip_any_id_text(self, tmp_path):
        subjects = [
            replace(s, id=sid) for s, sid in zip(self._random_subjects(13), ["a\rb", 'q"\n,', "plain"])
        ]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(subjects, p1)
        again = ingest_csv(p1)
        write_csv(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert [s.id for s in again] == ["a\rb", 'q"\n,', "plain"]
        assert p1.read_text(encoding="utf-8").endswith("\nplain,CP-dp,Knee,Left,100.0,%r\n" % float(
            subjects[2].trajectories[(Joint.KNEE, Side.LEFT)].samples[-1]))
        for s, t in zip(subjects, again):
            for key in s.trajectories:
                assert np.array_equal(s.trajectories[key].samples, t.trajectories[key].samples)

