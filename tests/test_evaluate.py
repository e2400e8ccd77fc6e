import csv
import os
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitsig.data import ClassLabel, NORMAL, POLIO, write_json
from gaitsig.evaluate import (
    EvalReport,
    FoldRecord,
    format_report_table,
    kappa,
    label_nodes,
    loocv,
    write_confusion_csv,
)
from gaitsig.som import InitMode, SomMap, TrainSchedule, best_match, init, train

from oracles import reference_best_match, reference_label_nodes

A = ClassLabel("Normal")
B = ClassLabel("Polio")


@dataclass
class Vec:
    """Minimal labeled vector for evaluation tests."""

    values: np.ndarray
    subject_id: str
    label: ClassLabel


@dataclass
class Rows:
    """The rows of labeled vectors, as loocv reads a FeatureMatrix (a
    duck-typed stand-in of any width)."""

    values: np.ndarray
    subject_ids: tuple[str, ...]
    labels: tuple[ClassLabel, ...]


def rows_of(vectors):
    return Rows(np.stack([v.values for v in vectors]), tuple(v.subject_id for v in vectors),
                tuple(v.label for v in vectors))


def make_map(rows, cols, weights, trained=True):
    return SomMap(
        rows=rows,
        cols=cols,
        weights=np.asarray(weights, dtype=float),
        schedule=TrainSchedule(epochs=10).resolve(rows, cols),
        trained=trained,
    )


class TestKappa:
    def test_diagonal_is_one(self):
        assert kappa(np.diag([7, 3, 5])) == pytest.approx(1.0, abs=1e-15)

    def test_uniform_2x2_is_zero(self):
        assert kappa(np.array([[25, 25], [25, 25]])) == pytest.approx(0.0, abs=1e-15)

    def test_worked_example_rational(self):
        # independent rational-arithmetic oracle for [[45, 5], [15, 35]]
        m = [[45, 5], [15, 35]]
        total = Fraction(sum(sum(r) for r in m))
        p_o = Fraction(45 + 35) / total
        p_e = sum(
            (Fraction(sum(m[i])) / total) * (Fraction(m[0][i] + m[1][i]) / total)
            for i in range(2)
        )
        expected = (p_o - p_e) / (1 - p_e)
        assert expected == Fraction(3, 5)
        assert kappa(np.array(m)) == pytest.approx(float(expected), abs=1e-12)

    def test_pe_one_is_error(self):
        with pytest.raises(ValueError, match="p_e"):
            kappa(np.array([[10, 0], [0, 0]]))

    def test_empty_is_error(self):
        with pytest.raises(ValueError, match="positive total"):
            kappa(np.zeros((2, 2)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            kappa(np.zeros((2, 3)))

    @settings(max_examples=60)
    @given(st.lists(st.integers(0, 40), min_size=4, max_size=4))
    def test_bounds_property(self, counts):
        m = np.array(counts).reshape(2, 2)
        total = m.sum()
        row = m.sum(1) / max(total, 1)
        col = m.sum(0) / max(total, 1)
        if total == 0 or float(row @ col) >= 1.0:
            return
        k = kappa(m)
        assert k <= 1.0 + 1e-12
        if np.trace(m) == total:
            assert k == pytest.approx(1.0, abs=1e-12)
        else:
            assert k < 1.0

    def test_label_permutation_equivariance(self):
        m = np.array([[30, 4], [6, 25]])
        swapped = m[::-1, ::-1]  # consistent row+column permutation
        assert kappa(m) == pytest.approx(kappa(swapped), abs=1e-12)


class TestLabelMap:
    def test_single_label_covers_all_nodes(self):
        m = make_map(2, 2, np.array([[0.0], [1.0], [2.0], [3.0]]))
        labels = label_nodes(m, np.array([[0.1], [2.9]]), [A, A])
        assert all(lab == A for lab in labels)

    def test_one_vector_per_node_keeps_own_label(self):
        labels = [ClassLabel(v) for v in ("Normal", "CP-dp", "Polio", "SpinaBifida")]
        m = make_map(2, 2, np.array([[0.0], [10.0], [20.0], [30.0]]))
        x = np.array([[10.0 * i] for i in range(len(labels))])
        assert list(label_nodes(m, x, labels)) == labels

    def test_majority_tie_takes_lowest_class_order(self):
        m = make_map(1, 2, np.array([[0.0], [100.0]]))
        x = np.array([[0.0], [0.1], [-0.1], [0.2]])
        assert label_nodes(m, x, [POLIO, POLIO, NORMAL, NORMAL])[0] == NORMAL  # Normal sorts before Polio

    def test_empty_node_inherits_nearest_by_row_major_tie(self):
        # node 1 is grid-equidistant from labeled nodes 0 and 2: the lower
        # row-major index wins even though its label sorts later
        m = make_map(1, 3, np.array([[0.0], [50.0], [100.0]]))
        labels = label_nodes(m, np.array([[0.0], [100.0]]), [POLIO, NORMAL])
        assert labels[0] == POLIO
        assert labels[1] == POLIO  # inherited from node 0
        assert labels[2] == NORMAL

    def test_untrained_map_is_state_error(self):
        m = make_map(1, 2, np.array([[0.0], [1.0]]), trained=False)
        with pytest.raises(RuntimeError, match="untrained"):
            label_nodes(m, np.array([[0.0]]), [A])

    def test_unlabeled_vectors_rejected(self):
        m = make_map(1, 2, np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError, match="labeled"):
            label_nodes(m, np.array([[0.0]]), [None])


class TestClassify:
    """A vector's class is the label of its best-matching node, as each
    leave-one-out fold predicts it."""

    def test_training_vector_gets_its_node_label(self):
        m = make_map(1, 2, np.array([[0.0, 0.0], [5.0, 5.0]]))
        labels = label_nodes(m, np.array([[0.0, 0.0], [5.0, 5.0]]), [A, B])
        assert labels[best_match(m, np.array([0.0, 0.0]))] == A
        assert labels[best_match(m, np.array([5.0, 5.0]))] == B

    def test_total_function_far_from_weights(self):
        m = make_map(1, 2, np.array([[0.0, 0.0], [5.0, 5.0]]))
        labels = label_nodes(m, np.array([[0.0, 0.0], [5.0, 5.0]]), [A, B])
        assert labels[best_match(m, np.array([1e6, -1e6]))] in (A, B)

    def test_dimension_mismatch(self):
        m = make_map(1, 2, np.array([[0.0, 0.0], [5.0, 5.0]]))
        with pytest.raises(ValueError, match="dimension"):
            label_nodes(m, np.zeros((1, 3)), [A])


def separable_vectors(n_per_class=5, dim=2, spread=0.0, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_per_class):
        out.append(Vec(np.array([0.0] * dim) + rng.normal(0, spread, dim), f"a{i}", A))
    for i in range(n_per_class):
        out.append(Vec(np.array([20.0] * dim) + rng.normal(0, spread, dim), f"b{i}", B))
    return out


FAST_SCHEDULE = TrainSchedule(epochs=25, rng_seed=0, init=InitMode.SAMPLE_INIT)


class TestLoocv:
    def test_separable_clusters_perfect(self):
        data = separable_vectors()
        report = loocv(rows_of(data), FAST_SCHEDULE, rows=2, cols=2)
        assert report.recognition_rate == 1.0
        assert report.kappa == pytest.approx(1.0, abs=1e-12)
        assert report.rate_dispersion == 0.0
        assert report.confusion.sum() == len(data)
        assert np.array_equal(report.confusion, np.diag([5, 5]))

    def test_fold_records_complete(self):
        data = separable_vectors(n_per_class=3)
        report = loocv(rows_of(data), FAST_SCHEDULE, rows=2, cols=2)
        assert [f.held_out for f in report.folds] == [v.subject_id for v in data]
        assert all(f.true == f.predicted for f in report.folds)

    def test_shuffled_labels_kappa_near_zero(self):
        # permutation oracle: mean kappa over 20 random label shuffles of
        # separable data stays near chance level
        rng = np.random.default_rng(99)
        data = separable_vectors(n_per_class=5, spread=0.3, seed=1)
        kappas = []
        for shuffle in range(20):
            labels = [v.label for v in data]
            perm = rng.permutation(len(labels))
            shuffled = [
                Vec(v.values, v.subject_id, labels[perm[i]]) for i, v in enumerate(data)
            ]
            if len({v.label for v in shuffled}) < 2:
                continue
            schedule = TrainSchedule(epochs=25, rng_seed=1000 + shuffle,
                                     init=InitMode.SAMPLE_INIT)
            kappas.append(loocv(rows_of(shuffled), schedule, rows=2, cols=2).kappa)
        assert abs(float(np.mean(kappas))) < 0.3

    def test_deterministic_per_base_seed(self):
        data = separable_vectors(n_per_class=3, spread=0.5, seed=2)
        a = loocv(rows_of(data), FAST_SCHEDULE, rows=3, cols=3)
        b = loocv(rows_of(data), FAST_SCHEDULE, rows=3, cols=3)
        assert np.array_equal(a.confusion, b.confusion)
        assert a.folds == b.folds
        assert a.kappa == b.kappa and a.recognition_rate == b.recognition_rate

    def test_label_permutation_equivariance(self):
        data = separable_vectors(n_per_class=4, spread=0.2, seed=3)
        swapped = [
            Vec(v.values, v.subject_id, B if v.label == A else A) for v in data
        ]
        r1 = loocv(rows_of(data), FAST_SCHEDULE, rows=2, cols=2)
        r2 = loocv(rows_of(swapped), FAST_SCHEDULE, rows=2, cols=2)
        assert r1.recognition_rate == r2.recognition_rate
        assert r1.kappa == pytest.approx(r2.kappa, abs=1e-12)

    def test_single_class_rejected(self):
        data = [Vec(np.array([float(i), 0.0]), f"s{i}", A) for i in range(4)]
        with pytest.raises(ValueError, match="single-class"):
            loocv(rows_of(data), FAST_SCHEDULE, rows=2, cols=2)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            loocv(rows_of([Vec(np.zeros(2), "a", A)]), FAST_SCHEDULE, rows=2, cols=2)


def three_class_vectors(n_per_class=5, spread=4.0, seed=4):
    """Overlapping classes, so some folds mispredict and a fold out of
    place would change the report."""
    rng = np.random.default_rng(seed)
    centers = {A: [0.0, 0.0], B: [6.0, 0.0], ClassLabel("CP-dp"): [3.0, 5.0]}
    return [
        Vec(np.abs(np.array(c) + rng.normal(0, spread, 2)), f"{lab.value}{i}", lab)
        for lab, c in centers.items()
        for i in range(n_per_class)
    ]


def serial_loocv(data, schedule, rows, cols):
    """Reference: the folds one after another, each map trained through the
    public API and labelled by the oracle."""
    classes = sorted({v.label for v in data})
    confusion = np.zeros((len(classes), len(classes)), dtype=int)
    folds = []
    for i, held_out in enumerate(data):
        training = data[:i] + data[i + 1:]
        x = np.stack([v.values for v in training])
        som = init(rows, cols, replace(schedule, rng_seed=schedule.rng_seed + i), samples=x)
        weights = train(som, x).weights
        node_labels = reference_label_nodes(weights, cols, x, [v.label for v in training])
        predicted = node_labels[reference_best_match(weights, held_out.values)]
        confusion[classes.index(held_out.label), classes.index(predicted)] += 1
        folds.append(FoldRecord(held_out.subject_id, held_out.label, predicted))
    correct = sum(f.true == f.predicted for f in folds)
    return confusion, tuple(folds), kappa(confusion), correct / len(data)


class TestLoocvWorkers:
    # more folds than usable CPUs, so every worker runs several folds
    DATA = three_class_vectors(n_per_class=max(5, len(os.sched_getaffinity(0)) // 3 + 1))
    SCHEDULE = TrainSchedule(epochs=25, rng_seed=11, init=InitMode.SAMPLE_INIT)

    def assert_matches_serial(self, report):
        confusion, folds, k, rate = serial_loocv(self.DATA, self.SCHEDULE, 3, 3)
        assert 0 < rate < 1
        assert np.array_equal(report.confusion, confusion)
        assert report.folds == folds
        assert report.kappa == k
        assert report.recognition_rate == rate

    def test_pool_equals_serial_loop(self):
        assert len(self.DATA) > len(os.sched_getaffinity(0))
        self.assert_matches_serial(loocv(rows_of(self.DATA), self.SCHEDULE, rows=3, cols=3))

    def test_one_cpu_equals_serial_loop(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        self.assert_matches_serial(loocv(rows_of(self.DATA), self.SCHEDULE, rows=3, cols=3))


class TestReportOutput:
    def _report(self):
        data = separable_vectors(n_per_class=3)
        return loocv(rows_of(data), FAST_SCHEDULE, rows=2, cols=2)

    def test_json_deterministic(self, tmp_path):
        report = self._report()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(report, p1)
        write_json(report, p2)
        assert p1.read_bytes() == p2.read_bytes()
        import json

        doc = json.loads(p1.read_text())
        assert doc["classes"] == ["Normal", "Polio"]
        assert doc["recognition_rate"] == 1.0
        assert len(doc["folds"]) == 6

    def test_table_mentions_key_numbers(self):
        text = format_report_table(self._report())
        assert "recognition rate: 1.0000" in text
        assert "kappa: 1.0000" in text
        assert "Normal" in text and "Polio" in text

    def test_confusion_csv(self, tmp_path):
        write_confusion_csv(self._report(), tmp_path / "c.csv")
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert lines[0] == "true\\predicted,Normal,Polio"
        assert lines[1] == "Normal,3,0"
        assert lines[2] == "Polio,0,3"

    @pytest.mark.parametrize("text", ["CP,x", 'say "a"', "a\rb", "a\nb", "a,\r\"\nb"])
    def test_confusion_csv_reads_back_any_label(self, tmp_path, text):
        report = replace(self._report(), classes=(ClassLabel("Normal"), ClassLabel(text)))
        write_confusion_csv(report, tmp_path / "c.csv")
        with open(tmp_path / "c.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["true\\predicted", "Normal", text], ["Normal", "3", "0"], [text, "0", "3"]]


class TestEvalReportInvariants:
    def test_confusion_shape_checked(self):
        with pytest.raises(ValueError, match="confusion"):
            EvalReport(
                classes=(A, B),
                confusion=np.zeros((3, 3), dtype=int),
                recognition_rate=0.5,
                rate_dispersion=0.0,
                kappa=0.0,
                folds=(),
            )

    def test_rate_bounds_checked(self):
        with pytest.raises(ValueError, match="recognition_rate"):
            EvalReport(
                classes=(A, B),
                confusion=np.zeros((2, 2), dtype=int),
                recognition_rate=1.5,
                rate_dispersion=0.0,
                kappa=0.0,
                folds=(),
            )
