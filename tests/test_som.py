import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gaitsig
from gaitsig.som import (
    BORDER,
    AttractionField,
    InitMode,
    Kernel,
    SomMap,
    TrainSchedule,
    UMatrix,
    attraction_field,
    best_match,
    clusters,
    init,
    save_map_json,
    train,
    umatrix,
    write_attraction_csv,
    write_clusters_csv,
    write_umatrix_csv,
)

from oracles import reference_save_map_json, reference_train, same_partition, union_find_components


def make_map(rows, cols, weights, trained=True, schedule=None):
    return SomMap(
        rows=rows,
        cols=cols,
        weights=np.asarray(weights, dtype=float),
        schedule=schedule or TrainSchedule(epochs=10).resolve(rows, cols),
        trained=trained,
    )


def reference_weights(m0, data):
    s = m0.schedule
    return reference_train(
        m0.weights, m0.cols, data, s.epochs, s.alpha0, s.sigma0, s.sigma_end,
        s.kernel.value, s.rng_seed,
    )


# negatives, signed zeros, tiny normals and subnormals
_train_values = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, -3e-301, 5e-324, -5e-324]),
    st.floats(-1e-299, 1e-299),
)
# small integers tie exactly; squares of 1e-160 underflow; squares of 1e160
# and 1e300 overflow; near 1e8, ||w||^2 - 2 w.x cancels most of its digits
_integer_values = st.integers(-3, 3).map(float)
_extreme_values = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([1e-160, -1e-160, 1e160, -1e160, 1e300, -1e300]),
)
_subnormal_square_values = st.integers(-4, 4).map(lambda k: k * 1e-162)
_far_values = st.integers(-12, 12).map(lambda k: 1e8 + k / 4)


@st.composite
def training_cases(draw):
    rows = draw(st.integers(1, 10))
    cols = draw(st.integers(2 if rows == 1 else 1, 10))
    dim = draw(st.integers(1, 40))
    values = draw(st.sampled_from([
        _train_values, _integer_values, _extreme_values, _subnormal_square_values, _far_values,
    ]))
    n = draw(st.integers(1, 8))
    data = draw(hnp.arrays(float, (n, dim), elements=values))
    for j in draw(st.sets(st.integers(0, dim - 1), max_size=3)):
        data[:, j] = draw(values)  # constant column
    for j in draw(st.sets(st.integers(0, dim - 1), max_size=3)):
        data[:, j] = draw(hnp.arrays(float, n, elements=_integer_values))
    data = data[draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))]  # duplicate rows
    kernel = draw(st.sampled_from(Kernel))
    schedule = TrainSchedule(
        epochs=draw(st.integers(1, 4)),
        alpha0=draw(st.sampled_from([0.0, 0.5, 1.0])),
        sigma_end=draw(st.sampled_from([0.3, 1.0] + ([0.0] if kernel is Kernel.BUBBLE else []))),
        kernel=kernel,
        rng_seed=draw(st.integers(0, 2**16)),
        init=draw(st.sampled_from(InitMode)),
    )
    return init(rows, cols, schedule, samples=data), data


def wide_map_case(rows, cols, kernel):
    # a side past training_cases' 10, and rows != cols: the nodes' windows
    # lie off the centre of the offset table, unequally along the two axes
    data = np.random.default_rng(rows * cols).normal(size=(20, 6))
    schedule = TrainSchedule(epochs=4, sigma_end=0.3, kernel=kernel, rng_seed=rows)
    return init(rows, cols, schedule, samples=data), data


@st.composite
def norm_bound_cases(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(2 if rows == 1 else 1, 4))
    dim = draw(st.integers(1, 8))
    n = draw(st.integers(1, 6))
    # no subnormal products: underflow would add absolute errors that the
    # relative bound leaves out, and that the fast path never needs
    values = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
    data = draw(hnp.arrays(float, (n, dim), elements=values))
    kernel = draw(st.sampled_from(Kernel))
    sigma_end = draw(st.sampled_from([0.3, 1.0] + ([0.0] if kernel is Kernel.BUBBLE else [])))
    schedule = TrainSchedule(
        epochs=draw(st.integers(1, 30)),
        alpha0=draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0))),
        sigma0=draw(st.one_of(st.none(), st.floats(sigma_end, 4.0))),
        sigma_end=sigma_end,
        kernel=kernel,
        rng_seed=draw(st.integers(0, 2**16)),
        init=draw(st.sampled_from(InitMode)),
    )
    return init(rows, cols, schedule, samples=data), data


def exact_norm2(v):
    return sum(Fraction(float(a)) ** 2 for a in v)


class TestSchedule:
    def test_alpha_decays_but_stays_positive(self):
        s = TrainSchedule(epochs=200, alpha0=0.5).resolve(10, 10)
        assert s.alpha(0) == 0.5
        assert s.alpha(199) > 0.0
        assert all(s.alpha(t) >= s.alpha(t + 1) for t in range(199))

    def test_sigma_linear_to_end_value(self):
        s = TrainSchedule(epochs=100, sigma_end=0.3).resolve(10, 10)
        assert s.sigma(0) == 5.0  # max(rows, cols)/2
        assert s.sigma(99) == pytest.approx(0.3, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha0"):
            TrainSchedule(alpha0=1.5)
        with pytest.raises(ValueError, match="epochs"):
            TrainSchedule(epochs=0)
        with pytest.raises(ValueError, match="sigma0"):
            TrainSchedule(sigma0=0.1, sigma_end=0.5)
        with pytest.raises(ValueError, match="Gaussian"):
            TrainSchedule(kernel=Kernel.GAUSSIAN, sigma0=0.0, sigma_end=0.0)

    @pytest.mark.parametrize(
        "sigma0, sigma_end",
        [(5.0, 1e-16), (1e-200, 1e-200)],
        ids=["cancels-to-zero", "square-underflows"],
    )
    def test_gaussian_sigma_that_vanishes_names_sigma_end(self, sigma0, sigma_end):
        # the last epoch's 5 + (1e-16 - 5) is 0.0; 2 * 1e-200**2 is 0.0
        with pytest.raises(ValueError, match="sigma_end"):
            TrainSchedule(epochs=3, sigma0=sigma0, sigma_end=sigma_end)

    def test_resolved_gaussian_sigma_that_vanishes_names_sigma_end(self):
        with pytest.raises(ValueError, match="sigma_end"):
            TrainSchedule(sigma_end=1e-16).resolve(10, 10)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"sigma0": 5, "sigma_end": 1e-7}, "sigma_end must be >= 1e-06 with the Gaussian kernel, got 1e-07"),
            ({"sigma0": 2e6}, "sigma0 must be <= 1000000, got 2000000.0"),
            # a NaN sigma would run every epoch and then fail on its weights
            ({"sigma_end": float("nan")}, "sigma_end must be >= 0, got nan"),
            ({"sigma_end": float("nan"), "kernel": Kernel.BUBBLE}, "sigma_end must be >= 0, got nan"),
            ({"sigma0": float("nan")}, "sigma0 must be >= sigma_end (non-increasing sigma)"),
        ],
        ids=["sigma-end", "sigma0", "sigma-end-nan", "sigma-end-nan-bubble", "sigma0-nan"],
    )
    def test_config_bounds_hold_for_a_library_schedule(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            TrainSchedule(**kwargs)
        assert str(err.value) == message

    def test_degenerate_fixtures_allowed(self):
        # the update-rule fixed-point and frozen-weights checks need these
        TrainSchedule(alpha0=0.0)
        TrainSchedule(kernel=Kernel.BUBBLE, sigma0=0.0, sigma_end=0.0)


class TestSomMapInvariants:
    def test_two_nodes_allowed(self):
        make_map(1, 2, np.zeros((2, 3)))

    def test_single_node_rejected(self):
        with pytest.raises(ValueError, match="2 nodes"):
            make_map(1, 1, np.zeros((1, 3)))

    @pytest.mark.parametrize("rows, cols", [(1, 1), (0, 5), (3, 0)])
    def test_map_and_schedule_refuse_a_grid_with_one_text(self, rows, cols):
        message = f"the map needs at least 2 nodes, got {rows}x{cols}"
        with pytest.raises(ValueError) as err:
            SomMap(rows=rows, cols=cols, weights=np.zeros((max(rows * cols, 1), 3)), schedule=TrainSchedule())
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            TrainSchedule(sigma0=1.0).resolve(rows, cols)
        assert str(err.value) == message

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="weights shape"):
            make_map(2, 2, np.zeros((3, 3)))

    def test_non_finite_rejected(self):
        w = np.zeros((4, 2))
        w[1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            make_map(2, 2, w)

    @pytest.mark.parametrize("rows, cols", [(3, 8), (7, 2), (1, 2)])
    def test_schedule_resolved_against_the_map(self, rows, cols):
        m = SomMap(rows=rows, cols=cols, weights=np.zeros((rows * cols, 2)), schedule=TrainSchedule())
        assert m.schedule.sigma0 == max(rows, cols) / 2


class TestInit:
    def test_same_seed_identical(self):
        s = TrainSchedule(rng_seed=11)
        samples = np.random.default_rng(0).normal(size=(6, 7))
        a = init(4, 5, s, samples=samples)
        b = init(4, 5, s, samples=samples)
        assert np.array_equal(a.weights, b.weights)

    def test_random_small_bound_scales_with_data_range(self):
        rng = np.random.default_rng(1)
        samples = rng.uniform(-50, 50, (30, 4)) * np.array([1.0, 10.0, 0.1, 1.0])
        eps = 0.01 * np.ptp(samples, axis=0)
        m = init(4, 4, TrainSchedule(rng_seed=2, init=InitMode.RANDOM_SMALL), samples=samples)
        assert np.all(np.abs(m.weights) <= eps[None, :])
        # each dimension actually uses its own range
        assert np.max(np.abs(m.weights[:, 1])) > eps[2]

    def test_sample_init_exact_count_is_permutation(self):
        rng = np.random.default_rng(3)
        samples = rng.uniform(-1, 1, (12, 5))
        m = init(3, 4, TrainSchedule(rng_seed=4, init=InitMode.SAMPLE_INIT), samples=samples)
        got = sorted(map(tuple, m.weights))
        expected = sorted(map(tuple, samples))
        assert got == expected

    def test_sample_init_with_replacement_when_short(self):
        samples = np.array([[1.0, 0.0], [2.0, 0.0]])
        m = init(3, 3, TrainSchedule(rng_seed=5, init=InitMode.SAMPLE_INIT), samples=samples)
        assert all(tuple(w) in {(1.0, 0.0), (2.0, 0.0)} for w in m.weights)

    def test_sample_init_requires_samples(self):
        with pytest.raises(ValueError, match=r"^init needs a non-empty \(n, dim\) sample array$"):
            init(3, 3, TrainSchedule(init=InitMode.SAMPLE_INIT), None)

    @pytest.mark.parametrize("mode", InitMode)
    @pytest.mark.parametrize(
        "samples", [None, np.zeros((0, 2)), np.arange(3.0), np.zeros((2, 2, 2))],
        ids=["none", "empty", "1-d", "3-d"],
    )
    def test_refuses_anything_but_a_sample_matrix(self, mode, samples):
        with pytest.raises(ValueError, match=r"^init needs a non-empty \(n, dim\) sample array$"):
            init(3, 3, TrainSchedule(init=mode), samples)

    def test_untrained_flag(self):
        assert init(2, 2, TrainSchedule(), np.zeros((1, 2))).trained is False


class TestBestMatch:
    def test_exact_weight_wins_with_zero_distance(self):
        w = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
        m = make_map(1, 3, w)
        assert best_match(m, np.array([1.0, 2.0])) == 1

    def test_tie_breaks_to_lowest_row_major(self):
        w = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        m = make_map(1, 3, w)
        # x equidistant from nodes 0 and 1
        assert best_match(m, np.array([1.0, 0.0])) == 0

    def test_dimension_mismatch(self):
        m = make_map(1, 2, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="dimension"):
            best_match(m, np.zeros(4))

    @settings(max_examples=40)
    @given(seed=st.integers(0, 10**6))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(0, 1, (25, 4))
        x = rng.normal(0, 1, 4)
        m = make_map(5, 5, w)
        oracle = min(range(25), key=lambda i: (float(np.linalg.norm(w[i] - x)), i))
        assert best_match(m, x) == oracle


class TestTrain:
    def test_fixed_point_bubble_radius_zero(self):
        # single presentation, alpha == 1, bubble radius 0: the BMU weight
        # becomes the input bit-exactly; the other node is untouched
        schedule = TrainSchedule(
            epochs=1, alpha0=1.0, sigma0=0.0, sigma_end=0.0,
            kernel=Kernel.BUBBLE, rng_seed=0,
        )
        w = np.array([[0.1, -0.7], [5.0, 5.0]])
        m = make_map(1, 2, w, trained=False, schedule=schedule)
        x = np.array([0.3, 0.2])
        out = train(m, x[None, :])
        assert np.array_equal(out.weights[0], x)
        assert np.array_equal(out.weights[1], w[1])

    def test_alpha_zero_freezes_weights(self):
        schedule = TrainSchedule(epochs=5, alpha0=0.0, rng_seed=1).resolve(2, 2)
        w = np.arange(8.0).reshape(4, 2)
        m = make_map(2, 2, w, trained=False, schedule=schedule)
        out = train(m, np.array([[100.0, -3.0], [2.0, 2.0]]))
        assert np.array_equal(out.weights, w)

    def test_input_map_untouched(self):
        schedule = TrainSchedule(epochs=3, rng_seed=2).resolve(2, 2)
        w = np.zeros((4, 2))
        m = make_map(2, 2, w, trained=False, schedule=schedule)
        out = train(m, np.array([[1.0, 1.0]]))
        assert np.array_equal(m.weights, w)
        assert out.trained and not np.array_equal(out.weights, w)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        data = rng.normal(0, 1, (20, 3))
        schedule = TrainSchedule(epochs=30, rng_seed=9)
        a = train(init(3, 3, schedule, samples=data), data)
        b = train(init(3, 3, schedule, samples=data), data)
        assert np.array_equal(a.weights, b.weights)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
    def test_training_memory_does_not_grow_with_the_winners(self):
        # 1,000 vectors win many of the 16,384 nodes, so a copy of node
        # columns kept per winner grows the peak (148 MB for one (keep,
        # coef) pair each); the weights take 0.3 MB. The child reads its
        # own peak, as ru_maxrss would count this process too.
        child = ("import numpy as np\n"
                 "from gaitsig.som import TrainSchedule, init, train\n"
                 "X = np.random.default_rng(0).random((1000, 2))\n"
                 "train(init(128, 128, TrainSchedule(epochs=1, rng_seed=1), X), X)\n"
                 "print(next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n")
        src = str(Path(gaitsig.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        peak_kib = int(done.stdout.split()[-2])
        assert peak_kib < 80 * 1024

    def test_two_cluster_means(self):
        # small-budget version of the clustering oracle (the acceptance
        # suite runs the full criterion): 1x2 map must land on the means
        rng = np.random.default_rng(10)
        sep = 8.0
        mu_a, mu_b = np.array([0.0, 0.0]), np.array([sep, 0.0])
        data = np.vstack([
            mu_a + rng.normal(0, sep / 20, (15, 2)),
            mu_b + rng.normal(0, sep / 20, (15, 2)),
        ])
        schedule = TrainSchedule(epochs=80, rng_seed=3)
        m = train(init(1, 2, schedule, samples=data), data)
        err = min(
            max(np.linalg.norm(m.weights[0] - mu_a), np.linalg.norm(m.weights[1] - mu_b)),
            max(np.linalg.norm(m.weights[0] - mu_b), np.linalg.norm(m.weights[1] - mu_a)),
        )
        assert err <= 0.10 * sep

    def test_empty_data_rejected(self):
        m = init(2, 2, TrainSchedule(), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="non-empty"):
            train(m, np.zeros((0, 2)))

    def test_dim_mismatch_rejected(self):
        m = init(2, 2, TrainSchedule(), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="dimension"):
            train(m, np.zeros((3, 5)))

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0),
        seed=st.integers(0, 10**5),
    )
    def test_update_never_overshoots_segment(self, alpha, seed):
        # bubble kernel with huge radius pulls every node with coefficient
        # alpha: each weight must stay inside [w, x] per component
        rng = np.random.default_rng(seed)
        w = rng.uniform(-10, 10, (2, 3))
        x = rng.uniform(-10, 10, 3)
        schedule = TrainSchedule(
            epochs=1, alpha0=alpha, sigma0=100.0, sigma_end=100.0,
            kernel=Kernel.BUBBLE, rng_seed=0,
        )
        m = make_map(1, 2, w, trained=False, schedule=schedule)
        out = train(m, x[None, :])
        lo = np.minimum(w, x[None, :])
        hi = np.maximum(w, x[None, :])
        slack = 4 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        assert np.all(out.weights >= lo - slack)
        assert np.all(out.weights <= hi + slack)

    @settings(max_examples=200, deadline=None)
    @given(case=training_cases())
    @example(case=wide_map_case(3, 17, Kernel.GAUSSIAN))
    @example(case=wide_map_case(17, 3, Kernel.GAUSSIAN))
    @example(case=wide_map_case(3, 17, Kernel.BUBBLE))
    @example(case=wide_map_case(17, 3, Kernel.BUBBLE))
    def test_matches_reference_loop_bit_for_bit(self, case):
        m0, data = case
        assert train(m0, data).weights.tobytes() == reference_weights(m0, data).tobytes()

    def test_signed_zeros_of_random_small_init_kept(self):
        # RandomSmall on one sample draws uniform * 0 per column, so the
        # map starts with -0.0 weights; an update that summed c*x onto
        # +0.0 would leave 98 of them +0.0
        data = np.random.default_rng(0).normal(size=(1, 31))
        schedule = TrainSchedule(
            epochs=25, kernel=Kernel.BUBBLE, init=InitMode.RANDOM_SMALL, rng_seed=5
        )
        m0 = init(7, 3, schedule, samples=data)
        out = train(m0, data).weights
        assert np.count_nonzero(np.signbit(out) & (out == 0)) == 98
        assert out.tobytes() == reference_weights(m0, data).tobytes()

    def test_negative_subnormal_input_kept(self):
        # at c = 1/2, both halves of -5e-324 round to -0.0, so their sum
        # is -0.0 even though neither the map nor the data holds one
        data = np.random.default_rng(0).normal(size=(6, 4))
        data[:, 1] = -5e-324
        schedule = TrainSchedule(epochs=5, init=InitMode.SAMPLE_INIT, rng_seed=5)
        m0 = init(2, 3, schedule, samples=data)
        out = train(m0, data).weights
        assert np.count_nonzero(np.signbit(out) & (out == 0)) == 5
        assert out.tobytes() == reference_weights(m0, data).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(case=norm_bound_cases())
    def test_node_norms_stay_within_the_training_bound(self, case):
        # each update is a convex combination rounded three times, so over
        # T presentations no node norm exceeds the largest norm of an
        # initial node or a sample by more than a factor 1 + 4 T eps;
        # squared norms compared exactly, as fractions
        m0, data = case
        presentations = m0.schedule.epochs * len(data)
        largest = max(exact_norm2(v) for v in (*m0.weights, *data))
        slack = (1 + 4 * presentations * Fraction(np.finfo(float).eps)) ** 2
        assert all(exact_norm2(w) <= largest * slack for w in train(m0, data).weights)

    def test_largest_sample_copied_into_a_node(self):
        # alpha0 = 1 and a radius-0 bubble copy each sample of the one
        # epoch into its best match, so the norm bound is attained by the
        # node that holds the largest sample
        data = np.random.default_rng(3).normal(size=(5, 6))
        data[2] *= 10.0
        schedule = TrainSchedule(
            epochs=1, alpha0=1.0, sigma0=0.0, sigma_end=0.0, kernel=Kernel.BUBBLE,
            init=InitMode.RANDOM_SMALL, rng_seed=4,
        )
        m0 = init(2, 3, schedule, samples=data)
        out = train(m0, data).weights
        assert any(np.array_equal(w, data[2]) for w in out)
        assert out.tobytes() == reference_weights(m0, data).tobytes()

    def test_product_rounding_to_negative_zero_kept(self):
        # a normal x < 0 times the last epoch's neighbor coefficient,
        # 0.1 * exp(-50), rounds to -0.0, which a BLAS product may return
        # as +0.0; the map holds no -0.0, so the sums agree
        data = np.random.default_rng(6).normal(size=(4, 3))
        data[:, 1] = -3e-308
        schedule = TrainSchedule(
            epochs=5, sigma0=0.5, sigma_end=0.1, init=InitMode.SAMPLE_INIT, rng_seed=2
        )
        m0 = init(1, 2, schedule, samples=data)
        c = schedule.alpha(4) * np.exp(-1.0 / (2.0 * schedule.sigma(4) ** 2))
        assert c * data[0, 1] == 0 and np.signbit(c * data[0, 1])
        assert not np.any(np.signbit(m0.weights) & (m0.weights == 0))
        out = train(m0, data).weights
        assert out.tobytes() == reference_weights(m0, data).tobytes()

    @pytest.mark.parametrize("w, x, bmu", [
        # x is equally far from the mirror-image nodes: the lowest index wins
        ([[1.0, 0.0], [-1.0, 0.0]], [0.0, 5.0], 0),
        # node 1 is nearer, but ||w||^2 - 2 w.x as computed is lower for
        # node 0: by rounding far from the origin, and by squares that
        # underflow to subnormals
        ([[100000002.25, 100000001.0], [100000001.5, 99999999.25]], [100000001.0, 100000000.0], 1),
        ([[2e-162, -2e-162], [3e-162, -3e-162]], [2e-162, -4e-162], 1),
        # node 0 is nearer by 1/8, but the computed ||w||^2 - 2 w.x is 4
        # lower for node 1: a radius from ||x|| alone, without the bound on
        # the node norms, would let that through
        ([[100000000.0, 99999998.75], [100000000.25, 99999998.5]], [-0.25, -1.5], 0),
    ], ids=["exact-tie", "far-from-origin", "subnormal-squares", "far-nodes-near-sample"])
    def test_radius_zero_bubble_moves_only_the_best_match(self, w, x, bmu):
        w, data = np.array(w), np.array([x])
        schedule = TrainSchedule(
            epochs=1, alpha0=0.5, sigma0=0.0, sigma_end=0.0, kernel=Kernel.BUBBLE
        )
        m0 = make_map(1, 2, w, trained=False, schedule=schedule)
        out = train(m0, data).weights
        assert not np.array_equal(out[bmu], w[bmu]) and np.array_equal(out[1 - bmu], w[1 - bmu])
        assert out.tobytes() == reference_weights(m0, data).tobytes()

    def test_overflowing_distances(self):
        # squared norms and distances overflow to inf (and inf - inf is
        # NaN), so no margin separates the nodes and each presentation
        # must take the reference scan
        data = np.array([
            [1e300, -1e300, 0.0],
            [-1e300, 1e300, 1.0],
            [1e160, 0.0, -1e300],
            [0.0, 1e300, 1e300],
            [2.0, -1.0, 0.5],
        ])
        schedule = TrainSchedule(epochs=6, init=InitMode.SAMPLE_INIT, rng_seed=3)
        m0 = init(2, 3, schedule, samples=data)
        out = train(m0, data).weights
        assert np.all(np.isfinite(out))
        assert out.tobytes() == reference_weights(m0, data).tobytes()

    def test_bmu_invariant_under_common_scaling(self):
        # powers of two scale exactly in binary floating point, so even
        # exact ties survive the scaling
        rng = np.random.default_rng(13)
        w = rng.normal(0, 1, (12, 5))
        m = make_map(3, 4, w)
        xs = rng.normal(0, 1, (10, 5))
        for c in (0.5, 2.0, 1024.0):
            scaled = make_map(3, 4, c * w)
            for x in xs:
                assert best_match(m, x) == best_match(scaled, c * x)


class TestUMatrix:
    def test_flat_map_zero_heights(self):
        m = make_map(3, 3, np.tile([1.5, -2.0], (9, 1)))
        um = umatrix(m)
        assert np.array_equal(um.heights, np.zeros((3, 3)))

    def test_two_node_single_neighbor(self):
        m = make_map(1, 2, np.array([[0.0], [3.0]]))
        um = umatrix(m)
        assert np.array_equal(um.heights, np.array([[3.0, 3.0]]))

    @pytest.mark.parametrize("rows, cols", [(1, 3), (3, 1)])
    def test_single_row_or_column_hand_computed(self, rows, cols):
        # 1-d weights 0, 2, 7 in a line: h0 = 2, h1 = (2 + 5)/2 = 3.5, h2 = 5
        um = umatrix(make_map(rows, cols, np.array([[0.0], [2.0], [7.0]])))
        assert np.array_equal(um.heights, np.array([2.0, 3.5, 5.0]).reshape(rows, cols))

    def test_2x2_hand_computed(self):
        # 1-d weights 0, 2, 6, 9 on a 2x2 grid:
        #   h00 = (|0-2| + |0-6|)/2 = 4     h01 = (2 + |2-9|)/2 = 4.5
        #   h10 = (6 + |6-9|)/2 = 4.5       h11 = (7 + 3)/2 = 5
        m = make_map(2, 2, np.array([[0.0], [2.0], [6.0], [9.0]]))
        um = umatrix(m)
        assert np.array_equal(um.heights, np.array([[4.0, 4.5], [4.5, 5.0]]))

    def test_threshold_is_60th_percentile(self):
        m = make_map(2, 2, np.array([[0.0], [2.0], [6.0], [9.0]]))
        um = umatrix(m)
        assert um.threshold == np.quantile(um.heights, 0.60)

    def test_horizontal_flip_symmetry(self):
        rng = np.random.default_rng(14)
        w = rng.normal(0, 2, (12, 6))
        m = make_map(3, 4, w)
        flipped_w = w.reshape(3, 4, 6)[:, ::-1, :].reshape(12, 6)
        fm = make_map(3, 4, flipped_w)
        # identical up to float addition reordering (left/right neighbor
        # contributions swap accumulation order under the flip)
        assert np.allclose(
            umatrix(fm).heights, np.fliplr(umatrix(m).heights), rtol=1e-12, atol=0
        )


class TestAttractionField:
    def test_flat_heights_zero_field(self):
        um = UMatrix(heights=np.full((4, 4), 2.0), threshold=2.0)
        field = attraction_field(um)
        assert np.array_equal(field.d_row, np.zeros((4, 4)))
        assert np.array_equal(field.d_col, np.zeros((4, 4)))

    def test_bowl_points_inward(self):
        r, c = np.meshgrid(np.arange(5.0), np.arange(5.0), indexing="ij")
        heights = (r - 2.0) ** 2 + (c - 2.0) ** 2
        field = attraction_field(UMatrix(heights=heights, threshold=1.0))
        for i in range(5):
            for j in range(5):
                if (i, j) == (2, 2):
                    continue
                to_center = np.array([2.0 - i, 2.0 - j])
                vec = np.array([field.d_row[i, j], field.d_col[i, j]])
                assert float(vec @ to_center) > 0.0

    def test_matches_finite_difference_oracle(self):
        rng = np.random.default_rng(15)
        heights = rng.uniform(0, 3, (5, 6))
        field = attraction_field(UMatrix(heights=heights, threshold=1.0))
        rows, cols = heights.shape
        for i in range(rows):
            for j in range(cols):
                if i == 0:
                    dr = heights[1, j] - heights[0, j]
                elif i == rows - 1:
                    dr = heights[-1, j] - heights[-2, j]
                else:
                    dr = (heights[i + 1, j] - heights[i - 1, j]) / 2.0
                if j == 0:
                    dc = heights[i, 1] - heights[i, 0]
                elif j == cols - 1:
                    dc = heights[i, -1] - heights[i, -2]
                else:
                    dc = (heights[i, j + 1] - heights[i, j - 1]) / 2.0
                assert field.d_row[i, j] == pytest.approx(-dr, abs=1e-12)
                assert field.d_col[i, j] == pytest.approx(-dc, abs=1e-12)


class TestClusters:
    def test_threshold_above_max_single_cluster(self):
        um = UMatrix([[0.0, 1.0], [2.0, 3.0]], threshold=4.0)
        ids = clusters(um)
        assert np.array_equal(ids, np.zeros((2, 2), dtype=int))

    def test_threshold_below_min_all_border(self):
        um = UMatrix([[1.0, 2.0], [3.0, 4.0]], threshold=0.5)
        ids = clusters(um)
        assert np.all(ids == BORDER)

    def test_two_valleys_threshold_between(self):
        heights = np.array([
            [0.0, 0.0, 9.0, 0.0, 0.0],
            [0.0, 0.0, 9.0, 0.0, 0.0],
            [9.0, 9.0, 9.0, 9.0, 9.0],
        ])
        um = UMatrix(heights, threshold=5.0)
        ids = clusters(um)
        assert ids[0, 0] == 0 and ids[0, 3] == 1  # row-major discovery order
        assert ids[2, 2] == BORDER
        assert len(set(ids[ids >= 0].tolist())) == 2
        assert same_partition(ids, union_find_components(heights < 5.0))

    @settings(max_examples=30)
    @given(seed=st.integers(0, 10**6), thr=st.floats(0.05, 0.95))
    def test_matches_union_find_oracle(self, seed, thr):
        rng = np.random.default_rng(seed)
        heights = rng.uniform(0, 1, (6, 7))
        um = UMatrix(heights, threshold=thr)
        ids = clusters(um)
        assert same_partition(ids, union_find_components(heights < thr))

    def test_default_threshold_used(self):
        um = umatrix(make_map(2, 2, np.array([[0.0], [2.0], [6.0], [9.0]])))
        assert same_partition(clusters(um), union_find_components(um.heights < np.quantile(um.heights, 0.6)))

    def test_non_finite_threshold_rejected(self):
        with pytest.raises(ValueError, match="^threshold must be finite, got nan$"):
            UMatrix([[0.0, 1.0], [2.0, 3.0]], threshold=float("nan"))


class TestSerialization:
    def test_save_twice_identical_bytes(self, tmp_path):
        m = make_map(1, 2, np.array([[0.1], [0.2]]))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_map_json(m, p1)
        save_map_json(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 5)).filter(lambda d: d[0] * d[1] >= 2),
        trained=st.booleans(),
        kernel=st.sampled_from(Kernel),
        data=st.data(),
    )
    def test_bytes_equal_one_json_dump(self, tmp_path_factory, dims, trained, kernel, data):
        rows, cols, dim = dims
        values = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -7.0]) | \
            st.floats(allow_nan=False, allow_infinity=False)
        weights = data.draw(hnp.arrays(float, (rows * cols, dim), elements=values))
        schedule = TrainSchedule(epochs=7, alpha0=0.25, sigma_end=0.5, kernel=kernel, rng_seed=3).resolve(rows, cols)
        m = make_map(rows, cols, weights, trained=trained, schedule=schedule)
        tmp = tmp_path_factory.mktemp("som_json")
        save_map_json(m, tmp / "som.json")
        reference_save_map_json(rows, cols, weights, trained, {
            "epochs": 7, "alpha0": 0.25, "sigma0": schedule.sigma0, "sigma_end": 0.5,
            "kernel": kernel.value, "rng_seed": 3, "init": schedule.init.value,
        }, tmp / "reference.json")
        assert (tmp / "som.json").read_bytes() == (tmp / "reference.json").read_bytes()

    def test_artifact_csv_writers(self, tmp_path):
        m = make_map(2, 2, np.array([[0.0], [2.0], [6.0], [9.0]]))
        um = umatrix(m)
        write_umatrix_csv(um, tmp_path / "um.csv")
        text = (tmp_path / "um.csv").read_text()
        assert text.startswith("# umatrix rows=2 cols=2 threshold=")
        assert "4.0,4.5" in text
        field = attraction_field(um)
        write_attraction_csv(field, tmp_path / "at.csv")
        assert (tmp_path / "at.csv").read_text().splitlines()[0] == "row,col,dx,dy"
        ids = clusters(replace(um, threshold=um.heights.max() + 1))
        write_clusters_csv(ids, tmp_path / "cl.csv")
        lines = (tmp_path / "cl.csv").read_text().splitlines()
        assert lines[0] == "row,col,cluster" and lines[1] == "0,0,0"

    @staticmethod
    def _read_back(path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def _umatrix(self):
        weights = np.random.default_rng(4).normal(size=(12, 3))
        return umatrix(make_map(3, 4, weights))

    def test_attraction_csv_reads_back_bit_for_bit(self, tmp_path):
        field = attraction_field(self._umatrix())
        write_attraction_csv(field, tmp_path / "at.csv")
        header, *rows = self._read_back(tmp_path / "at.csv")
        assert header == ["row", "col", "dx", "dy"]
        assert [(int(r), int(c)) for r, c, _, _ in rows] == list(np.ndindex(field.d_row.shape))
        # every cell a plain float, equal to the field bit for bit
        dx, dy = (np.array([float(row[k]) for row in rows]) for k in (2, 3))
        assert dx.tobytes() == field.d_col.tobytes() and dy.tobytes() == field.d_row.tobytes()

    def test_umatrix_and_clusters_csv_read_back(self, tmp_path):
        um = self._umatrix()
        write_umatrix_csv(um, tmp_path / "um.csv")
        (header,), *rows = self._read_back(tmp_path / "um.csv")
        assert header == f"# umatrix rows=3 cols=4 threshold={float(um.threshold)!r}"
        assert np.array_equal(np.array(rows, dtype=float), um.heights)
        ids = clusters(um)
        write_clusters_csv(ids, tmp_path / "cl.csv")
        header, *rows = self._read_back(tmp_path / "cl.csv")
        assert header == ["row", "col", "cluster"] and len(rows) == ids.size
        for r, c, cluster in rows:
            assert int(cluster) == ids[int(r), int(c)]
