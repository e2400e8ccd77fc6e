"""Kohonen self-organizing map: training, U-Matrix, attraction field.

A rectangular grid of nodes (4-neighborhood, row-major indexing) holds one
reference vector per node. Training presents every vector once per epoch
in a seeded shuffled order and pulls each node toward the input:

    w_i <- w_i + alpha(t) * h(i, i*, sigma(t)) * (x - w_i)

where i* is the best-matching unit (minimum Euclidean distance, ties to
the lowest row-major index) and h is a Gaussian or bubble kernel over grid
distance. The product alpha*h is the shrinking neighborhood function whose
decay to zero gives convergence. Updates are applied in the algebraically
equivalent convex form w <- (1-a)*w + a*x, which is bit-exact at a = 1
(the update-rule fixed point) and never overshoots the segment.

The U-Matrix maps each node to the mean distance to its grid neighbors;
valleys are clusters and ridges the borders between them. The attraction
field is the negative discrete gradient of those heights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

BORDER = -1  # cluster id for nodes at or above the threshold
THRESHOLD_QUANTILE = 0.60  # of the U-Matrix heights: the default cluster threshold

_INIT_STREAM = 0
_TRAIN_STREAM = 1

# The last epoch's sigma is sigma0 + (sigma_end - sigma0), which rounds to
# 0 once sigma_end is below half an ulp of sigma0; a Gaussian kernel then
# divides 0 by 0. With sigma0 <= 1e6, whose ulp is 2**-33, and a Gaussian
# sigma_end >= 1e-6, it is at least 1e-6 - 1.2e-10.
SMALLEST_GAUSSIAN_SIGMA_END = 1e-6
LARGEST_SIGMA0 = 1_000_000


class Kernel(Enum):
    GAUSSIAN = "Gaussian"
    BUBBLE = "Bubble"


class InitMode(Enum):
    RANDOM_SMALL = "RandomSmall"
    SAMPLE_INIT = "SampleInit"


@dataclass(frozen=True)
class TrainSchedule:
    """Epoch-indexed learning-rate and neighborhood-radius schedules.

    alpha(t) = alpha0 * (1 - t/epochs) at 0-based epoch t, so the rate
    decays toward (not onto) zero; sigma interpolates linearly from sigma0
    (default: max(rows, cols)/2, resolved against the map) to sigma_end.
    """

    epochs: int = 200
    alpha0: float = 0.5
    sigma0: float | None = None
    sigma_end: float = 0.3
    kernel: Kernel = Kernel.GAUSSIAN
    rng_seed: int = 0
    init: InitMode = InitMode.SAMPLE_INIT

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.alpha0 <= 1.0:
            raise ValueError(f"alpha0 must be in [0, 1], got {self.alpha0}")
        if self.sigma_end < 0:
            raise ValueError("sigma_end must be >= 0")
        if self.sigma0 is not None and self.sigma0 < self.sigma_end:
            raise ValueError("sigma0 must be >= sigma_end (non-increasing sigma)")
        if self.sigma0 is not None and self.sigma0 > LARGEST_SIGMA0:
            raise ValueError(f"sigma0 must be <= {LARGEST_SIGMA0}, got {self.sigma0}")
        if self.kernel is Kernel.GAUSSIAN and self.sigma_end < SMALLEST_GAUSSIAN_SIGMA_END:
            raise ValueError(
                f"sigma_end must be >= {SMALLEST_GAUSSIAN_SIGMA_END} with the Gaussian kernel, "
                f"got {self.sigma_end}"
            )

    def resolve(self, rows: int, cols: int) -> "TrainSchedule":
        if rows < 1 or cols < 1 or rows * cols < 2:
            raise ValueError(f"the map needs at least 2 nodes, got {rows}x{cols}")
        if self.sigma0 is not None:
            return self
        return replace(self, sigma0=max(rows, cols) / 2.0)

    def alpha(self, t: int) -> float:
        return self.alpha0 * (1.0 - t / self.epochs)

    def sigma(self, t: int) -> float:
        if self.sigma0 is None:
            raise ValueError("sigma0 unresolved; call resolve(rows, cols) first")
        if self.epochs == 1:
            return self.sigma0
        frac = t / (self.epochs - 1)
        return self.sigma0 + (self.sigma_end - self.sigma0) * frac


@dataclass(frozen=True, eq=False)
class SomMap:
    """Rectangular map; node i sits at grid position (i // cols, i % cols)."""

    rows: int
    cols: int
    weights: np.ndarray  # (rows*cols, dim)
    schedule: TrainSchedule
    trained: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedule", self.schedule.resolve(self.rows, self.cols))
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != self.rows * self.cols:
            raise ValueError(
                f"weights shape {w.shape} does not match {self.rows}x{self.cols} nodes"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n_nodes(self) -> int:
        return self.rows * self.cols

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def grid_coords(self) -> np.ndarray:
        r, c = np.divmod(np.arange(self.n_nodes), self.cols)
        return np.column_stack([r, c]).astype(float)

    def grid_dist2(self) -> np.ndarray:
        g = self.grid_coords()
        diff = g[:, None, :] - g[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)


def _kernel_values(dist2: np.ndarray, sigma: float, kernel: Kernel) -> np.ndarray:
    if kernel is Kernel.GAUSSIAN:
        return np.exp(-dist2 / (2.0 * sigma * sigma))
    return (dist2 <= sigma * sigma).astype(float)


def init(rows: int, cols: int, schedule: TrainSchedule, samples: np.ndarray) -> SomMap:
    """Create an untrained map of the samples' dimension.

    RandomSmall draws weights i.i.d. uniform in [-eps_d, eps_d] per
    dimension d with eps_d = 0.01 * (data range of d). SampleInit draws
    rows*cols samples without replacement (with replacement only when
    there are fewer samples than nodes).
    """
    if np.ndim(samples) != 2 or len(samples) == 0:  # np.ndim(None) is 0
        raise ValueError("init needs a non-empty (n, dim) sample array")
    samples = np.asarray(samples, dtype=float)
    rng = np.random.default_rng([schedule.rng_seed, _INIT_STREAM])
    n_nodes = rows * cols
    if schedule.init is InitMode.SAMPLE_INIT:
        idx = rng.choice(len(samples), size=n_nodes, replace=len(samples) < n_nodes)
        weights = samples[idx].copy()
    else:
        eps = 0.01 * np.ptp(samples, axis=0)
        weights = rng.uniform(-1.0, 1.0, (n_nodes, samples.shape[1])) * eps
    return SomMap(rows=rows, cols=cols, weights=weights, schedule=schedule)


def best_match(som: SomMap, x: np.ndarray) -> int:
    """Index of the node nearest x (Euclidean); ties break to the lowest
    row-major index."""
    x = np.asarray(x, dtype=float)
    if x.shape != (som.dim,):
        raise ValueError(f"input dimension {x.shape} does not match map dim {som.dim}")
    diff = som.weights - x
    return int(np.argmin(np.einsum("nd,nd->n", diff, diff)))


def train(som: SomMap, data: np.ndarray) -> SomMap:
    """Train a copy of the map on the data; the input map is untouched.

    Presentation order is reshuffled every epoch from the schedule's seed;
    fixed (data, seed, schedule) reproduce the trained map bit-exactly.
    """
    X = np.asarray(data, dtype=float)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("training data must be a non-empty (n, dim) array")
    if X.shape[1] != som.dim:
        raise ValueError(f"data dimension {X.shape[1]} does not match map dim {som.dim}")
    schedule = som.schedule
    W = som.weights.copy()
    rng = np.random.default_rng([schedule.rng_seed, _TRAIN_STREAM])
    dist2 = som.grid_dist2()
    # Each presentation sets w <- fl(fl((1-c)*w) + p) with 0 <= c <= 1;
    # the reference takes p = fl(c*x) from a broadcast product. The rank-1
    # np.dot of the (nodes, 1) column c and the (1, dim) row x has one term
    # per element, alpha 1 and beta 0, so each element is c*x rounded once
    # and added (or fused) onto +0.0: it is p, or +0.0 where p is -0.0. The
    # sums then differ only where fl((1-c)*w) is -0.0 as well. By induction
    # that never happens when W0 holds no -0.0 and X no -0.0 and no
    # negative subnormal: p = -0.0 then needs a normal x < 0 with |c*x|
    # below 2**-1075, so c < 2**-53 and 1-c > 1/2, and fl((1-c)*w) is -0.0
    # only if w is; and no w is -0.0, as a sum is -0.0 only if both terms
    # are. The two paths then agree bit for bit; otherwise the broadcast
    # product is used.
    outer = not (
        np.any(np.signbit(W) & (W == 0))
        or np.any(np.signbit(X) & (np.abs(X) < np.finfo(float).tiny))
    )
    # The best match is the first argmin of d_i = fl(sum_k fl(w_ik - x_k)^2),
    # the einsum scan below. The fast path takes m, the first argmin of
    # s_i = fl(fl(N_i - G_i) - G_i) with N_i = ||w_i||^2 from vecdot and
    # G_i = w_i.x from one BLAS product, and keeps it only if no other node
    # has s_i <= fl(s_m + E), where E = 8(D+4) eps R, D is the dimension,
    # R = (B + ||x||)^2 is fixed per sample before the loop and lies in
    # (2**-500, max/4), and B is the largest row norm of W0 and X times
    # 1 + 4 T eps, for T = epochs * n presentations (any T below 10**14).
    # Then m is the strict minimum of d, so both paths pick the same node.
    # Proof, with u = eps/2, g_n = nu/(1-nu) (Higham 2002, 3.1), D u <= 0.01
    # (any D below 10**13), e_i = ||w_i - x||^2 and r_i = (||w_i|| +
    # ||x||)^2 exact, so e_i <= r_i:
    # - B bounds every node norm for the whole training. An update rounds
    #   1-c, (1-c)*w, c*x and the sum, so |w'_k| <= (1+u)^3 ((1-c)|w_k| +
    #   c|x_k|) and ||w'|| <= (1+u)^3 max(||w||, ||x||); after T updates
    #   (1+u)^(3T) <= 1 + 4 T eps. Underflow adds at most 2**-1074 per
    #   element per update, far below 4 T eps B once R > 2**-500.
    # - A dot product of length D, in any summation order and with or
    #   without FMA, errs by at most g_D sum_k |a_k b_k|, so N_i errs by
    #   <= g_D r_i and G_i by <= g_D r_i/4, as ||w_i|| ||x|| <= r_i/4. With
    #   the roundings of the norms, the roots, B, the sum and the square,
    #   the computed R is at least 0.989 times (B + ||x||)^2 with B and
    #   ||x|| exact, which bounds every r_i.
    # - The two subtractions see operands below 1.6 r_i and add at most
    #   3u r_i, so s_i is within a = (1.52 D + 3)u R of e_i - ||x||^2.
    # - The reference rounds w - x, squares it and sums: d_i = e_i (1 + t_i)
    #   with |t_i| <= g_(D+3), so d_i - d_m >= e_i - e_m - 2 g_(D+3) R.
    # s_i > fl(s_m + E) >= s_m + E - 1.7u R gives e_i - e_m > E - 1.7u R - 2a
    # and d_i - d_m > E - (5.07 D + 13.8)u R >= (15.8 - 5.1)(D+4)u R > 0.
    # Above R = 2**-500, underflow (at most 2**-1075 per product, Higham
    # 2.1) moves each term by far less than u R; below max/4 no s_i and no
    # s_m + E overflows. A NaN or infinite R fails the range test; B is an
    # np.max, so a NaN anywhere in W0 or X makes every R NaN. There, and
    # when several nodes are within E, the reference scan runs.
    eps = np.finfo(float).eps
    margin = 8.0 * (X.shape[1] + 4) * eps
    r_range = (2.0**-500, np.finfo(float).max / 4)
    buf = np.empty_like(W)  # W - x, then the update c*x
    d = np.empty(len(W))
    nrm = np.empty(len(W))
    g = np.empty(len(W))
    near = np.empty(len(W), dtype=bool)
    xs = list(X)  # 1-D rows, for w.x and the scan
    x_rows = list(X[:, None, :])  # (1, dim) rows, for the rank-1 update
    with np.errstate(over="ignore", invalid="ignore"):  # huge data takes the scan
        x_norms = np.sqrt(np.vecdot(X, X))
        bound = np.max(np.sqrt(np.vecdot(W, W)), initial=np.max(x_norms))
        bound *= 1.0 + 4.0 * schedule.epochs * len(X) * eps
        radii = ((bound + x_norms) ** 2).tolist()
        for t in range(schedule.epochs):
            coef_rows = schedule.alpha(t) * _kernel_values(
                dist2, schedule.sigma(t), schedule.kernel
            )
            keep3 = (1.0 - coef_rows)[:, :, None]
            coef3 = coef_rows[:, :, None]
            for idx in rng.permutation(len(X)).tolist():
                x = xs[idx]
                np.vecdot(W, W, out=nrm)
                np.dot(W, x, out=g)
                np.subtract(nrm, g, out=d)
                np.subtract(d, g, out=d)
                bmu = d.argmin()
                r = radii[idx]
                if not (
                    r_range[0] < r < r_range[1]
                    and np.count_nonzero(np.less_equal(d, d[bmu] + margin * r, out=near)) == 1
                ):
                    np.subtract(W, x, out=buf)
                    bmu = np.einsum("nd,nd->n", buf, buf, out=d).argmin()
                np.multiply(W, keep3[bmu], out=W)
                if outer:
                    np.dot(coef3[bmu], x_rows[idx], out=buf)
                else:
                    np.multiply(coef3[bmu], x, out=buf)
                np.add(W, buf, out=W)
    return SomMap(rows=som.rows, cols=som.cols, weights=W, schedule=schedule, trained=True)


@dataclass(frozen=True, eq=False)
class UMatrix:
    """Per-node mean distance to adjacent nodes, plus the threshold that
    `clusters` cuts them at (`umatrix` sets the 60th percentile)."""

    heights: np.ndarray
    threshold: float

    def __post_init__(self) -> None:
        threshold = float(self.threshold)
        if not np.isfinite(threshold):
            raise ValueError(f"threshold must be finite, got {threshold}")
        object.__setattr__(self, "threshold", threshold)
        h = np.array(self.heights, dtype=float)
        if h.ndim != 2:
            raise ValueError("heights must be 2-d")
        if not np.all(np.isfinite(h)) or np.any(h < 0):
            raise ValueError("heights must be finite and >= 0")
        h.setflags(write=False)
        object.__setattr__(self, "heights", h)


def umatrix(som: SomMap) -> UMatrix:
    W = som.weights.reshape(som.rows, som.cols, som.dim)
    sums = np.zeros((som.rows, som.cols))
    counts = np.zeros((som.rows, som.cols))
    dv = np.linalg.norm(W[1:, :, :] - W[:-1, :, :], axis=2)  # (rows-1, cols): empty on one row
    sums[1:, :] += dv
    sums[:-1, :] += dv
    counts[1:, :] += 1
    counts[:-1, :] += 1
    dh = np.linalg.norm(W[:, 1:, :] - W[:, :-1, :], axis=2)  # (rows, cols-1): empty on one column
    sums[:, 1:] += dh
    sums[:, :-1] += dh
    counts[:, 1:] += 1
    counts[:, :-1] += 1
    heights = sums / counts
    return UMatrix(heights=heights, threshold=float(np.quantile(heights, THRESHOLD_QUANTILE)))


@dataclass(frozen=True, eq=False)
class AttractionField:
    """Negative discrete gradient of the U-Matrix heights (central
    differences inside, one-sided at borders), pointing into valleys.
    d_row/d_col are the vector components along the grid axes."""

    d_row: np.ndarray
    d_col: np.ndarray


def attraction_field(um: UMatrix) -> AttractionField:
    if um.heights.shape[0] > 1:
        g_row = np.gradient(um.heights, axis=0)
    else:
        g_row = np.zeros_like(um.heights)
    if um.heights.shape[1] > 1:
        g_col = np.gradient(um.heights, axis=1)
    else:
        g_col = np.zeros_like(um.heights)
    return AttractionField(d_row=-g_row, d_col=-g_col)


def clusters(um: UMatrix) -> np.ndarray:
    """Connected components (4-connectivity) of nodes below um.threshold.

    Returns a (rows, cols) int array; ids count up from 0 in row-major
    discovery order, border nodes (height >= threshold) get BORDER. A
    threshold above every height yields one all-node cluster; below every
    height, all nodes are border.
    """
    inside = um.heights < um.threshold
    rows, cols = inside.shape
    ids = np.full((rows, cols), BORDER, dtype=int)
    next_id = 0
    for r in range(rows):
        for c in range(cols):
            if not inside[r, c] or ids[r, c] != BORDER:
                continue
            queue = [(r, c)]
            ids[r, c] = next_id
            while queue:
                qr, qc = queue.pop()
                for nr, nc in ((qr - 1, qc), (qr + 1, qc), (qr, qc - 1), (qr, qc + 1)):
                    if 0 <= nr < rows and 0 <= nc < cols and inside[nr, nc] and ids[nr, nc] == BORDER:
                        ids[nr, nc] = next_id
                        queue.append((nr, nc))
            next_id += 1
    return ids


# --- serialization ----------------------------------------------------------


def _schedule_to_dict(s: TrainSchedule) -> dict:
    return {
        "epochs": s.epochs,
        "alpha0": s.alpha0,
        "sigma0": s.sigma0,
        "sigma_end": s.sigma_end,
        "kernel": s.kernel.value,
        "rng_seed": s.rng_seed,
        "init": s.init.value,
    }


def _schedule_from_dict(d: dict) -> TrainSchedule:
    return TrainSchedule(
        epochs=int(d["epochs"]),
        alpha0=float(d["alpha0"]),
        sigma0=None if d["sigma0"] is None else float(d["sigma0"]),
        sigma_end=float(d["sigma_end"]),
        kernel=Kernel(d["kernel"]),
        rng_seed=int(d["rng_seed"]),
        init=InitMode(d["init"]),
    )


def save_map_json(som: SomMap, path) -> None:
    """Write the map as json.dump(doc, indent=2, sort_keys=True) does, with
    the flat weights streamed one node at a time (the weights are finite,
    so each is its float repr)."""
    doc = {
        "rows": som.rows,
        "cols": som.cols,
        "dim": som.dim,
        "trained": som.trained,
        "schedule": _schedule_to_dict(som.schedule),
        "weights": [],
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text[: -len("[]\n}")])  # "weights" sorts last: the text ends '[]\n}'
        opener = "[\n    "
        for node in som.weights:
            if node.size:
                fh.write(opener + ",\n    ".join(map(float.__repr__, node.tolist())))
                opener = ",\n    "
        fh.write("\n  ]\n}\n" if som.weights.size else "[]\n}\n")


def load_map_json(path) -> SomMap:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    weights = np.array(doc["weights"], dtype=float).reshape(
        doc["rows"] * doc["cols"], doc["dim"]
    )
    return SomMap(
        rows=int(doc["rows"]),
        cols=int(doc["cols"]),
        weights=weights,
        schedule=_schedule_from_dict(doc["schedule"]),
        trained=bool(doc["trained"]),
    )


def write_umatrix_csv(um: UMatrix, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        rows, cols = um.heights.shape
        fh.write(f"# umatrix rows={rows} cols={cols} threshold={um.threshold!r}\n")
        for row in um.heights.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def write_attraction_csv(field: AttractionField, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("row,col,dx,dy\n")
        # dx points along columns, dy along rows
        for r, (dxs, dys) in enumerate(zip(field.d_col.tolist(), field.d_row.tolist())):
            for c, (dx, dy) in enumerate(zip(dxs, dys)):
                fh.write(f"{r},{c},{dx!r},{dy!r}\n")


def write_clusters_csv(ids: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("row,col,cluster\n")
        rows, cols = ids.shape
        for r in range(rows):
            for c in range(cols):
                fh.write(f"{r},{c},{int(ids[r, c])}\n")
