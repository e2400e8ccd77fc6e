"""Independent reference implementations used as test oracles.

Nothing here imports from the package's transform/clustering code paths:
the CWT oracle is a direct double-loop quadrature of the defining sum, the
spectral oracle is a plain FFT over one period, the component oracle is
union-find rather than the BFS used by the implementation, the training
oracle is a frozen copy of the plain broadcast SOM update loop, the
node-labelling oracle is a per-node loop over plain Python sums, the
artifact writers are frozen copies of the row-by-row csv.writer and
json.dump writers, taking plain text and arrays, the dataset error oracle
checks a dataset CSV one row at a time, the synthetic-subject oracle
builds each trajectory's cosines one joint at a time from the written
recipe, and the PGM reader matches the P5 header with a regular
expression.
"""

import csv
import json
import math
import re

import numpy as np


def reference_cwt(x, dt, scales, nu0=1.0, radius=5.0):
    """Rectangle-rule quadrature of the Morlet CWT magnitude, evaluated
    point by point with the wavelet truncated at |t - tau| > radius*s and
    the signal zero outside its grid."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    t = np.arange(n) * dt
    norm = 1.0 / np.sqrt(2.0 * np.pi)
    out = np.empty((len(scales), n))
    for si, s in enumerate(scales):
        for j in range(n):
            rel = t - t[j]
            mask = np.abs(rel) <= radius * s
            u = rel / s
            env = norm * np.exp(-0.5 * u * u)
            conj_psi = env * (np.cos(2.0 * np.pi * nu0 * u) - 1j * np.sin(2.0 * np.pi * nu0 * u))
            acc = np.sum(x[mask] * conj_psi[mask]) * dt / np.sqrt(s)
            out[si, j] = np.abs(acc)
    return out


def reference_train(weights, cols, data, epochs, alpha0, sigma0, sigma_end, kernel, seed):
    """Online SOM training as the plain broadcast loop: per epoch a fresh
    permutation from default_rng([seed, 1]), per presentation the BMU by
    squared distance (ties to the lowest index) and the convex update
    w <- (1-c)*w + c*x with c = alpha(t) * h(grid distance, sigma(t)).
    kernel is "Gaussian" or "Bubble"; sigma0 is already resolved."""
    W = np.array(weights, dtype=float)
    X = np.asarray(data, dtype=float)
    r, c = np.divmod(np.arange(len(W)), cols)
    dist2 = ((r[:, None] - r[None, :]) ** 2 + (c[:, None] - c[None, :]) ** 2).astype(float)
    rng = np.random.default_rng([seed, 1])
    for t in range(epochs):
        alpha = alpha0 * (1.0 - t / epochs)
        sigma = sigma0 if epochs == 1 else sigma0 + (sigma_end - sigma0) * (t / (epochs - 1))
        if kernel == "Gaussian":
            h = np.exp(-dist2 / (2.0 * sigma * sigma))
        else:
            h = (dist2 <= sigma * sigma).astype(float)
        coef_rows = alpha * h
        for idx in rng.permutation(len(X)):
            x = X[idx]
            diff = W - x
            coef = coef_rows[int(np.argmin(np.einsum("nd,nd->n", diff, diff)))]
            W *= (1.0 - coef)[:, None]
            W += coef[:, None] * x
    return W


def band_energy_above(samples, harmonic):
    """Spectral energy strictly above the given harmonic, from an FFT of
    one period (the grid's duplicate 100% endpoint dropped)."""
    period = np.asarray(samples, dtype=float)[:-1]
    power = np.abs(np.fft.rfft(period)) ** 2
    return float(np.sum(power[harmonic + 1 :]))


def union_find_components(mask):
    """4-connectivity components of True cells via union-find; returns a
    label array (-1 outside the mask, arbitrary ids inside)."""
    mask = np.asarray(mask, dtype=bool)
    rows, cols = mask.shape
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for r in range(rows):
        for c in range(cols):
            if mask[r, c]:
                parent[(r, c)] = (r, c)
    for r in range(rows):
        for c in range(cols):
            if not mask[r, c]:
                continue
            if r + 1 < rows and mask[r + 1, c]:
                union((r, c), (r + 1, c))
            if c + 1 < cols and mask[r, c + 1]:
                union((r, c), (r, c + 1))

    labels = np.full((rows, cols), -1, dtype=int)
    roots = {}
    for r in range(rows):
        for c in range(cols):
            if mask[r, c]:
                root = find((r, c))
                labels[r, c] = roots.setdefault(root, len(roots))
    return labels


def same_partition(a, b):
    """True when two label arrays induce the same partition (ids may
    differ; -1 cells must coincide)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or not np.array_equal(a < 0, b < 0):
        return False
    fwd, bwd = {}, {}
    for x, y in zip(a.reshape(-1), b.reshape(-1)):
        if x < 0:
            continue
        if fwd.setdefault(int(x), int(y)) != y or bwd.setdefault(int(y), int(x)) != x:
            return False
    return True


def reference_best_match(weights, x):
    """Index of the row of weights nearest x; the first one on ties."""
    dists = [
        sum((float(w) - float(v)) * (float(w) - float(v)) for w, v in zip(row, x))
        for row in weights
    ]
    return dists.index(min(dists))


def reference_label_nodes(weights, cols, data, labels):
    """Node labels of a map with these (row-major) node weights: each node
    the most frequent label among the vectors it best matches (the lowest
    label on ties); a node none matches takes the label of the matched node
    nearest on the grid (the lowest index on ties)."""
    hits = {}
    for x, label in zip(data, labels):
        hits.setdefault(reference_best_match(weights, x), []).append(label)

    def majority(labs):
        return min(labs, key=lambda lab: (-labs.count(lab), lab))

    def grid_dist2(a, b):
        (ra, ca), (rb, cb) = divmod(a, cols), divmod(b, cols)
        return (ra - rb) ** 2 + (ca - cb) ** 2

    return [
        majority(hits[node]) if node in hits
        else majority(hits[min(sorted(hits), key=lambda k: grid_dist2(k, node))])
        for node in range(len(weights))
    ]


JOINT_ORDER = ("Hip", "Knee", "Ankle")
SIDE_ORDER = ("Right", "Left")


def reference_write_csv(subjects, path):
    """The dataset CSV, one csv.writer row per sample. subjects: (id,
    label, {(joint, side): samples}) with the part names as text; parts
    go Hip < Knee < Ankle, Right < Left, on the pct grid linspace(0, 100)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        plain = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        plain.writerow(("subject_id", "label", "joint", "side", "pct", "angle_deg"))
        for sid, label, parts in subjects:
            writer = quoted if "\r" in sid or "\r" in label else plain
            for joint, side in sorted(parts, key=lambda p: (JOINT_ORDER.index(p[0]), SIDE_ORDER.index(p[1]))):
                samples = np.asarray(parts[(joint, side)], dtype=float)
                pct = np.linspace(0.0, 100.0, len(samples))
                for p, a in zip(pct.tolist(), samples.tolist()):
                    writer.writerow([sid, label, joint, side, repr(p), repr(a)])


def reference_write_features_csv(vectors, path):
    """features.csv, one csv.writer row per vector. vectors: (subject_id,
    label text or "", level text, [(joint, side), ...], values)."""
    width = len(vectors[0][4])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# layout: n_time=20 n_scale=8 per part, time-major, "
                 "parts concatenated in canonical order\n")
        plain = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        plain.writerow(["subject_id", "label", "level", "parts"] + [f"f{i:03d}" for i in range(width)])
        for sid, label, level, parts, values in vectors:
            writer = quoted if "\r" in sid or "\r" in label else plain
            token = "|".join(f"{j}:{s}" for j, s in parts)
            writer.writerow([sid, label, level, token] + [repr(float(v)) for v in values])


def reference_save_map_json(rows, cols, weights, trained, schedule, path):
    """som.json as one json.dump of the whole document; schedule is the
    dict of the map's training schedule."""
    weights = np.asarray(weights, dtype=float)
    doc = {
        "rows": rows,
        "cols": cols,
        "dim": weights.shape[1],
        "trained": trained,
        "schedule": schedule,
        "weights": [float(v) for v in weights.reshape(-1)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def reference_ingest_error(path):
    """The first error of a dataset CSV checked one row at a time, as
    (error class name, physical line, message), or None when every row
    passes. A row's checks, in order: field count, subject_id, label,
    joint, side, pct number, pct range, angle number, finite, magnitude,
    and a label that differs from the subject's first. Blank rows are
    skipped; the grid checks of whole trajectories are not made."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        first_label = {}
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(header):
                return "ParseError", line, f"expected {len(header)} fields"
            field = dict(zip(header, row))
            sid, label, pct, angle = field["subject_id"], field["label"], field["pct"], field["angle_deg"]
            if not sid:
                return "ParseError", line, "empty subject_id"
            if not label:
                return "SchemaError", line, "missing label"
            if field["joint"] not in JOINT_ORDER:
                return "ParseError", line, f"unknown joint {field['joint']!r}"
            if field["side"] not in SIDE_ORDER:
                return "ParseError", line, f"unknown side {field['side']!r}"
            try:
                p = float(pct)
            except ValueError:
                return "ParseError", line, f"pct {pct!r} is not a number"
            if not 0.0 <= p <= 100.0:
                return "ParseError", line, f"pct {p} outside [0, 100]"
            try:
                a = float(angle)
            except ValueError:
                return "ParseError", line, f"angle_deg {angle!r} is not a number"
            if not math.isfinite(a):
                return "ParseError", line, f"angle_deg {angle!r} is not finite"
            if abs(a) > 180.0:
                return "ParseError", line, "|angle_deg| exceeds 180.0"
            known = first_label.setdefault(sid, label)
            if known != label:
                return "SchemaError", line, f"subject {sid!r} has conflicting labels {known} and {label}"
    return None


def reference_read_pgm(path):
    """The pixels of a binary (P5) 8-bit PGM file: the magic number, the
    width, the height and the maximum value 255, separated by whitespace,
    then one whitespace byte and rows * cols bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", data)
    assert header is not None, data[:20]
    cols, rows = int(header[1]), int(header[2])
    pixels = data[header.end() :]
    assert len(pixels) == rows * cols, (len(pixels), rows, cols)
    return np.frombuffer(pixels, dtype=np.uint8).reshape(rows, cols)


def reference_synth_trajectory(template, seed, label, index, hf_amplitude=0.0, region="Stance",
                               timing_shift=0.0, asymmetry_gain=1.0, jitter_sd=0.0):
    """The angles of synthetic subject `index` of class `label`, as
    {(joint, side): 101 samples} with the part names as text. template maps
    joint names to (harmonic, amplitude, phase) triples.

    The subject's stream is default_rng([seed, the label's UTF-8 bytes as
    a big-endian integer, index]). Joint by joint in Hip, Knee, Ankle
    order, it draws one standard normal per template amplitude and then,
    with hf_amplitude > 0, one per HF amplitude; each draw times jitter_sd
    is added to its amplitude. The HF components are harmonics 10..20 of
    amplitude hf_amplitude/sqrt(11) and phase 0.7*h. Both sides sum
    amp*cos(2*pi*h*phase/100 + ph) over the cycle phase (pct - timing_shift)
    mod 100; the HF sum is added only where the region's window is 1 (Stance:
    phase < 60, Swing: phase >= 60). Left is scaled by sqrt(asymmetry_gain),
    right by its inverse."""
    rng = np.random.default_rng([seed, int.from_bytes(label.encode("utf-8"), "big"), index])
    phase = np.mod(np.linspace(0.0, 100.0, 101) - timing_shift, 100.0)
    hf = []
    if hf_amplitude > 0:
        hf = [(h, hf_amplitude / math.sqrt(11), 0.7 * h) for h in range(10, 21)]
    window = {"Stance": phase < 60.0, "Swing": phase >= 60.0}[region]

    def cosines(components):
        amps = [amp for _, amp, _ in components] + rng.normal(0.0, 1.0, len(components)) * jitter_sd
        total = np.zeros(101)
        for (h, _, ph), amp in zip(components, amps):
            total += amp * np.cos(2.0 * np.pi * h * phase / 100.0 + ph)
        return total

    out = {}
    for joint in JOINT_ORDER:
        if joint not in template:
            continue
        y = cosines(template[joint])
        if hf:
            y += np.where(window, 1.0, 0.0) * cosines(hf)
        root = math.sqrt(asymmetry_gain)
        out[(joint, "Right")] = (1.0 / root) * y
        out[(joint, "Left")] = root * y
    return out
