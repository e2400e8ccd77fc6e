"""Show that no output check is vacuous.

    python3 bench/selftest.py

Runs one round of each workload (seed 1), requires every check to pass on its
artifacts, then for each check corrupts one artifact in a copy of the
tree and requires that check to fail. Exits 1 if any check passes a
corrupted tree or fails a clean one.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import run


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _edit_line(path: Path, index: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[index] = edit(lines[index])
    path.write_text("".join(lines), encoding="utf-8")


def _scale_field(line: str, field: int, factor: float) -> str:
    cells = line.rstrip("\n").split(",")
    cells[field] = repr(float(cells[field]) * factor)
    return ",".join(cells) + "\n"


def change_ingested_angle(lay):
    _edit_line(lay.dataset_copy, 1, lambda l: _scale_field(l, 5, 1.5))


def drop_one_dataset_row(lay):
    _edit_line(lay.dataset, 1, lambda l: "")


def change_sampled_scalogram_cell(lay):
    sid, joint, side = checks.quadrature_sample(lay)[0]
    # line 3 is the first data row (smallest scale), after three '#' lines
    _edit_line(checks.scalogram_path(lay, sid, joint, side), 3, lambda l: _scale_field(l, 50, 1.001))


def change_one_feature_value(lay):
    # line 2 is the first vector; field 4 + 37 is its 38th value
    _edit_line(lay.work / "features.csv", 2, lambda l: _scale_field(l, 4 + 37, 1.000001))


def nudge_one_weight(lay):
    _edit_json(lay.work / "som.json", lambda d: d["weights"].__setitem__(5, d["weights"][5] * 1.001))


def weight_above_data_max(lay):
    x = [r[4] for r in checks.read_features(lay.work / "features.csv")]
    top = max(float(v[0]) for v in x)
    _edit_json(lay.work / "som.json", lambda d: d["weights"].__setitem__(0, top * 1.01))


def flip_one_cluster_cell(lay):
    path = lay.work / "clusters.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    i = next(i for i, l in enumerate(lines[1:], 1) if l.rstrip().endswith(",-1"))
    lines[i] = lines[i].rstrip()[: -len("-1")] + "0\n"
    path.write_text("".join(lines), encoding="utf-8")


def _other(doc, label):
    return next(c for c in doc["classes"] if c != label)


def flip_one_prediction(lay):
    def edit(doc):
        f = doc["folds"][0]
        f["predicted"] = _other(doc, f["predicted"])
    _edit_json(lay.work / "eval.json", edit)


def hold_out_one_subject_twice(lay):
    _edit_json(lay.work / "eval.json", lambda d: d["folds"][1].__setitem__("held_out", d["folds"][0]["held_out"]))


def five_wrong_predictions_consistently(lay):
    """Rate 35/40 with confusion, rate and kappa made consistent, so only
    the discrimination threshold can catch it."""
    def edit(doc):
        for f in doc["folds"][:5]:
            f["predicted"] = _other(doc, f["true"])
        index = {c: i for i, c in enumerate(doc["classes"])}
        m = [[0] * len(index) for _ in index]
        for f in doc["folds"]:
            m[index[f["true"]]][index[f["predicted"]]] += 1
        doc["confusion"] = m
        doc["recognition_rate"] = sum(f["true"] == f["predicted"] for f in doc["folds"]) / len(doc["folds"])
        doc["kappa"] = checks.kappa(np.array(m))
    _edit_json(lay.work / "eval.json", edit)


CORRUPTIONS = {
    "stagewise_cli": [
        (checks.check_dataset, change_ingested_angle),
        (checks.check_scalograms, change_sampled_scalogram_cell),
        (checks.check_features, change_one_feature_value),
        (checks.check_umatrix, nudge_one_weight),
        (checks.check_clusters, flip_one_cluster_cell),
        (checks.check_weight_range, weight_above_data_max),
    ],
    "nvs_loocv": [
        (checks.check_dataset, drop_one_dataset_row),
        (checks.check_scalograms, change_sampled_scalogram_cell),
        (checks.check_features, change_one_feature_value),
        (checks.check_umatrix, nudge_one_weight),
        (checks.check_clusters, flip_one_cluster_cell),
        (checks.check_weight_range, weight_above_data_max),
        (checks.check_eval_arithmetic, flip_one_prediction),
        (checks.check_held_out_once, hold_out_one_subject_twice),
        (checks.check_discrimination, five_wrong_predictions_consistently),
    ],
}


def relocate(lay: checks.Layout, old: Path, new: Path) -> checks.Layout:
    move = lambda p: None if p is None else new / p.relative_to(old)
    return dataclasses.replace(lay, dataset=move(lay.dataset), dataset_copy=move(lay.dataset_copy), work=move(lay.work))


def selftest(name: str, seed: int, tmp: Path) -> list[str]:
    problems = []
    wl = run.Workload(name, seed, tmp / "config.json")
    out = tmp / "out"
    r = run.run_round(wl, out, traced=False)
    if r["failed"]:
        return [f"{name}: the workload failed"]
    lay = checks.Layout.from_dict(wl.layout(out, 0))
    problems += [f"{name}: clean tree: {msg}" for msg in checks.run_checks(lay)]
    covered = {check for check, _ in CORRUPTIONS[name]}
    problems += [f"{name}: {c.__name__} has no corruption" for c in checks.checks_for(lay) if c not in covered]
    for check, corrupt in CORRUPTIONS[name]:
        copy = tmp / "corrupt"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out, copy)
        bad = relocate(lay, out, copy)
        corrupt(bad)
        try:
            check(bad)
        except checks.CheckError as exc:
            print(f"{name}: {check.__name__} rejects {corrupt.__name__}: {exc}")
        else:
            problems.append(f"{name}: {check.__name__} accepted {corrupt.__name__}")
    return problems


def main() -> int:
    run.SCRATCH.mkdir(parents=True, exist_ok=True)
    problems = []
    for name in CORRUPTIONS:
        tmp = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=run.SCRATCH))
        try:
            problems += selftest(name, 1, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "every check rejects its corruption"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
