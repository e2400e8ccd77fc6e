"""gaitsig benchmark: run one workload, check its outputs, print metrics.

    python3 bench/run.py --workload nvs_loocv --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src. A run repeats whole rounds of the workload until the program has run
for --seconds (at least one round) and checks every round's artifacts. With
--trace 0 it reports the end-to-end metrics, each the median over rounds;
with --trace 1 every round runs traced and it reports the per-layer
metrics. The last line of standard output is one JSON object: correct,
attempted, failed, metrics. The run stops after the round in which an
operation (a program process or a setup probe) fails; it then prints that
object with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / "runs" / "bench"

# Fresh-interpreter probe for setup_s: what `gaitsig <first stage>` does
# before its first stage (imports, argument parsing, config load and
# validation). It prints the monotonic clock, which all processes share.
SETUP_PROBE = (
    "import sys, time\n"
    "from gaitsig import cli\n"
    "from gaitsig.config import load_config\n"
    "args = cli.build_parser().parse_args(sys.argv[1:])\n"
    "load_config(args.config, seed_override=args.seed)\n"
    "print(repr(time.perf_counter()))\n"
)
SETUP_WARMUP = 3      # untimed probes: page cache and lazy OS state
SETUP_PER_ROUND = 10  # timed probes spread over each round's steps
SETUP_FINAL = 10      # timed probes after the last round

# The normal-vs-spastic experiment, as scripts/run_normal_vs_spastic.py
# builds it: 20 + 20 subjects, right hip, HighScale, 10x10 map, 200
# epochs, SampleInit, LOOCV.
def nvs_config(seed: int) -> dict:
    return {
        "seed": seed,
        "synth": {
            "n_subjects": 20,
            "pathology": {"hf_amplitude": 5.0, "hf_phase_region": "Stance", "jitter_sd": 0.5},
            "pathology_label": "CP-dp",
        },
        "joints": ["Hip"],
        "sides": ["Right"],
        "features": {"level": "HighScale"},
        "som": {"rows": 10, "cols": 10, "epochs": 200, "init": "SampleInit"},
        "write_pgm": True,
        "loocv": True,
    }


# A 300-subject cohort: Normal plus four pathology groups of 60, every
# joint and side (960-value vectors), trained for a short schedule.
COHORT_PER_CLASS = 60
COHORT_EPOCHS = 10
COHORT_GROUPS = {
    "CP-dp": {"hf_amplitude": 5.0, "hf_phase_region": "Stance", "jitter_sd": 0.5},
    "CP-lh": {"hf_amplitude": 4.0, "hf_phase_region": "Stance", "asymmetry_gain": 1.6, "jitter_sd": 0.3},
    "CP-rh": {"hf_amplitude": 4.0, "hf_phase_region": "Stance", "asymmetry_gain": 0.625, "jitter_sd": 0.3},
    "Polio": {"hf_amplitude": 3.0, "hf_phase_region": "Swing", "timing_shift": 4.0, "jitter_sd": 0.5},
}


def cohort_config(seed: int) -> dict:
    return {"seed": seed, "synth": {"n_subjects": COHORT_PER_CLASS, "groups": COHORT_GROUPS}}


ALL_PARTS = [[j, s] for j in ("Hip", "Knee", "Ankle") for s in ("Right", "Left")]


class Workload:
    """Command lines of one round and the layout of its artifacts."""

    def __init__(self, name: str, seed: int, cfg_path: Path):
        self.name, self.seed, self.cfg = name, seed, str(cfg_path)
        if name == "nvs_loocv":
            cfg_path.write_text(json.dumps(nvs_config(seed)), encoding="utf-8")
            self.first_stage = ["run", "--config", self.cfg, "--out", "unused"]
        else:
            cfg_path.write_text(json.dumps(cohort_config(seed)), encoding="utf-8")
            self.first_stage = ["synth", "--config", self.cfg, "--out", "unused"]

    def steps(self, out: Path) -> list[tuple[str, list[str]]]:
        if self.name == "nvs_loocv":
            return [("run", ["run", "--config", self.cfg, "--out", str(out / "run")])]
        work = out / "work"
        return [
            ("synth", ["synth", "--config", self.cfg, "--out", str(out / "synth")]),
            ("ingest", ["ingest", "--input", str(out / "synth" / "dataset.csv"), "--out", str(out / "data")]),
            ("cwt", ["cwt", "--input", str(out / "data" / "dataset.csv"), "--out", str(work)]),
            ("features", ["features", "--scalograms", str(work / "scalograms"), "--out", str(work)]),
            ("train", ["train", "--features", str(work / "features.csv"), "--out", str(work),
                       "--epochs", str(COHORT_EPOCHS), "--seed", str(self.seed)]),
        ]

    def layout(self, out: Path, round_no: int) -> dict:
        """Where a round left its artifacts, in the form checks.Layout reads."""
        sample_seed = self.seed * 1000 + round_no
        if self.name == "nvs_loocv":
            run = str(out / "run")
            return {
                "dataset": run + "/dataset.csv", "dataset_copy": None, "work": run, "n_subjects": 40,
                "parts": [["Hip", "Right"]], "has_eval": True, "quadrature_samples": 40,
                "sample_seed": sample_seed,
            }
        return {
            "dataset": str(out / "synth" / "dataset.csv"), "dataset_copy": str(out / "data" / "dataset.csv"),
            "work": str(out / "work"), "n_subjects": COHORT_PER_CLASS * (1 + len(COHORT_GROUPS)),
            "parts": ALL_PARTS, "has_eval": False, "quadrature_samples": 24, "sample_seed": sample_seed,
        }


def check_round(layout: dict) -> list[str]:
    """Run bench/checks.py on a round's artifacts; its failure lines."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "checks.py"), json.dumps(layout)],
        capture_output=True, text=True, cwd=ROOT,
    )
    failures = proc.stdout.splitlines()
    if proc.returncode != 0 and not failures:  # the checks themselves crashed
        failures = [f"checks.py exited with {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    return failures


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], log: Path) -> dict:
    """Run one program process; wall time, CPU (user+sys, with waited-for
    children) and peak RSS come from wait4. The peak RSS a child reports
    is at least this process's RSS when it spawned the child, which is
    why this process imports no numpy and runs the checks elsewhere."""
    t0 = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=program_env(), cwd=ROOT)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"ok": proc.returncode == 0, "wall": wall, "cpu": ru.ru_utime + ru.ru_stime, "rss_kb": ru.ru_maxrss}


def setup_sample(wl: Workload) -> float | None:
    """Seconds until a fresh interpreter is ready; None if it failed."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE, *wl.first_stage],
        stdout=subprocess.PIPE, env=program_env(), cwd=ROOT,
    )
    try:
        out = proc.communicate()[0]
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        sys.stderr.write(f"{wl.name}: setup probe exited with {proc.returncode}\n")
        return None
    return float(out.decode().split()[-1]) - t0


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_round(wl: Workload, out: Path, traced: bool, between=lambda: None) -> dict:
    """One round into a fresh directory; `between` runs (untimed) before
    each step. A step that fails ends the round; it and the steps after
    it count as failed."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    # the last round's files reach the disk now, not during this round
    os.sync()
    steps = wl.steps(out)
    procs, traces = [], []
    for name, args in steps:
        between()
        if traced:
            trace_path = out / f"trace_{name}.json"
            argv = [sys.executable, str(BENCH / "trace_main.py"), str(trace_path), *args]
        else:
            argv = [sys.executable, "-m", "gaitsig", *args]
        proc = spawn(argv, out / f"log_{name}.txt")
        procs.append(proc)
        if not proc["ok"]:
            sys.stderr.write(f"{wl.name}: step {name} failed:\n{(out / f'log_{name}.txt').read_text()}\n")
            break
        if traced:
            traces.append(json.loads(trace_path.read_text()))
    failed = len(steps) - sum(p["ok"] for p in procs)
    artifacts = sum(tree_bytes(out / d) for d in ("run", "synth", "data", "work") if (out / d).exists())
    return {
        "attempted": len(steps),
        "failed": failed,
        "run_s": sum(p["wall"] for p in procs),
        "cpu_s": sum(p["cpu"] for p in procs),
        "peak_rss_mb": max(p["rss_kb"] for p in procs) * 1024 / 1e6,
        "out_mb": artifacts / 1e6,
        "traces": traces,
    }


def per_layer(traces: list, run_s: float) -> dict:
    """Per-layer metrics of one traced round (totals over its processes)."""
    sec, calls, cnt = {}, {}, {}
    for t in traces:
        for k, v in t["seconds"].items():
            sec[k] = sec.get(k, 0.0) + v
        for k, v in t["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in t["counters"].items():
            cnt[k] = cnt.get(k, 0) + v
    s = lambda k: sec.get(k, 0.0)
    c = lambda k: calls.get(k, 0)
    presentations = cnt.get("som.presentations", 0)
    rows = cnt.get("data.ingest_rows", 0)
    return {
        "som.train_calls": (c("som.train"), "count"),
        "som.train_s": (s("som.train"), "s"),
        "som.presentations": (presentations, "count"),
        "som.presentation_us": (s("som.train") / presentations * 1e6 if presentations else 0.0, "us"),
        "som.update_gflop": (3 * cnt.get("som.node_dim_presentations", 0) / 1e9, "GFLOP"),
        "som.umatrix_s": (s("som.umatrix"), "s"),
        "som.clusters_s": (s("som.clusters"), "s"),
        "som.save_json_s": (s("som.save_map_json"), "s"),
        "evaluate.loocv_s": (s("evaluate.loocv"), "s"),
        "evaluate.folds": (cnt.get("evaluate.folds", 0), "count"),
        "evaluate.label_map_s": (s("evaluate.label_map"), "s"),
        "evaluate.unread_umatrix_calls": (cnt.get("evaluate.unread_umatrix_calls", 0), "count"),
        "wavelet.cwt_calls": (c("wavelet.cwt"), "count"),
        "wavelet.cwt_us": (s("wavelet.cwt") / c("wavelet.cwt") * 1e6 if c("wavelet.cwt") else 0.0, "us"),
        "data.ingest_csv_s": (s("data.ingest_csv"), "s"),
        "data.ingest_rows_per_s": (rows / s("data.ingest_csv") if rows else 0.0, "1/s"),
        "data.write_csv_s": (s("data.write_csv"), "s"),
        "wavelet.write_csv_s": (s("wavelet.write_scalogram_csv"), "s"),
        "wavelet.read_csv_s": (s("wavelet.read_scalogram_csv"), "s"),
        "features.write_csv_s": (s("features.write_features_csv"), "s"),
        "features.read_csv_s": (s("features.read_features_csv"), "s"),
        "features.extract_s": (s("features.extract_features"), "s"),
        "pgm.write_s": (s("pgm.write_pgm"), "s"),
        "synth.generate_s": (s("synth.generate_groups"), "s"),
        "cli.run_s": (s("cli.cmd_run"), "s"),
        "cli.synth_s": (s("cli.cmd_synth"), "s"),
        "cli.ingest_s": (s("cli.cmd_ingest"), "s"),
        "cli.cwt_s": (s("cli.cmd_cwt"), "s"),
        "cli.features_s": (s("cli.cmd_features"), "s"),
        "cli.train_s": (s("cli.cmd_train"), "s"),
        "untraced_s": (run_s - sum(t["covered_s"] + t["calibration_s"] for t in traces), "s"),
        "trace.overhead_s": (sum(t["overhead_s"] for t in traces), "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["nvs_loocv", "stagewise_cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its program process and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "gaitsig" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'gaitsig'}", file=sys.stderr)
        return 2
    # Bytecode for the program is written before anything is timed, so no
    # timed process compiles it, whatever PYTHONDONTWRITEBYTECODE says and
    # whether or not this checkout has been run before.
    if not compileall.compile_dir(str(SRC / "gaitsig"), quiet=1):
        print("bench: program source does not compile", file=sys.stderr)
        return 2

    SCRATCH.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, tmp: Path) -> int:
    wl = Workload(args.workload, args.seed, tmp / "config.json")
    out = tmp / "out"
    setup, rounds, failures = [], [], []
    attempted = failed = 0

    def probe(n: int) -> list[float]:
        """n setup probes, each one attempted operation."""
        nonlocal attempted, failed
        samples = [setup_sample(wl) for _ in range(n)]
        attempted += n
        failed += samples.count(None)
        return [t for t in samples if t is not None]

    between = lambda: None
    if not args.trace:
        probe(SETUP_WARMUP)
        # Probes spread over the whole run, between the program's steps:
        # the host's speed drifts over seconds, so probes in one place
        # measure one moment of it.
        per_step = math.ceil(SETUP_PER_ROUND / len(wl.steps(out)))
        between = lambda: setup.extend(probe(per_step))
    program_s = 0.0  # the run's length is counted in program time
    while not failed and (not rounds or program_s < args.seconds):
        r = run_round(wl, out, bool(args.trace), between)
        program_s += r["run_s"]
        attempted += r["attempted"]
        failed += r["failed"]
        if r["failed"] == 0:
            failures += check_round(wl.layout(out, len(rounds)))
            rounds.append(r)
    if not args.trace and not failed:
        setup += probe(SETUP_FINAL)

    for msg in failures:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    metrics = {}
    med = lambda key: statistics.median(r[key] for r in rounds)
    if failed:
        print("bench: an operation of the workload failed", file=sys.stderr)
    elif args.trace:
        layers = [per_layer(r["traces"], r["run_s"]) for r in rounds]
        metrics = {
            name: {"value": statistics.median(l[name][0] for l in layers), "unit": unit}
            for name, (_, unit) in layers[0].items()
        }
    else:
        metrics = {
            "run_s": {"value": med("run_s"), "unit": "s"},
            "cpu_s": {"value": med("cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
            "out_mb": {"value": med("out_mb"), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
