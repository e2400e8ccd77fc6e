"""Run one gaitsig command with a timer around every public function of
the traced modules, then write the totals as JSON.

    python3 bench/trace_main.py TRACE.json <gaitsig arguments ...>

A module imports some functions of another by name (evaluate imports
train, init, umatrix and clusters from som), so each wrapper replaces the
function under every name that refers to it in any gaitsig module. The
exit code is the command's.

After the command it times a wrapped no-op against a bare one and writes
that per-call cost times the number of wrapped calls as the tracing
overhead of the process.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("synth", "data", "wavelet", "pgm", "features", "som", "evaluate", "cli")
CLUSTER_FIELDS = {"cluster_ids", "cluster_labels"}
CALIBRATION_CALLS = 10_000  # per timing loop; a loop takes about 10 ms


class _ReadRecorder:
    """Forwards attribute reads to a target and remembers their names."""

    def __init__(self, target):
        self._target = target
        self._names = set()

    def __getattr__(self, name):
        self._names.add(name)
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.stack: list[str] = []
        self.covered_s = 0.0        # time inside outermost wrapped calls
        self._umatrix_builds = 0    # U-Matrix builds in the open label_map
        self._labeled = {}          # id(LabeledMap) -> (map, builds)

    def wrap(self, name, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            self.stack.append(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                self.seconds[name] += dt
                self.calls[name] += 1
                if not self.stack:
                    self.covered_s += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # per-function hooks, run outside the timed call

    def _after_som_train(self, args, kwargs, result):
        som, data = args[:2] if len(args) >= 2 else (args[0], kwargs["data"])
        presentations = som.schedule.epochs * len(data)
        self.counters["som.presentations"] += presentations
        self.counters["som.node_dim_presentations"] += som.n_nodes * som.dim * presentations

    def _after_som_umatrix(self, args, kwargs, result):
        if "evaluate.label_map" in self.stack:
            self._umatrix_builds += 1

    def _after_evaluate_label_map(self, args, kwargs, result):
        self._labeled[id(result)] = (result, self._umatrix_builds)
        self._umatrix_builds = 0

    def _before_evaluate_classify(self, args):
        return (_ReadRecorder(args[0]), *args[1:])

    def _after_evaluate_classify(self, args, kwargs, result):
        recorder = args[0]
        _, builds = self._labeled.pop(id(recorder._target), (None, 0))
        if not CLUSTER_FIELDS & recorder._names:
            self.counters["evaluate.unread_umatrix_calls"] += builds

    def _after_evaluate_loocv(self, args, kwargs, result):
        self.counters["evaluate.folds"] += len(result.folds)

    def _after_data_ingest_csv(self, args, kwargs, result):
        self.counters["data.ingest_rows"] += sum(
            t.grid_size for s in result for t in s.trajectories.values()
        )

    def install(self):
        import gaitsig.cli  # noqa: F401  (imports every traced module)

        modules = {n: m for n, m in sys.modules.items() if n == "gaitsig" or n.startswith("gaitsig.")}
        wrappers = {}
        for short in TRACED_MODULES:
            mod = modules["gaitsig." + short]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])

    def to_dict(self) -> dict:
        t0 = time.perf_counter()
        per_call = wrapper_cost()
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "covered_s": self.covered_s,
            "overhead_s": per_call * sum(self.calls.values()),
            "calibration_s": time.perf_counter() - t0,
        }


def wrapper_cost() -> float:
    """Seconds a wrapper adds to one call: the fastest of three loops of
    a wrapped no-op minus the fastest of three loops of the bare no-op.
    The per-function hooks are not included; they run on a few hundred
    calls per process at most."""
    def noop():
        return None

    def loop(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            fn()
        return time.perf_counter() - t0

    wrapped = Tracer().wrap("noop", noop)
    bare = min(loop(noop) for _ in range(3))
    return max(0.0, min(loop(wrapped) for _ in range(3)) - bare) / CALIBRATION_CALLS


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import gaitsig.cli

    try:
        return gaitsig.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dict(), fh)


if __name__ == "__main__":
    sys.exit(main())
