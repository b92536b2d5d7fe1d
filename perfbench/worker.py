"""One program process of the benchmark: set-up probe or workload.

Started by ``perfbench/run.py`` with ``src`` on ``PYTHONPATH`` and no
``REPRO_*`` variable in its environment, so the program runs at its
defaults.  Protocol on standard output:

* ``ready`` once ``repro`` is imported and every native kernel is
  loaded — the parent timestamps that line to measure set-up;
* one JSON object as the last line, for every mode but ``setup``.

Modes::

    worker.py setup                       # import + kernel load only
    worker.py compile                     # timed cold kernel build
    worker.py figures  --seed N [--trace]
    worker.py pipeline --seed N --seconds S [--trace]
    worker.py batch    --trace 0|1        # serve's batch oracle; the
                                          # sessions arrive as JSON on stdin
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402  (the benchmark's own tracer)

#: The pipeline workload: one ``mcf`` trace at five times the figures
#: volume, through every stage once.
PIPELINE_WORKLOAD = "mcf"
PIPELINE_ACCESSES = 100_000
PIPELINE_INTERVALS = 16


def load_program() -> dict:
    """Import the program and load every native kernel; report which."""
    import repro.harness.cli  # noqa: F401
    from repro.core import _mea_native
    from repro.sim import _ckernel

    return {
        "replay": _ckernel.load() is not None,
        "filter": _ckernel.load_filter() is not None,
        "multi": _ckernel.load_multi() is not None,
        "mea": _mea_native.load() is not None,
    }


def program_fingerprint(kernels: dict) -> dict:
    import numpy

    from repro.config import knob_report

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels_loaded": kernels,
        "knobs": {name: [value, source]
                  for name, _env, value, source, _help in knob_report()},
    }


def _emit(stream, obj) -> None:
    stream.write(json.dumps(obj, sort_keys=True) + "\n")
    stream.flush()


# ---------------------------------------------------------------------------
# figures: ``repro-hma run all`` at its defaults
# ---------------------------------------------------------------------------

def paper_log_err(results) -> "tuple[float, int]":
    """Mean |ln(reproduced / paper)| over comparable summary targets.

    A target is comparable when the summary holds the key with a
    nonzero value of the same sign as the paper's.
    """
    errs = []
    for result in results:
        for key, target in result.paper.items():
            value = result.summary.get(key)
            if value is None or target is None:
                continue
            value, target = float(value), float(target)
            if value != 0 and target != 0 and (value > 0) == (target > 0):
                errs.append(abs(math.log(value / target)))
    return (sum(errs) / len(errs) if errs else float("nan")), len(errs)


def figure_sha(result) -> str:
    """Digest of one figure at full precision.

    ``run all`` prints summaries to three significant digits, so the
    stdout digest alone would pass a change below that precision.
    """
    data = (result.figure, result.description, result.headers,
            result.rows, result.summary, result.paper)
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]


def run_figures(seed: int) -> dict:
    from repro.harness import cli
    from repro.harness.experiments import EXPERIMENTS, FigureResult

    results = []
    original_print = FigureResult.print

    def capture(self):
        results.append(self)
        original_print(self)

    FigureResult.print = capture
    sink = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            status = cli.main(["run", "all", "--seed", str(seed)])
        if status:
            error = f"run all exited with {status}"
    except Exception as exc:  # reported as failed figures, not a crash
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    FigureResult.print = original_print
    ids = list(EXPERIMENTS)
    err, targets = paper_log_err(results)
    return {
        "wall_s": wall,
        "error": error,
        "digest": {
            "stdout_sha256": hashlib.sha256(
                sink.getvalue().encode()).hexdigest(),
            "figures": {exp_id: figure_sha(r)
                        for exp_id, r in zip(ids, results)},
        },
        "figures_attempted": len(ids),
        "paper_log_err": err,
        "paper_targets": targets,
    }


# ---------------------------------------------------------------------------
# pipeline: synthesis -> cache filter -> migration, one mcf trace
# ---------------------------------------------------------------------------

def pipeline_pass(seed: int) -> dict:
    from repro.cache.hierarchy import CacheHierarchy, filter_trace
    from repro.core.migration import (
        CrossCountersMigration,
        PerformanceFocusedMigration,
        ReliabilityAwareFCMigration,
    )
    from repro.sim.system import (
        DEFAULT_SCALE,
        evaluate_migration,
        prepare_workload,
    )

    start = time.perf_counter()
    prep = prepare_workload(PIPELINE_WORKLOAD, scale=DEFAULT_SCALE,
                            accesses_per_core=PIPELINE_ACCESSES, seed=seed)
    trace = prep.workload_trace.trace
    hierarchy = CacheHierarchy(prep.config.caches,
                               num_cores=prep.config.num_cores)
    filtered = filter_trace(trace, hierarchy, flush_at_end=True)
    results = [evaluate_migration(prep, mechanism(),
                                  num_intervals=PIPELINE_INTERVALS)
               for mechanism in (PerformanceFocusedMigration,
                                 ReliabilityAwareFCMigration,
                                 CrossCountersMigration)]
    wall = time.perf_counter() - start
    return {"wall_s": wall, "requests": len(trace),
            "digest": pipeline_digest(filtered, results)}


def pipeline_digest(filtered, results) -> str:
    """Digest of the filtered trace arrays and each result's ipc,
    ser and migrations."""
    digest = hashlib.sha256()
    for array in (filtered.core, filtered.lines, filtered.is_write,
                  filtered.gap):
        digest.update(array.tobytes())
    for result in results:
        digest.update(repr((result.scheme, float(result.ipc),
                            float(result.ser),
                            int(result.migrations))).encode())
    return digest.hexdigest()


def run_pipeline(seed: int, seconds: float) -> dict:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(pipeline_pass(seed))
    return {"passes": passes}


# ---------------------------------------------------------------------------
# batch: the serve workload's oracle, replayed outside the daemon
# ---------------------------------------------------------------------------

def run_batch(sessions: list) -> dict:
    """``run_session`` of each streamed session, in the bench's process
    family but after the daemon's timed window."""
    from repro.serve.chaos import synth_traffic
    from repro.serve.engine import run_session
    from repro.serve.protocol import SessionSpec

    out = []
    start = time.perf_counter()
    for item in sessions:
        trace, times = synth_traffic(*item["traffic"])
        spec = SessionSpec.from_dict(item["spec"])
        begin = time.perf_counter()
        result = run_session(spec, trace, times)
        out.append({"sha": result.sha,
                    "replay_ms": (time.perf_counter() - begin) * 1e3})
    return {"wall_s": time.perf_counter() - start, "sessions": out}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "compile", "figures",
                                         "pipeline", "batch"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = sys.stdout

    start = time.perf_counter()
    kernels = load_program()
    load_s = time.perf_counter() - start
    out.write("ready\n")
    out.flush()
    if args.mode == "setup":
        return 0
    if args.mode == "compile":
        _emit(out, {"compile_s": load_s, "kernels_loaded": kernels})
        return 0

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)
    if args.mode == "figures":
        result = run_figures(args.seed)
        wall = result["wall_s"]
    elif args.mode == "pipeline":
        result = run_pipeline(args.seed, args.seconds)
        wall = sum(p["wall_s"] for p in result["passes"])
    else:
        result = run_batch(json.loads(sys.stdin.read()))
        wall = result["wall_s"]
    import resource

    result["maxrss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    result["program"] = program_fingerprint(kernels)
    if tracer is not None:
        result["layers"] = tracer.metrics(wall)
    _emit(out, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
