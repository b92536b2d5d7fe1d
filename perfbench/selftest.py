"""Self-test: the benchmark's output checks catch a perturbed output.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Each case computes a real program output, checks that the unperturbed
output passes, perturbs it (one ulp of a float, one bit of a trace
array, one character of a digest) and checks that the same check
function ``perfbench/run.py`` uses now reports a failure.  Exits 0
when every perturbation is caught, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import worker  # noqa: E402


def _flip_hex(text: str) -> str:
    return ("1" if text[0] != "1" else "2") + text[1:]


def figures_cases():
    from repro.harness.experiments import hw_cost

    result = hw_cost()
    digest = {"stdout_sha256": "0" * 64,
              "figures": {"hwcost": worker.figure_sha(result)}}
    perturbed = copy.deepcopy(result)
    key = next(iter(perturbed.summary))
    perturbed.summary[key] = float(np.nextafter(perturbed.summary[key],
                                                np.inf))
    bad = {"stdout_sha256": "0" * 64,
           "figures": {"hwcost": worker.figure_sha(perturbed)}}
    yield "figures: clean", run.figures_failures(digest, digest, 1) == 0
    yield "figures: summary +1 ulp", run.figures_failures(bad, digest, 1) > 0
    missing = {"stdout_sha256": "0" * 64, "figures": {}}
    yield "figures: figure missing", \
        run.figures_failures(missing, digest, 1) > 0
    reference = run.load_reference("figures", 0)
    if reference is not None:
        stdout_only = copy.deepcopy(reference)
        stdout_only["stdout_sha256"] = _flip_hex(
            reference["stdout_sha256"])
        yield "figures: seed-0 stdout digest", run.figures_failures(
            stdout_only, reference, len(reference["figures"])) > 0


def pipeline_cases():
    from repro.cache.hierarchy import CacheHierarchy, filter_trace
    from repro.core.migration import PerformanceFocusedMigration
    from repro.sim.system import evaluate_migration, prepare_workload

    prep = prepare_workload(worker.PIPELINE_WORKLOAD,
                            accesses_per_core=2_000, seed=0)
    hierarchy = CacheHierarchy(prep.config.caches,
                               num_cores=prep.config.num_cores)
    filtered = filter_trace(prep.workload_trace.trace, hierarchy,
                            flush_at_end=True)
    results = [evaluate_migration(prep, PerformanceFocusedMigration(),
                                  num_intervals=4)]
    clean = worker.pipeline_digest(filtered, results)
    passes = [{"digest": clean}]
    yield "pipeline: clean", run.pipeline_failures(passes, clean) == 0
    filtered.is_write[0] = not filtered.is_write[0]
    flipped = worker.pipeline_digest(filtered, results)
    filtered.is_write[0] = not filtered.is_write[0]
    yield "pipeline: one write bit", \
        run.pipeline_failures([{"digest": flipped}], clean) > 0
    results[0].ipc = float(np.nextafter(results[0].ipc, np.inf))
    nudged = worker.pipeline_digest(filtered, results)
    yield "pipeline: ipc +1 ulp", \
        run.pipeline_failures([{"digest": nudged}], clean) > 0
    yield "pipeline: pass disagrees with first pass", run.pipeline_failures(
        [{"digest": clean}, {"digest": nudged}], None) > 0


def serve_cases():
    from repro.serve.chaos import synth_traffic
    from repro.serve.engine import digest_sha, run_session
    from repro.serve.protocol import SessionSpec

    spec = SessionSpec(tenant="selftest")
    trace, times = synth_traffic(0, 2_000, spec.num_cores,
                                 spec.slow_pages // 2)
    result = run_session(spec, trace, times)
    streamed = {"index": 0, "sha": result.sha,
                "digest": json.loads(json.dumps(result.digest))}
    oracle = [{"sha": result.sha}]
    yield "serve: clean", run.session_failures([streamed], oracle) == 0
    nudged = copy.deepcopy(streamed)
    nudged["digest"]["ipc"] = float(np.nextafter(nudged["digest"]["ipc"],
                                                 np.inf))
    yield "serve: streamed ipc +1 ulp", \
        run.session_failures([nudged], oracle) > 0
    resealed = copy.deepcopy(nudged)
    resealed["sha"] = digest_sha(resealed["digest"])
    yield "serve: resealed result differs from batch", \
        run.session_failures([resealed], oracle) > 0
    dropped = {"index": 0, "error": "ConnectionError: closed"}
    yield "serve: dropped session", \
        run.session_failures([dropped], oracle) > 0
    yield "serve: reference digest", \
        run.serve_digest([streamed]) != run.serve_digest([resealed])


def main() -> int:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.makedirs(os.path.join(run.WORK, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(run.WORK, "tmp")
    failures = 0
    for cases in (figures_cases, pipeline_cases, serve_cases):
        for name, caught in cases():
            print(f"{'ok  ' if caught else 'FAIL'} {name}")
            failures += not caught
    print("self-test passed" if not failures
          else f"self-test FAILED: {failures} case(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
