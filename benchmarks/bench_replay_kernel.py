"""Replay-kernel throughput: scalar oracle vs the compiled fast path.

Times the same default-scale workload replay through the ``scalar``
oracle and the default compiled path (``batched``), asserts the
default path is bit-identical AND at least 5x the scalar
requests/second, and writes the numbers to ``BENCH_replay.json``
(override the location with ``REPRO_BENCH_REPLAY_JSON``).  Without a
working C compiler the default path *is* the scalar oracle, so the
floor cannot hold and the benchmark fails saying so.
"""

import json
import os
import time

from repro.core.placement import PerformanceFocusedPlacement
from repro.dram.hma import HeterogeneousMemory
from repro.sim import _ckernel
from repro.sim.engine import replay
from repro.sim.system import prepare_workload

#: Default scale, default trace volume — the acceptance configuration.
ACCESSES = int(os.environ.get("REPRO_BENCH_ACCESSES", "20000"))
REPEATS = 3
SPEEDUP_FLOOR = 5.0


def _best_of(func, repeats=REPEATS):
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = func()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _make_run(prep, kernel):
    wt = prep.workload_trace
    fast_pages = PerformanceFocusedPlacement().select_fast_pages(
        prep.stats, prep.capacity_pages)

    def run():
        hma = HeterogeneousMemory(prep.config)
        hma.install_placement(fast_pages, prep.stats.pages)
        return replay(prep.config, hma, wt.trace, times=wt.times,
                      core_windows=wt.core_mlp, kernel=kernel)

    return run


def test_replay_kernel_speedup():
    assert _ckernel.available(), (
        f"compiled replay kernel unavailable ({_ckernel.build_error()}); "
        "the default path is the scalar oracle")
    prep = prepare_workload("mcf", accesses_per_core=ACCESSES, seed=0)
    kernels = ["scalar", "batched"]

    report = {"workload": "mcf", "accesses_per_core": ACCESSES,
              "requests": 0, "kernels": {}}
    results = {}
    for kernel in kernels:
        result, seconds = _best_of(_make_run(prep, kernel))
        results[kernel] = result
        report["requests"] = result.requests
        report["kernels"][kernel] = {
            "seconds": seconds,
            "requests_per_second": result.requests / seconds,
        }

    scalar, batched = results["scalar"], results["batched"]
    assert batched.total_seconds == scalar.total_seconds
    assert batched.mean_read_latency == scalar.mean_read_latency
    assert batched.per_core_ipc == scalar.per_core_ipc

    speedup = (report["kernels"]["batched"]["requests_per_second"]
               / report["kernels"]["scalar"]["requests_per_second"])
    report["speedup_vs_scalar"] = speedup

    out = os.environ.get("REPRO_BENCH_REPLAY_JSON", "BENCH_replay.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)

    rps = {k: f"{v['requests_per_second']:,.0f} req/s"
           for k, v in report["kernels"].items()}
    print(f"\nreplay kernel throughput ({report['requests']} requests): "
          f"{rps}; default path at {speedup:.1f}x scalar -> {out}")
    assert speedup >= SPEEDUP_FLOOR, (
        f"default replay only {speedup:.2f}x scalar "
        f"(floor {SPEEDUP_FLOOR}x)")
