"""Telemetry overhead guard: dormant instrumentation must stay free.

Times the migration replay under four arms:

1. *bare* — the observability hook points in the engine are stubbed
   out, approximating the uninstrumented engine;
2. *bare again* — the same stub, a second time: bare vs bare is the
   measurement's noise floor;
3. *dormant* — the shipped code path with telemetry off (null-backend
   registry, no sink, no recorder);
4. *on* — telemetry recording into a scratch run registry.

Each arm's sample sums enough replays for at least ``SAMPLE_SECONDS``
of work, so a 2% difference is larger than timer resolution.  On a
shared host the replay time moves by tens of percent for phases of
about a second, longer than one replay, so the first three arms'
samples of a round are interleaved replay by replay (the order
rotating each replay): a contention phase lands on all three alike.
The *on* arm records into a run context and takes its own sample in
each round.  Arms are compared by the median of their ``SAMPLES``
samples.

Asserts the dormant path is within ``OVERHEAD_CEILING`` of bare
(default 2%), and that a telemetry-*on* replay still produces
bit-identical simulation results.  Writes ``BENCH_obs.json``
(override with ``REPRO_BENCH_OBS_JSON``) with the noise floor and the
telemetry-on overhead beside the gated dormant overhead.
"""

import contextlib
import json
import math
import os
import statistics
import tempfile
import time

from repro.core.migration import ReliabilityAwareFCMigration
from repro.dram.hma import HeterogeneousMemory
from repro.obs import run_context
from repro.obs.tracing import NULL_SPAN
from repro.sim import engine
from repro.sim.system import prepare_workload

ACCESSES = int(os.environ.get("REPRO_BENCH_ACCESSES", "20000"))
SAMPLES = 12
SAMPLE_SECONDS = 0.5
OVERHEAD_CEILING = float(os.environ.get("REPRO_BENCH_OBS_CEILING", "0.02"))


def _make_run(prep):
    wt = prep.workload_trace

    def run():
        hma = HeterogeneousMemory(prep.config)
        hma.install_placement([], prep.stats.pages)
        return engine.replay(
            prep.config, hma, wt.trace, times=wt.times,
            mechanism=ReliabilityAwareFCMigration(), num_intervals=16,
            core_windows=wt.core_mlp)

    return run


@contextlib.contextmanager
def _bare():
    """Stub the engine's hook points, approximating pre-telemetry code."""
    saved = (engine.replay_sink, engine.span)
    engine.replay_sink = lambda hma: None
    engine.span = lambda name, **attrs: NULL_SPAN
    try:
        yield
    finally:
        engine.replay_sink, engine.span = saved


def _sample(run, inner):
    t0 = time.perf_counter()
    for _ in range(inner):
        result = run()
    return result, time.perf_counter() - t0


def _interleaved(run, arms, inner):
    """One sample per arm, ``inner`` replays each, alternating arms
    replay by replay; returns ({arm: result}, {arm: seconds})."""
    names = list(arms)
    results, seconds = {}, dict.fromkeys(names, 0.0)
    for i in range(inner):
        shift = i % len(names)
        for name in names[shift:] + names[:shift]:
            with arms[name]():
                results[name], elapsed = _sample(run, 1)
            seconds[name] += elapsed
    return results, seconds


def test_dormant_telemetry_overhead():
    prep = prepare_workload("mcf", accesses_per_core=ACCESSES, seed=0)
    run = _make_run(prep)
    run()  # warm caches and compiled kernels before calibrating
    _, once = _sample(run, 1)
    inner = max(1, math.ceil(SAMPLE_SECONDS / once))

    arms = {"bare": _bare, "bare_again": _bare,
            "dormant": contextlib.nullcontext}
    seconds = {name: [] for name in [*arms, "on"]}
    with tempfile.TemporaryDirectory() as obs_dir:
        for _ in range(SAMPLES):
            results, elapsed = _interleaved(run, arms, inner)
            with run_context("bench-obs", obs_dir=obs_dir, enabled=True):
                results["on"], elapsed["on"] = _sample(run, inner)
            for name, value in elapsed.items():
                seconds[name].append(value)

    assert results["dormant"].snapshots is None  # telemetry really was off
    assert results["on"].snapshots is not None
    assert len(results["on"].snapshots) == 16

    # Telemetry must never perturb the simulation itself.
    bare_result = results["bare"]
    for probe in (results["dormant"], results["on"]):
        assert probe.total_seconds == bare_result.total_seconds
        assert probe.mean_read_latency == bare_result.mean_read_latency
        assert probe.per_core_ipc == bare_result.per_core_ipc

    median = {name: statistics.median(v) for name, v in seconds.items()}
    overhead = median["dormant"] / median["bare"] - 1.0
    report = {
        "workload": "mcf",
        "accesses_per_core": ACCESSES,
        "requests": results["dormant"].requests,
        "replays_per_sample": inner,
        "samples_per_arm": SAMPLES,
        "median_seconds": median,
        "noise_floor": median["bare_again"] / median["bare"] - 1.0,
        "dormant_overhead": overhead,
        "telemetry_on_overhead": median["on"] / median["bare"] - 1.0,
        "ceiling": OVERHEAD_CEILING,
    }
    out = os.environ.get("REPRO_BENCH_OBS_JSON", "BENCH_obs.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"\ntelemetry overhead ({report['requests']} requests, "
          f"{inner} replays x {SAMPLES} samples per arm): "
          f"bare {median['bare']:.3f}s, dormant {median['dormant']:.3f}s "
          f"({overhead * 100:+.2f}%), on {median['on']:.3f}s "
          f"({report['telemetry_on_overhead'] * 100:+.2f}%), noise floor "
          f"{report['noise_floor'] * 100:+.2f}% -> {out}")
    assert overhead < OVERHEAD_CEILING, (
        f"dormant telemetry costs {overhead * 100:.2f}% "
        f"(ceiling {OVERHEAD_CEILING * 100:.0f}%)")
