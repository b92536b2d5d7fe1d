"""Config-batched sweeps: an absolute wall budget with oracle parity.

Drives the two replay-heaviest sweeps — ``capacity_sweep`` (3
workloads x 5 fractions x 2 policies of static placements) and
``fig13_interval_sweep`` (3 workloads x 5 interval counts of
perf-focused migration) — over pre-prepared workloads.  Each
workload's points ride one :func:`repro.sim.engine.replay_multi` config
batch, exactly as ``repro-hma run all`` evaluates them.

Workload preparation (synthesis, profiling, DDR baseline) happens
outside the timed region: the benchmark isolates the evaluation
engine.  Wall time is best-of-``REPEATS`` and is gated on an absolute
budget keyed by host (CPU model and CPU count, as
``perfbench/run.py::host_fingerprint`` reports them) and trace volume.
On a host or volume with no recorded budget the report says
``"budget": null`` and only parity is gated.

Parity comes first: every figure's rows must equal rows folded from
the per-point reference evaluators of :mod:`repro.verify.reference`
(scalar replay, per-point placement), computed outside the timed
region.  The report lands in ``BENCH_multirun.json`` (override with
``REPRO_BENCH_MULTIRUN_JSON``).
"""

import importlib.util
import json
import os
import time

from repro.harness.experiments import (
    SWEEP_WORKLOADS,
    WorkloadCache,
    fig13_interval_sweep,
)
from repro.harness.runner import prefetch_workloads
from repro.harness.sweeps import capacity_sweep
from repro.verify.reference import (
    reference_capacity_rows,
    reference_interval_rows,
)

#: Default scale, default trace volume — the acceptance configuration.
ACCESSES = int(os.environ.get("REPRO_BENCH_ACCESSES", "20000"))
SCALE = 1 / 1024
SEED = 0
REPEATS = 3
CAPACITY_WORKLOADS = ("mcf", "milc", "mix1")
FRACTIONS = (0.05, 0.1, 0.2, 0.4, 0.8)
INTERVALS = (4, 8, 16, 32, 64)

#: Wall budget in seconds of the best-of-3 batched pass, per
#: ``(cpu model, nproc)`` and accesses/core: the worst of at least ten
#: best-of-3 readings of the same pass on that host, one process per
#: reading (the readings are listed in CHANGES.md).
BUDGETS = {
    ("Intel(R) Xeon(R) Processor", 2): {4_000: 0.464, 20_000: 1.311},
}


def _host() -> "tuple[str | None, int]":
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "..", "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    host = module.host_fingerprint()
    return host["cpu"], host["nproc"]


def _run_once(preps, cache):
    """One pass over both sweeps; returns (figures, per-sweep secs)."""
    t0 = time.perf_counter()
    cap = capacity_sweep(CAPACITY_WORKLOADS, FRACTIONS, scale=SCALE,
                         accesses_per_core=ACCESSES, seed=SEED,
                         jobs=1, preps=preps)
    t1 = time.perf_counter()
    f13 = fig13_interval_sweep(SWEEP_WORKLOADS, INTERVALS, cache=cache,
                               accesses_per_core=ACCESSES, scale=SCALE,
                               seed=SEED)
    t2 = time.perf_counter()
    return {"capacity": cap, "fig13": f13}, {
        "capacity_sweep": t1 - t0, "fig13_interval_sweep": t2 - t1}


def test_batched_sweeps_within_budget():
    preps = prefetch_workloads(
        CAPACITY_WORKLOADS, scale=SCALE, accesses_per_core=ACCESSES,
        seed=SEED, jobs=1)
    cache = WorkloadCache(accesses_per_core=ACCESSES, scale=SCALE,
                          seed=SEED).prefetch(SWEEP_WORKLOADS, jobs=1)

    best = None
    for _ in range(REPEATS):
        figures, stages = _run_once(preps, cache)
        total = sum(stages.values())
        if best is None or total < best[0]:
            best = (total, stages)
    total, stages = best

    # Parity gate, untimed: whole figures against oracle points.
    assert figures["capacity"].rows == reference_capacity_rows(
        preps, FRACTIONS), "capacity_sweep rows diverge from the oracle"
    assert figures["fig13"].rows == reference_interval_rows(
        [cache.get(wl) for wl in SWEEP_WORKLOADS], INTERVALS), (
        "fig13_interval_sweep rows diverge from the oracle")

    cpu, nproc = _host()
    budget = BUDGETS.get((cpu, nproc), {}).get(ACCESSES)
    points = (len(CAPACITY_WORKLOADS) * len(FRACTIONS) * 2
              + len(SWEEP_WORKLOADS) * len(INTERVALS))
    report = {
        "accesses_per_core": ACCESSES,
        "config_points": points,
        "host": {"cpu": cpu, "nproc": nproc},
        "oracle_parity": True,
        "batched_seconds": total,
        "budget": budget,
        "stages": stages,
    }
    out = os.environ.get("REPRO_BENCH_MULTIRUN_JSON", "BENCH_multirun.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)

    shown = "null (unrecorded host)" if budget is None else f"{budget:.3f}s"
    print(f"\nbatched sweeps ({points} config points, oracle parity OK): "
          f"{total:.3f}s, budget {shown} -> {out}")
    if budget is not None:
        assert total <= budget, (
            f"batched sweeps took {total:.3f}s, over the {budget:.3f}s "
            f"budget for {cpu} x{nproc} at {ACCESSES} accesses/core")
