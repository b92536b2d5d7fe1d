"""Telemetry watches the replay path production runs.

With telemetry on, ``replay_multi`` must still take its compiled static
and chunked paths (the spans say so), return results bit-identical to
a telemetry-off run, and record epoch snapshots equal to the scalar
oracle's for the same spec.
"""

import pytest

from repro.core.migration import ReliabilityAwareFCMigration
from repro.core.placement import PerformanceFocusedPlacement
from repro.dram.hma import HeterogeneousMemory
from repro.obs import run_context
from repro.sim import _ckernel
from repro.sim.engine import ReplaySpec, replay, replay_multi
from repro.sim.system import prepare_workload

pytestmark = pytest.mark.skipif(
    not _ckernel.available(), reason="compiled replay kernel unavailable")


@pytest.fixture(scope="module")
def prep():
    return prepare_workload("mcf", accesses_per_core=1_500, seed=3)


def _specs(prep):
    """Two static specs (one stacked group) and one chunked spec."""
    fast = PerformanceFocusedPlacement().select_fast_pages(
        prep.stats, prep.capacity_pages)
    out = []
    for placement, mechanism, intervals in (
            (fast, None, 1), (fast[: len(fast) // 2], None, 1),
            (fast, ReliabilityAwareFCMigration(), 4)):
        hma = HeterogeneousMemory(prep.config)
        hma.install_placement(placement, prep.stats.pages)
        out.append(ReplaySpec(config=prep.config, hma=hma,
                              mechanism=mechanism, num_intervals=intervals,
                              core_windows=prep.workload_trace.core_mlp))
    return out


def _digest(result) -> tuple:
    return (result.total_seconds, result.mean_read_latency,
            tuple(result.per_core_ipc), result.fast_residency,
            result.migrations.total, result.migrations.migration_seconds,
            tuple((u.reads, u.writes, u.busy_time)
                  for u in result.device_utilisation))


def _traced(tmp_path, label, run):
    with run_context(label, obs_dir=str(tmp_path / label),
                     enabled=True) as ctx:
        results = run()
    return results, ctx


def test_fast_paths_record_scalar_identical_snapshots(prep, tmp_path):
    wt = prep.workload_trace
    plain = replay_multi(_specs(prep), wt.trace, wt.times)
    traced, ctx = _traced(
        tmp_path, "multi",
        lambda: replay_multi(_specs(prep), wt.trace, wt.times))

    paths = [s.attrs["kernel"] for s in ctx.recorder.spans
             if s.name == "replay"]
    assert sorted(paths) == ["chunked", "static"]

    counters = ctx.registry.scalars()
    assert counters["replay.runs"] == 3
    assert counters["replay.chunks"] == 1 + 1 + 4
    assert counters["replay.requests"] == 3 * len(wt.trace)

    for i, (spec, got, want) in enumerate(zip(_specs(prep), traced, plain)):
        # Telemetry never changes results...
        assert _digest(got) == _digest(want)
        assert want.snapshots is None
        # ...and records what the oracle records.
        oracle, _ = _traced(
            tmp_path, f"scalar-{i}",
            lambda: replay(spec.config, spec.hma, wt.trace, wt.times,
                           mechanism=spec.mechanism,
                           num_intervals=spec.num_intervals,
                           core_windows=spec.core_windows,
                           kernel="scalar"))
        assert _digest(oracle) == _digest(got)
        assert got.snapshots.to_dicts() == oracle.snapshots.to_dicts()
        assert len(got.snapshots) == spec.num_intervals
