"""Bit-exact parity between the scalar oracle and the compiled replay.

The compiled fast path (page-table routing and the busy-until
resolution in C) must reproduce the scalar per-request oracle
*exactly* — same IEEE-754 doubles, not merely close — for every
migration mechanism.  Any drift means the in-kernel routing or the
sequential busy-until resolution diverged from the model.
"""

import numpy as np
import pytest

from repro.core.migration import (
    CrossCountersMigration,
    PerformanceFocusedMigration,
    ReliabilityAwareFCMigration,
)
from repro.core.placement import PerformanceFocusedPlacement
from repro.dram.dram_cache import DramCacheSystem
from repro.dram.hma import FAST, HeterogeneousMemory
from repro.obs.tracing import SpanRecorder, set_current_recorder
from repro.sim import _ckernel
from repro.sim.engine import KERNELS, _resolve_kernel, replay
from repro.sim.system import prepare_workload
from repro.trace.record import Trace

MECHANISMS = {
    "static": None,
    "perf-mig": PerformanceFocusedMigration,
    "fc-mig": ReliabilityAwareFCMigration,
    "cc-mig": CrossCountersMigration,
}


@pytest.fixture(scope="module")
def prep():
    return prepare_workload("mcf", accesses_per_core=2_000, seed=3)


def _run(prep, kernel, mech_name):
    mech_cls = MECHANISMS[mech_name]
    hma = HeterogeneousMemory(prep.config)
    fast_pages = PerformanceFocusedPlacement().select_fast_pages(
        prep.stats, prep.capacity_pages)
    hma.install_placement(fast_pages, prep.stats.pages)
    wt = prep.workload_trace
    result = replay(
        prep.config, hma, wt.trace, times=wt.times,
        mechanism=mech_cls() if mech_cls else None,
        num_intervals=8 if mech_cls else 1,
        core_windows=wt.core_mlp, kernel=kernel,
    )
    return result, hma


def _assert_identical(ref, ref_hma, got, got_hma):
    assert got.total_seconds == ref.total_seconds
    assert got.mean_read_latency == ref.mean_read_latency
    assert got.per_core_ipc == ref.per_core_ipc
    assert got.ipc == ref.ipc
    assert np.array_equal(got.interval_boundaries, ref.interval_boundaries)
    assert got.fast_residency == ref.fast_residency
    assert got.migrations.total == ref.migrations.total
    assert (got.migrations.migration_seconds
            == ref.migrations.migration_seconds)
    for got_u, ref_u in zip(got.device_utilisation, ref.device_utilisation):
        assert (got_u.reads, got_u.writes) == (ref_u.reads, ref_u.writes)
        assert got_u.busy_time == ref_u.busy_time
    # Device-object state converged identically too (banks, channels).
    for got_dev, ref_dev in zip((got_hma.fast, got_hma.slow),
                                (ref_hma.fast, ref_hma.slow)):
        assert (list(got_dev.channel_busy_until)
                == list(ref_dev.channel_busy_until))
        assert got_dev.row_buffer_stats() == ref_dev.row_buffer_stats()
        assert (got_dev.stats.total_read_latency
                == ref_dev.stats.total_read_latency)
    assert sorted(got_hma.pages_in(FAST)) == sorted(ref_hma.pages_in(FAST))


@pytest.mark.parametrize("mech_name", list(MECHANISMS))
def test_batched_matches_scalar(prep, mech_name):
    ref, ref_hma = _run(prep, "scalar", mech_name)
    got, got_hma = _run(prep, "batched", mech_name)
    _assert_identical(ref, ref_hma, got, got_hma)


def test_default_kernel_matches_scalar(prep):
    """``kernel=None`` (the production default) is also bit-exact."""
    ref, ref_hma = _run(prep, "scalar", "perf-mig")
    got, got_hma = _run(prep, None, "perf-mig")
    _assert_identical(ref, ref_hma, got, got_hma)


def _replay_paths(config, hma, trace):
    """Replay; returns the result and the ``kernel`` attribute of every
    ``replay`` span it opened (the paths taken)."""
    recorder = SpanRecorder()
    previous = set_current_recorder(recorder)
    try:
        result = replay(config, hma, trace)
    finally:
        set_current_recorder(previous)
    return result, [s.attrs["kernel"] for s in recorder.spans
                    if s.name == "replay"]


def _tiny_trace(n=64):
    rng = np.random.default_rng(0)
    return Trace(
        core=rng.integers(0, 4, n).astype(np.uint16),
        address=(rng.integers(0, 64, n) * 4096).astype(np.uint64),
        is_write=rng.random(n) < 0.3,
        gap=rng.integers(0, 50, n).astype(np.uint32),
    )


class TestKernelResolution:
    def test_default_prefers_batched(self):
        assert _resolve_kernel(None) == "batched"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_KERNEL", "scalar")
        assert _resolve_kernel(None) == "scalar"

    def test_explicit_scalar(self):
        assert _resolve_kernel("scalar") == "scalar"

    def test_unknown_kernel_rejected(self):
        for name in ("vectorised", "batched-python"):
            with pytest.raises(ValueError):
                _resolve_kernel(name)

    def test_all_names_exported(self):
        assert set(KERNELS) == {"batched", "scalar"}

    def test_batch_api_required_for_batched(self, tiny_config):
        """A memory without page tables replays on the scalar oracle."""
        _, paths = _replay_paths(tiny_config, DramCacheSystem(tiny_config),
                                 _tiny_trace())
        assert paths == ["scalar"]

    @pytest.mark.skipif(not _ckernel.available(),
                        reason="compiled replay kernel unavailable")
    def test_native_disabled_falls_back(self, tiny_config, monkeypatch):
        """No compiled kernel: the default path is the scalar oracle."""
        trace = _tiny_trace()
        native, paths = _replay_paths(
            tiny_config, HeterogeneousMemory(tiny_config), trace)
        assert paths == ["static"]
        # monkeypatch restores the memo afterwards, so the disabled
        # probe does not leak into other tests.
        monkeypatch.setattr(_ckernel, "_cached", (None, "disabled"))
        missing, paths = _replay_paths(
            tiny_config, HeterogeneousMemory(tiny_config), trace)
        assert paths == ["scalar"]
        assert missing.total_seconds == native.total_seconds
        assert missing.per_core_ipc == native.per_core_ipc
