"""Chaos: C-kernel compile failure degrades once, bit-exactly.

A broken toolchain must cost exactly one ``cc`` invocation and one
structured warning (carrying the compiler's stderr) per process, after
which every replay silently runs on the scalar oracle — with results
identical to an explicit ``kernel="scalar"`` replay down to the last
IEEE-754 bit.
"""

import os
import stat
import warnings

import numpy as np
import pytest

from repro.dram.hma import HeterogeneousMemory
from repro.core.placement import PerformanceFocusedPlacement
from repro.sim import _ckernel
from repro.sim.engine import replay
from repro.sim.system import prepare_workload

pytestmark = [pytest.mark.chaos, pytest.mark.slow]


@pytest.fixture
def broken_cc(tmp_path, monkeypatch):
    """A compiler that always fails, logging every invocation."""
    log = tmp_path / "cc-invocations.log"
    script = tmp_path / "cc"
    script.write_text(
        "#!/bin/sh\n"
        f"echo invoked >> {log}\n"
        "echo 'simulated toolchain breakage: ld returned 1' >&2\n"
        "exit 1\n")
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    monkeypatch.setenv("CC", str(script))
    monkeypatch.setenv("REPRO_CKERNEL_DIR", str(tmp_path / "ckernel"))
    _ckernel._reset_for_tests()
    yield log
    _ckernel._reset_for_tests()  # later tests rebuild with the real cc


def _invocations(log) -> int:
    return len(log.read_text().splitlines()) if log.exists() else 0


class TestCompileFailureCaching:
    def test_single_cc_invocation_and_single_warning(self, broken_cc):
        with pytest.warns(_ckernel.NativeKernelUnavailableWarning,
                          match="simulated toolchain breakage"):
            assert _ckernel.load() is None
        assert _invocations(broken_cc) == 1
        assert "ld returned 1" in _ckernel.build_error()
        # Failure is cached: no further compiles, no further warnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(3):
                assert _ckernel.load() is None
                assert not _ckernel.available()
        assert _invocations(broken_cc) == 1

    def test_missing_compiler_is_structured_too(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CC", str(tmp_path / "does-not-exist"))
        monkeypatch.setenv("REPRO_CKERNEL_DIR", str(tmp_path / "ck"))
        _ckernel._reset_for_tests()
        try:
            with pytest.warns(_ckernel.NativeKernelUnavailableWarning):
                assert _ckernel.load() is None
            assert _ckernel.build_error()
        finally:
            _ckernel._reset_for_tests()


class TestBitExactFallback:
    def test_default_replays_on_scalar_and_matches(self, broken_cc):
        def run(kernel):
            hma = HeterogeneousMemory(prep.config)
            hma.install_placement(fast, prep.stats.pages)
            return replay(prep.config, hma, wt.trace, times=wt.times,
                          core_windows=wt.core_mlp, kernel=kernel)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # Preparing a workload replays too; it takes the same path.
            prep = prepare_workload("mcf", accesses_per_core=1_500, seed=3)
            wt = prep.workload_trace
            fast = PerformanceFocusedPlacement().select_fast_pages(
                prep.stats, prep.capacity_pages)
            defaults = [run(None) for _ in range(3)]
            scalar = run("scalar")
        unavailable = [w for w in caught if issubclass(
            w.category, _ckernel.NativeKernelUnavailableWarning)]
        assert len(unavailable) == 1
        assert "simulated toolchain breakage" in str(unavailable[0].message)
        assert _invocations(broken_cc) == 1
        for got in defaults:
            assert got.ipc == scalar.ipc
            assert got.total_seconds == scalar.total_seconds
            assert got.mean_read_latency == scalar.mean_read_latency
            assert got.per_core_ipc == scalar.per_core_ipc
            assert got.fast_residency == scalar.fast_residency
