"""End-to-end telemetry: a real migration replay under run_context."""

import pytest

from repro.core.migration import ReliabilityAwareFCMigration
from repro.obs import run_context
from repro.obs.registry import RunRegistry
from repro.obs.snapshots import SNAPSHOT_FIELDS
from repro.sim.system import evaluate_migration, prepare_workload


@pytest.fixture(scope="module")
def prep():
    return prepare_workload("mcf", accesses_per_core=1500)


def test_migration_run_records_everything(prep, tmp_path):
    with run_context("itest", config={"wl": "mcf"},
                     obs_dir=str(tmp_path), enabled=True):
        result = evaluate_migration(
            prep, ReliabilityAwareFCMigration(), num_intervals=4)
    reg = RunRegistry(str(tmp_path / "registry.sqlite"))
    run = reg.resolve("itest")
    assert run is not None and run.status == "completed"

    metrics = reg.metrics(run.run_id)
    assert metrics["replay.runs"] == 1.0
    assert metrics["replay.chunks"] == 4.0
    assert metrics["plan.fc-migration.calls"] == 3.0  # n_intervals - 1

    names = reg.series_names(run.run_id)
    assert names == ["mcf:fc-migration"]
    series = reg.series(run.run_id, names[0])
    assert len(series) == 4
    for field in SNAPSHOT_FIELDS:
        assert len(series.metric_series(field)) == 4
    # Annotated per-interval SER sums to the scheme's total SER.
    assert sum(series.metric_series("ser")) == pytest.approx(result.ser)
    # Cumulative migration counters are monotone.
    to_fast = series.metric_series("migrations_to_fast")
    assert to_fast == sorted(to_fast)
    assert to_fast[-1] + series.metric_series("migrations_to_slow")[-1] \
        == result.migrations


def test_telemetry_off_is_bit_identical(prep):
    mech = ReliabilityAwareFCMigration
    plain = evaluate_migration(prep, mech(), num_intervals=4)
    import tempfile
    with tempfile.TemporaryDirectory() as obs_dir:
        with run_context("parity", obs_dir=obs_dir, enabled=True):
            traced = evaluate_migration(prep, mech(), num_intervals=4)
    assert traced.ipc == plain.ipc
    assert traced.ser == plain.ser
    assert traced.migrations == plain.migrations


def test_multi_ser_path_identical_under_telemetry(prep, tmp_path):
    """Telemetry rides the production array SER path: results stay
    bit-identical and the per-epoch SER series equals the dict loop."""
    import dataclasses

    from repro.avf.page import profile_intervals
    from repro.core.migration import PerformanceFocusedMigration
    from repro.core.placement import PerformanceFocusedPlacement
    from repro.dram.hma import HeterogeneousMemory
    from repro.sim.engine import replay
    from repro.sim.system import MigrationSpec, evaluate_migration_multi
    from repro.verify.reference import reference_ser_series

    mechs = (ReliabilityAwareFCMigration, PerformanceFocusedMigration)

    def specs():
        return [MigrationSpec(m(), num_intervals=4) for m in mechs]

    plain = evaluate_migration_multi(prep, specs())
    with run_context("multi", obs_dir=str(tmp_path), enabled=True):
        traced = evaluate_migration_multi(prep, specs())
    assert [dataclasses.astuple(r) for r in traced] == \
        [dataclasses.astuple(r) for r in plain]

    reg = RunRegistry(str(tmp_path / "registry.sqlite"))
    run_id = reg.resolve("multi").run_id
    wt = prep.workload_trace
    for mech in mechs:
        hma = HeterogeneousMemory(prep.config)
        hma.install_placement(
            PerformanceFocusedPlacement().select_fast_pages(
                prep.stats, prep.capacity_pages), prep.stats.pages)
        oracle = replay(prep.config, hma, wt.trace, wt.times,
                        mechanism=mech(), num_intervals=4,
                        core_windows=wt.core_mlp, kernel="scalar")
        intervals = profile_intervals(wt.trace, wt.times,
                                      oracle.interval_boundaries)
        want = reference_ser_series(prep.ser_model, intervals,
                                    oracle.fast_residency)
        got = reg.series(run_id, f"mcf:{mech().name}").metric_series("ser")
        assert got == want
