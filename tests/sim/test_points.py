"""The run-scoped evaluation-point table (``repro.sim.points``).

Inside a :func:`~repro.sim.points.point_table` scope, a point whose
value key the table holds is served without a replay, and the served
result is bit-identical to a fresh evaluation.  Every key component
separates points, a mechanism instance seen once is never served, and
outside a scope every evaluation replays.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

from repro.config import knob_overrides
from repro.core.migration import (
    CrossCountersMigration,
    PerformanceFocusedMigration,
    ReliabilityAwareFCMigration,
    ToleranceTieredMigration,
)
from repro.core.placement import (
    BalancedPlacement,
    HotFractionPlacement,
    PerformanceFocusedPlacement,
)
from repro.faults.ser import SerModel
from repro.harness.sweeps import _config_with_fast_pages
from repro.sim import engine
from repro.sim.points import active_table, component_key, point_table
from repro.sim.system import (
    StaticSpec,
    evaluate_annotations,
    evaluate_migration,
    evaluate_static,
    evaluate_static_multi,
    prepare_workload,
)

ACCESSES = 1_500


@pytest.fixture(scope="module")
def prep():
    return prepare_workload("mcf", accesses_per_core=ACCESSES, seed=3)


@pytest.fixture
def replays(monkeypatch):
    """Counts replay specs; every replay path runs through replay_multi."""
    count = {"specs": 0}
    real = engine.replay_multi

    def counting(specs, trace, times, **kwargs):
        count["specs"] += len(specs)
        return real(specs, trace, times, **kwargs)

    monkeypatch.setattr(engine, "replay_multi", counting)
    return count


def _same(got, want):
    assert dataclasses.astuple(got) == dataclasses.astuple(want)


class TestHits:
    def test_static_hit_is_bit_identical(self, prep, replays):
        fresh = evaluate_static(prep, BalancedPlacement())
        with point_table() as table:
            first = evaluate_static(prep, BalancedPlacement())
            before = replays["specs"]
            again = evaluate_static(prep, BalancedPlacement())
            assert replays["specs"] == before
        assert (table.hits, table.misses) == (1, 1)
        _same(first, fresh)
        _same(again, fresh)

    def test_migration_hit_is_bit_identical(self, prep, replays):
        fresh = evaluate_migration(prep, CrossCountersMigration(),
                                   num_intervals=4)
        with point_table() as table:
            evaluate_migration(prep, CrossCountersMigration(),
                               num_intervals=4)
            before = replays["specs"]
            again = evaluate_migration(prep, CrossCountersMigration(),
                                       num_intervals=4)
            assert replays["specs"] == before
        assert table.hits == 1
        _same(again, fresh)

    def test_annotation_hit_is_bit_identical(self, prep, replays):
        fresh, fresh_plan = evaluate_annotations(prep)
        with point_table() as table:
            evaluate_annotations(prep)
            before = replays["specs"]
            again, plan = evaluate_annotations(prep)
            assert replays["specs"] == before
        assert table.hits == 1
        _same(again, fresh)
        assert plan.structure_names == fresh_plan.structure_names
        assert np.array_equal(plan.pinned_pages, fresh_plan.pinned_pages)

    def test_equal_preps_share_points(self, prep):
        """Keys are values: a separately prepared equal workload hits."""
        twin = prepare_workload("mcf", accesses_per_core=ACCESSES, seed=3)
        with point_table() as table:
            evaluate_static(prep, PerformanceFocusedPlacement())
            evaluate_static(twin, PerformanceFocusedPlacement())
        assert table.hits == 1


def _static(policy=None, config=None, ser_model=None):
    def run(prep):
        return evaluate_static_multi(prep, [StaticSpec(
            policy or PerformanceFocusedPlacement(), config=config,
            ser_model=ser_model)])[0]
    return run


def _migration(factory=PerformanceFocusedMigration, num_intervals=4,
               initial_policy=None):
    def run(prep):
        return evaluate_migration(prep, factory(),
                                  num_intervals=num_intervals,
                                  initial_policy=initial_policy)
    return run


def _small_config(prep):
    return _config_with_fast_pages(prep.config, prep.capacity_pages // 2)


def _weights(prep, value):
    weights = np.ones(prep.workload_trace.footprint_pages)
    weights[::2] = value
    return weights


#: (name, base point, the same point with one key component changed).
CHANGES = [
    ("policy parameter",
     lambda p: _static(HotFractionPlacement(0.12)),
     lambda p: _static(HotFractionPlacement(0.125))),
    ("mechanism argument",
     lambda p: _migration(PerformanceFocusedMigration),
     lambda p: _migration(
         lambda: PerformanceFocusedMigration(max_swap_fraction=0.2))),
    ("num_intervals",
     lambda p: _migration(num_intervals=4),
     lambda p: _migration(num_intervals=8)),
    ("initial_policy",
     lambda p: _migration(initial_policy=None),
     lambda p: _migration(initial_policy=BalancedPlacement())),
    ("fast-tier capacity",
     lambda p: _static(),
     lambda p: _static(config=_small_config(p))),
    ("FIT multiplier / SerModel",
     lambda p: _static(ser_model=p.ser_model),
     lambda p: _static(ser_model=SerModel(
         p.ser_model.fit_fast_per_page * 2, p.ser_model.fit_slow_per_page))),
    ("tolerance weights",
     lambda p: _migration(lambda: ToleranceTieredMigration(
         tolerance=_weights(p, 0.15))),
     lambda p: _migration(lambda: ToleranceTieredMigration(
         tolerance=_weights(p, 0.6)))),
]


@pytest.mark.parametrize("name,base,changed", CHANGES,
                         ids=[c[0] for c in CHANGES])
def test_changing_one_key_component_misses(prep, replays, name, base,
                                           changed):
    with point_table() as table:
        base(prep)(prep)
        base(prep)(prep)
        assert (table.hits, table.misses) == (1, 1)
        before = replays["specs"]
        changed(prep)(prep)
        assert replays["specs"] == before + 1
    assert (table.hits, table.misses) == (1, 2)


def test_tolerance_map_and_its_weights_key_alike(prep):
    from repro.core.annotations import ToleranceMap

    tol = ToleranceMap(np.zeros(8, dtype=np.int8))
    by_map = ToleranceTieredMigration(tolerance=tol)
    by_weights = ToleranceTieredMigration(tolerance=tol.weights())
    assert component_key(by_map) == component_key(by_weights)


def test_mechanism_instance_is_never_served_twice(prep, replays):
    mech = ReliabilityAwareFCMigration()
    with point_table() as table:
        evaluate_migration(prep, mech, num_intervals=4)
        evaluate_migration(prep, mech, num_intervals=4)
        assert replays["specs"] == 2
        assert table.hits == 0
        # The fresh instance's point was stored; the reused one was not.
        evaluate_migration(prep, ReliabilityAwareFCMigration(),
                           num_intervals=4)
        assert replays["specs"] == 2
    assert (table.hits, table.misses) == (1, 2)


def test_components_without_value_keys_are_computed(prep, replays):
    class LocalPlacement(PerformanceFocusedPlacement):
        pass

    assert component_key(LocalPlacement()) is None
    with point_table() as table:
        evaluate_static(prep, LocalPlacement())
        evaluate_static(prep, LocalPlacement())
    assert replays["specs"] == 2
    assert (table.hits, table.misses) == (0, 2)


def test_outside_a_scope_every_evaluation_replays(prep, replays):
    assert active_table() is None
    evaluate_static(prep, BalancedPlacement())
    evaluate_static(prep, BalancedPlacement())
    evaluate_migration(prep, PerformanceFocusedMigration(), num_intervals=4)
    evaluate_migration(prep, PerformanceFocusedMigration(), num_intervals=4)
    assert replays["specs"] == 4


def test_nested_scopes_join_and_restore():
    with point_table() as outer:
        with point_table() as inner:
            assert inner is outer
        with point_table(table=None) as again:
            assert again is outer
        assert active_table() is outer
    assert active_table() is None


def test_capacity_sweep_under_a_table_releases_its_segment(monkeypatch,
                                                          capfd):
    """Served points hold no prep arrays, so the shm segment closes."""
    from repro.harness import shm as shm_module
    from repro.harness.sweeps import capacity_sweep

    shared = []
    real_share = shm_module.share_payload

    def recording_share(obj, threshold=shm_module.DEFAULT_THRESHOLD):
        item = real_share(obj, threshold)
        shared.append(isinstance(item, shm_module.SharedPayload))
        return item

    monkeypatch.setattr(shm_module, "share_payload", recording_share)
    kwargs = dict(workloads=("mcf",), fractions=(0.05, 0.5), scale=1 / 2048,
                  accesses_per_core=1500, seed=4, jobs=1)
    with knob_overrides(shm_handoff=True), point_table() as table:
        first = capacity_sweep(**kwargs)
        second = capacity_sweep(**kwargs)
    assert shared == [True, True]
    assert table.hits == table.misses == 4
    assert first.rows == second.rows
    assert not shm_module._owned
    assert capfd.readouterr().err == ""


def test_run_all_is_equal_with_and_without_a_table():
    import inspect

    from repro.harness.experiments import EXPERIMENTS, WorkloadCache

    cache = WorkloadCache(accesses_per_core=2_000, seed=0)

    def run_all():
        out = {}
        for name, func in EXPERIMENTS.items():
            kwargs = ({"cache": cache} if "cache"
                      in inspect.signature(func).parameters else {})
            out[name] = repr(dataclasses.astuple(func(**kwargs)))
        return out

    plain = run_all()
    with point_table() as table:
        tabled = run_all()
    assert tabled == plain
    assert table.hits > table.misses


def test_telemetry_registries_match_with_and_without_a_table(tmp_path):
    """A hit re-attaches the stored epoch series under its tag."""
    from repro.harness.experiments import EXPERIMENTS, WorkloadCache
    from repro.obs import run_context
    from repro.obs.registry import RunRegistry, registry_path

    workloads = ("mcf", "milc")

    def run(obs_dir, scope):
        cache = WorkloadCache(accesses_per_core=ACCESSES, seed=0)
        summaries = {}
        with scope:
            for name in ("fig12", "fig14", "fig15"):
                with run_context(name, obs_dir=obs_dir,
                                 enabled=True) as ctx:
                    result = EXPERIMENTS[name](workloads=workloads,
                                               cache=cache)
                    ctx.add_metrics(result.summary)
                summaries[name] = result.summary
        reg = RunRegistry(registry_path(obs_dir))
        out = {}
        for record in reg.list_runs():
            metrics = reg.metrics(record.run_id)
            series = {n: reg.series(record.run_id, n).to_dicts()
                      for n in reg.series_names(record.run_id)}
            summary = {k: metrics[k] for k in summaries[record.label]}
            out[record.label] = (series, summary, metrics)
        return out

    plain = run(str(tmp_path / "plain"), contextlib.nullcontext())
    tabled = run(str(tmp_path / "tabled"), point_table())
    assert sorted(tabled) == sorted(plain) == ["fig12", "fig14", "fig15"]
    for label, (series, summary, metrics) in plain.items():
        t_series, t_summary, _t_metrics = tabled[label]
        assert list(t_series) == list(series)
        assert t_series == series
        assert t_summary == summary
        assert "points.hits" not in metrics
    # fig14 and fig15 score against fig12's perf-migration points.
    assert tabled["fig14"][2]["points.hits"] > 0
    assert tabled["fig15"][2]["points.hits"] > 0
