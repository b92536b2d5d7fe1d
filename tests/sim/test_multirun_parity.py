"""Parity: config-batched multi-run engine vs the per-point oracle.

``evaluate_static_multi`` / ``evaluate_migration_multi`` (and the
per-point ``evaluate_static`` / ``evaluate_migration``, their
single-spec case) must be *bit-identical* to the reference evaluators
of :mod:`repro.verify.reference` — scalar replay, per-point
``select_fast_pages``, the dict-loop ``profile_intervals`` and
``ser_dynamic`` — and these tests enforce the contract at every layer:
hypothesis-driven config batches, ragged capacity batches, the
single-spec degenerate case, migration batches across mechanisms, and
whole FigureResults with the ``multirun`` knob on vs off.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import knob_overrides
from repro.core.migration import (
    CrossCountersMigration,
    PerformanceFocusedMigration,
    ReliabilityAwareFCMigration,
)
from repro.core.placement import (
    BalancedPlacement,
    DdrOnlyPlacement,
    HotFractionPlacement,
    PerformanceFocusedPlacement,
    ReliabilityFocusedPlacement,
    Wr2RatioPlacement,
)
from repro.harness.sweeps import _config_with_fast_pages
from repro.sim.system import (
    MigrationSpec,
    StaticSpec,
    evaluate_migration,
    evaluate_migration_multi,
    evaluate_static,
    evaluate_static_multi,
    prepare_workload,
)
from repro.verify.reference import reference_migration, reference_static

ACCESSES = 2_000
POLICIES = (
    PerformanceFocusedPlacement,
    ReliabilityFocusedPlacement,
    BalancedPlacement,
    Wr2RatioPlacement,
    lambda: HotFractionPlacement(0.5),
    DdrOnlyPlacement,
)


@pytest.fixture(scope="module")
def prep():
    return prepare_workload("mcf", accesses_per_core=ACCESSES, seed=3)


def _same(got, want):
    assert dataclasses.astuple(got) == dataclasses.astuple(want)


def _oracle_static(prep, spec: StaticSpec):
    """Per-point evaluation of one StaticSpec through the oracle."""
    return reference_static(prep, spec.policy, config=spec.config,
                            ser_model=spec.ser_model)


def _oracle_migration(prep, mechanism, **kwargs):
    return reference_migration(prep, mechanism, **kwargs)


class TestStaticMulti:
    def test_single_spec_degenerate(self, prep):
        spec = StaticSpec(BalancedPlacement())
        (got,) = evaluate_static_multi(prep, [spec])
        want = _oracle_static(prep, spec)
        _same(got, want)
        _same(evaluate_static(prep, spec.policy), want)

    def test_ragged_capacity_batch(self, prep):
        """Mixed capacities (including pathological ones) in one batch."""
        footprint = prep.workload_trace.footprint_pages
        specs = []
        for pages in (1, 2, footprint // 10, footprint // 3, footprint):
            config = _config_with_fast_pages(prep.config, max(1, pages))
            specs.append(StaticSpec(PerformanceFocusedPlacement(),
                                    config=config))
            specs.append(StaticSpec(Wr2RatioPlacement(), config=config))
        got = evaluate_static_multi(prep, specs)
        for res, spec in zip(got, specs):
            _same(res, _oracle_static(prep, spec))

    def test_all_policies_one_batch(self, prep):
        specs = [StaticSpec(cls()) for cls in POLICIES]
        got = evaluate_static_multi(prep, specs)
        for res, spec in zip(got, specs):
            _same(res, _oracle_static(prep, spec))

    @settings(max_examples=8, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, len(POLICIES) - 1),
                  st.floats(0.02, 1.0)),
        min_size=1, max_size=6))
    def test_hypothesis_config_batches(self, prep, batch):
        footprint = prep.workload_trace.footprint_pages
        specs = []
        for policy_idx, fraction in batch:
            pages = max(1, int(footprint * fraction))
            specs.append(StaticSpec(
                POLICIES[policy_idx](),
                config=_config_with_fast_pages(prep.config, pages)))
        got = evaluate_static_multi(prep, specs)
        for res, spec in zip(got, specs):
            _same(res, _oracle_static(prep, spec))


class TestMigrationMulti:
    def test_mechanism_batch(self, prep):
        specs = [
            MigrationSpec(PerformanceFocusedMigration(), num_intervals=8,
                          initial_policy=DdrOnlyPlacement()),
            MigrationSpec(ReliabilityAwareFCMigration(), num_intervals=4),
            MigrationSpec(PerformanceFocusedMigration(), num_intervals=16),
            MigrationSpec(CrossCountersMigration(), num_intervals=4,
                          initial_policy=BalancedPlacement()),
        ]
        got = evaluate_migration_multi(prep, specs)
        for res, spec in zip(got, specs):
            # Fresh mechanism per oracle run: mechanisms are stateful.
            want = _oracle_migration(
                prep, type(spec.mechanism)(),
                num_intervals=spec.num_intervals,
                initial_policy=spec.initial_policy)
            _same(res, want)

    def test_single_spec_degenerate(self, prep):
        (got,) = evaluate_migration_multi(
            prep, [MigrationSpec(PerformanceFocusedMigration())])
        want = _oracle_migration(prep, PerformanceFocusedMigration())
        _same(got, want)
        _same(evaluate_migration(prep, PerformanceFocusedMigration()), want)


class TestSweepRegression:
    """Whole figures must not move when the knob flips."""

    def test_capacity_sweep_rows(self):
        from repro.harness.sweeps import capacity_sweep

        kwargs = dict(workloads=("mcf", "mix1"), fractions=(0.1, 0.4),
                      accesses_per_core=ACCESSES, seed=3, jobs=1)
        with knob_overrides(multirun=False):
            want = capacity_sweep(**kwargs)
        with knob_overrides(multirun=True):
            got = capacity_sweep(**kwargs)
        assert got.rows == want.rows
        assert got.headers == want.headers

    def test_fig13_rows(self):
        from repro.harness.experiments import (
            WorkloadCache,
            fig13_interval_sweep,
        )

        def run():
            cache = WorkloadCache(accesses_per_core=ACCESSES, seed=3)
            return fig13_interval_sweep(
                workloads=("astar",), intervals=(4, 8), cache=cache,
                accesses_per_core=ACCESSES, seed=3)

        with knob_overrides(multirun=False):
            want = run()
        with knob_overrides(multirun=True):
            got = run()
        assert got.rows == want.rows
        assert got.summary == want.summary

    def test_fit_sweep_rows(self):
        from repro.harness.sweeps import fit_multiplier_sweep

        kwargs = dict(workload="mcf", multipliers=(1.0, 7.0),
                      accesses_per_core=ACCESSES, seed=3)
        with knob_overrides(multirun=False):
            want = fit_multiplier_sweep(**kwargs)
        with knob_overrides(multirun=True):
            got = fit_multiplier_sweep(**kwargs)
        assert got.rows == want.rows

    def test_mlp_sweep_rows(self):
        from repro.harness.sweeps import mlp_sensitivity

        kwargs = dict(workload="mcf", windows=(1, 4),
                      accesses_per_core=ACCESSES, seed=3)
        with knob_overrides(multirun=False):
            want = mlp_sensitivity(**kwargs)
        with knob_overrides(multirun=True):
            got = mlp_sensitivity(**kwargs)
        assert got.rows == want.rows
