"""Per-point reference evaluators: the oracle of the evaluation layer.

:func:`~repro.sim.system.evaluate_static` and
:func:`~repro.sim.system.evaluate_migration` are single-spec calls of
the batched bodies behind ``evaluate_*_multi``, so they cannot be the
oracle of those bodies.  These evaluators rebuild one point from the
reference implementation of every stage instead:

* the scalar per-request replay (``replay(..., kernel="scalar")``);
* ``policy.select_fast_pages``, with no ranking shared across points;
* the dict-loop :func:`~repro.avf.page.profile_intervals`;
* the dict-form :meth:`~repro.faults.ser.SerModel.ser_dynamic`.

``tests/sim/test_multirun_parity.py`` holds the production evaluators
bit-identical to them.
"""

from __future__ import annotations

from repro.avf.page import IntervalProfile, profile_intervals
from repro.core.placement import PerformanceFocusedPlacement
from repro.dram.hma import HeterogeneousMemory
from repro.sim.engine import replay
from repro.sim.results import ExperimentResult


def _result(prep, scheme: str, replayed, ser: float,
            migrations: int = 0) -> ExperimentResult:
    base = prep.ddr_baseline
    return ExperimentResult(
        workload=prep.name,
        scheme=scheme,
        ipc=replayed.ipc,
        ser=ser,
        ipc_vs_ddr=replayed.ipc / base.ipc if base.ipc else 0.0,
        ser_vs_ddr=ser / base.ser if base.ser else 0.0,
        migrations=migrations,
        mean_read_latency=replayed.mean_read_latency,
    )


def reference_static(prep, policy, config=None,
                     ser_model=None) -> ExperimentResult:
    """One static placement point through the reference stages.

    ``config``/``ser_model`` override the prep's as a
    :class:`~repro.sim.system.StaticSpec` does.
    """
    config = config if config is not None else prep.config
    ser_model = ser_model if ser_model is not None else prep.ser_model
    fast_pages = policy.select_fast_pages(prep.stats,
                                          config.fast_memory.num_pages)
    hma = HeterogeneousMemory(config)
    hma.install_placement(fast_pages, prep.stats.pages)
    wt = prep.workload_trace
    replayed = replay(config, hma, wt.trace, wt.times,
                      core_windows=wt.core_mlp, kernel="scalar")
    return _result(prep, policy.name, replayed,
                   ser_model.ser_static(prep.stats, fast_pages))


def reference_migration(prep, mechanism, num_intervals: int = 16,
                        initial_policy=None) -> ExperimentResult:
    """One dynamic migration point through the reference stages.

    The run starts from ``initial_policy`` (perf-focused by default),
    as :func:`~repro.sim.system.evaluate_migration` does.
    """
    policy = (initial_policy if initial_policy is not None
              else PerformanceFocusedPlacement())
    fast_pages = policy.select_fast_pages(prep.stats, prep.capacity_pages)
    hma = HeterogeneousMemory(prep.config)
    hma.install_placement(fast_pages, prep.stats.pages)
    wt = prep.workload_trace
    replayed = replay(prep.config, hma, wt.trace, wt.times,
                      mechanism=mechanism, num_intervals=num_intervals,
                      core_windows=wt.core_mlp, kernel="scalar")
    intervals = profile_intervals(wt.trace, wt.times,
                                  replayed.interval_boundaries)
    ser = prep.ser_model.ser_dynamic(intervals, replayed.fast_residency)
    return _result(prep, mechanism.name, replayed, ser,
                   migrations=hma.migration_stats.total)


def reference_ser_series(ser_model, intervals: IntervalProfile,
                         fast_residency) -> "list[float]":
    """Per-interval SER by the dict loop of ``SerModel.ser_dynamic``.

    One sum per interval: the oracle of
    :meth:`~repro.faults.ser.SerModel.ser_dynamic_series`.
    """
    series = []
    for avf_map, resident in zip(intervals.interval_avf, fast_residency):
        total = 0.0
        for page, avf in avf_map.items():
            if page in resident:
                total += avf * ser_model.fit_fast_per_page
            else:
                total += avf * ser_model.fit_slow_per_page
        series.append(total)
    return series
