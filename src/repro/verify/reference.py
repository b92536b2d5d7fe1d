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
bit-identical to them.  :func:`reference_profile_trace` is the oracle
of the page profile, :func:`~repro.avf.page.profile_trace`.
"""

from __future__ import annotations

import numpy as np

from repro.avf.page import IntervalProfile, PageStats, profile_intervals
from repro.config import LINES_PER_PAGE
from repro.core.placement import PerformanceFocusedPlacement
from repro.dram.hma import HeterogeneousMemory
from repro.sim.engine import replay
from repro.sim.results import ExperimentResult


def reference_profile_trace(trace, times, footprint_pages: int = 0,
                            assume_live_at_start: bool = True) -> PageStats:
    """Per-page hotness and AVF by a stable sort and ``np.add.at``.

    The oracle of :func:`~repro.avf.page.profile_trace`, which must
    match it bit for bit: per-line ACE from a stable line sort and
    ``np.unique``, then per-page reads, writes and summed line ACE by
    ``np.searchsorted`` into the unique pages and ``np.add.at``.
    """
    lines = trace.lines.astype(np.int64)
    times = np.asarray(times, dtype=np.float64)
    if len(lines) != len(times):
        raise ValueError("parallel arrays must have equal length")
    if np.any(np.diff(times) < 0):
        raise ValueError("trace must be time-sorted")

    # Per-line ACE: every read commits the span since the line's
    # previous access (the window start for a first access).
    order = np.argsort(lines, kind="stable")
    sl, st, sw = lines[order], times[order], trace.is_write[order]
    first = np.empty(len(sl), dtype=bool)
    first[:1] = True
    first[1:] = sl[1:] != sl[:-1]
    prev = np.empty_like(st)
    prev[1:] = st[:-1]
    prev[first] = 0.0
    contrib = np.where(~sw, st - prev, 0.0)
    if not assume_live_at_start:
        contrib[first & ~sw] = 0.0
    uline, inverse = np.unique(sl, return_inverse=True)
    ace = np.zeros(len(uline))
    np.add.at(ace, inverse, contrib)

    pages_all = trace.pages.astype(np.int64)
    unique_pages = np.unique(pages_all)
    inverse = np.searchsorted(unique_pages, pages_all)
    reads = np.zeros(len(unique_pages), dtype=np.int64)
    writes = np.zeros(len(unique_pages), dtype=np.int64)
    np.add.at(reads, inverse[~trace.is_write], 1)
    np.add.at(writes, inverse[trace.is_write], 1)

    avf = np.zeros(len(unique_pages))
    np.add.at(avf, np.searchsorted(unique_pages, uline // LINES_PER_PAGE),
              ace)
    avf /= LINES_PER_PAGE
    return PageStats(
        pages=unique_pages,
        reads=reads,
        writes=writes,
        avf=np.clip(avf, 0.0, 1.0),
        footprint_pages=max(footprint_pages, len(unique_pages)),
    )


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
