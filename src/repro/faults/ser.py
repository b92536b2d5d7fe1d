"""Soft-error-rate composition: SER = FIT_uncorrected x AVF (Eq. 2).

The SER of the system is the sum over pages of the page's AVF times
the uncorrected-error FIT of whichever memory currently holds it.  The
placement therefore decides how much of the workload's AVF mass is
exposed to the weakly-protected fast memory.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.config import SystemConfig
from repro.avf.page import IntervalProfile, PageStats
from repro.faults.faultsim import (
    DEFAULT_OVERLAP_WINDOW_HOURS,
    resolve_fault_trials,
    uncorrected_fit_per_page,
)


@dataclass
class SerModel:
    """Per-page uncorrected FIT rates for both HMA memories."""

    fit_fast_per_page: float
    fit_slow_per_page: float

    def __post_init__(self) -> None:
        if self.fit_fast_per_page < 0 or self.fit_slow_per_page < 0:
            raise ValueError("FIT rates must be non-negative")

    @classmethod
    def for_system(
        cls,
        config: SystemConfig,
        trials: "int | None" = None,
        seed: "int | None" = None,
        overlap_window_hours: float = DEFAULT_OVERLAP_WINDOW_HOURS,
    ) -> "SerModel":
        """Run the fault simulator for both memories.

        ``trials`` defaults to the ``REPRO_FAULT_TRIALS`` environment
        variable, else 0.  ``0`` uses the analytic expectation, which
        is exact for this model and avoids the millions of Monte-Carlo
        trials the ChipKill tail needs.
        """
        trials = resolve_fault_trials(trials)
        kwargs = dict(
            seed=seed,
            overlap_window_hours=overlap_window_hours,
            analytic=trials == 0,
        )
        if trials:
            kwargs["trials"] = trials
        return cls(
            fit_fast_per_page=uncorrected_fit_per_page(config.fast_memory, **kwargs),
            fit_slow_per_page=uncorrected_fit_per_page(config.slow_memory, **kwargs),
        )

    @classmethod
    def for_systems(
        cls,
        configs: "list[SystemConfig]",
        trials: "int | None" = None,
        seed: "int | None" = None,
        overlap_window_hours: float = DEFAULT_OVERLAP_WINDOW_HOURS,
    ) -> "list[SerModel]":
        """One :meth:`for_system` model per config, campaigns deduped.

        Sweeps often vary only one memory (or neither — a FIT
        multiplier applies downstream), so identical
        ``(memory config, simulator arguments)`` campaigns run once and
        fan out.  Deduplication is only applied when the campaign is
        deterministic (analytic, or Monte-Carlo with an explicit seed);
        the values are then exactly what per-config :meth:`for_system`
        calls would produce.
        """
        trials = resolve_fault_trials(trials)
        kwargs = dict(
            seed=seed,
            overlap_window_hours=overlap_window_hours,
            analytic=trials == 0,
        )
        if trials:
            kwargs["trials"] = trials
        deterministic = trials == 0 or seed is not None
        memo: "dict[tuple, float]" = {}

        def fit(mem) -> float:
            if deterministic:
                try:
                    key = (type(mem).__name__, dataclasses.astuple(mem))
                except (TypeError, ValueError):
                    key = None
                if key is not None:
                    if key not in memo:
                        memo[key] = uncorrected_fit_per_page(mem, **kwargs)
                    return memo[key]
            return uncorrected_fit_per_page(mem, **kwargs)

        return [
            cls(fit_fast_per_page=fit(config.fast_memory),
                fit_slow_per_page=fit(config.slow_memory))
            for config in configs
        ]

    @property
    def fit_ratio(self) -> float:
        """Per-page uncorrected FIT of fast over slow memory."""
        if self.fit_slow_per_page == 0:
            return float("inf")
        return self.fit_fast_per_page / self.fit_slow_per_page

    # -- static placements -----------------------------------------------------

    def ser_static(self, stats: PageStats, fast_pages) -> float:
        """System SER for a static placement (``fast_pages`` in HBM).

        Membership is an ``np.isin`` against the profile's page array —
        the same booleans (and therefore the same masked-sum rounding)
        as the original per-page set-membership loop.
        """
        fast_arr = np.asarray(
            fast_pages if isinstance(fast_pages, np.ndarray)
            else [int(p) for p in fast_pages],
            dtype=np.int64,
        )
        if len(fast_arr):
            in_fast = np.isin(stats.pages, fast_arr)
        else:
            in_fast = np.zeros(len(stats), dtype=bool)
        avf_fast = float(stats.avf[in_fast].sum())
        avf_slow = float(stats.avf[~in_fast].sum())
        return avf_fast * self.fit_fast_per_page + avf_slow * self.fit_slow_per_page

    def ser_ddr_only(self, stats: PageStats) -> float:
        """Baseline SER with the entire footprint in slow memory."""
        return float(stats.avf.sum()) * self.fit_slow_per_page

    # -- dynamic placements ------------------------------------------------------

    def ser_dynamic(
        self,
        intervals: IntervalProfile,
        fast_residency: "list[set[int]]",
    ) -> float:
        """System SER under migration.

        ``fast_residency[i]`` is the set of pages resident in fast
        memory during interval ``i``; each interval's AVF contribution
        is charged to the device holding the page at that time.  This
        dict loop is the reference oracle of :meth:`ser_dynamic_arrays`,
        which the production paths run.
        """
        if len(fast_residency) != intervals.num_intervals:
            raise ValueError(
                "need one residency set per interval "
                f"({intervals.num_intervals}), got {len(fast_residency)}"
            )
        total = 0.0
        for avf_map, resident in zip(intervals.interval_avf, fast_residency):
            for page, avf in avf_map.items():
                if page in resident:
                    total += avf * self.fit_fast_per_page
                else:
                    total += avf * self.fit_slow_per_page
        return total

    def ser_dynamic_arrays(
        self,
        interval_pairs: "list[tuple[np.ndarray, np.ndarray]]",
        fast_residency: "list[set[int]]",
    ) -> float:
        """:meth:`ser_dynamic` over per-interval ``(pages, avf)`` arrays.

        Consumes the array form produced by
        :class:`~repro.avf.page.IntervalProfileBuilder` without ever
        building interval dicts.  The per-page products are folded with
        a strictly-sequential accumulation in the oracle's iteration
        order, so the result is bit-identical to :meth:`ser_dynamic` on
        the equivalent :class:`~repro.avf.page.IntervalProfile`.
        """
        products = self._interval_products(interval_pairs, fast_residency)
        # One value per (interval, page) in oracle order; accumulate
        # sequentially so the float64 rounding matches the scalar loop.
        return _sequential_sum(np.concatenate(products)) if products else 0.0

    def ser_dynamic_series(
        self,
        interval_pairs: "list[tuple[np.ndarray, np.ndarray]]",
        fast_residency: "list[set[int]]",
    ) -> "list[float]":
        """Per-interval SER contributions under migration (telemetry).

        The same ``(pages, avf)`` arrays and accounting as
        :meth:`ser_dynamic_arrays`, summed per interval for epoch
        snapshot series: each entry is bit-identical to the dict loop
        of :meth:`ser_dynamic` restricted to that interval.
        """
        return [_sequential_sum(p) for p in
                self._interval_products(interval_pairs, fast_residency)]

    def _interval_products(self, interval_pairs, fast_residency):
        """Per-interval ``avf * FIT`` arrays, FIT by residency device."""
        if len(fast_residency) != len(interval_pairs):
            raise ValueError(
                "need one residency set per interval "
                f"({len(interval_pairs)}), got {len(fast_residency)}"
            )
        products: "list[np.ndarray]" = []
        for (pages, values), resident in zip(interval_pairs, fast_residency):
            if len(pages) and resident:
                resident_arr = np.fromiter(resident, dtype=np.int64,
                                           count=len(resident))
                in_fast = np.isin(pages, resident_arr)
            else:
                in_fast = np.zeros(len(pages), dtype=bool)
            products.append(values * np.where(
                in_fast, self.fit_fast_per_page, self.fit_slow_per_page))
        return products


def _sequential_sum(values: np.ndarray) -> float:
    """``0.0 + v0 + v1 + ...`` left to right, like a scalar ``+=`` loop
    (``np.sum`` would pair-wise sum and round differently)."""
    seq = np.empty(len(values) + 1)
    seq[0] = 0.0
    seq[1:] = values
    return float(np.add.accumulate(seq)[-1])
