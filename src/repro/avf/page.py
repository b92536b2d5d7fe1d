"""Page-level AVF aggregation (paper Equation 1 / Section 4.1).

The paper performs AVF analysis at cache-line granularity (memory is
read and written in lines), sums the per-line ACE time over a page, and
divides by the page's bit capacity and the window length — i.e. a page
AVF is the mean AVF of its 64 lines, with never-touched lines
contributing zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import LINES_PER_PAGE
from repro.avf.tracker import (
    _line_sorted_spans,
    _run_codes,
    _run_starts,
    _run_sums,
)
from repro.obs.tracing import span
from repro.trace.record import Trace


@dataclass
class PageStats:
    """Per-page profile of a workload run on a flat (DDR-only) memory.

    The struct-of-arrays layout keeps the policy layer vectorised.  All
    arrays are parallel and sorted by ``pages``.
    """

    pages: np.ndarray
    reads: np.ndarray
    writes: np.ndarray
    avf: np.ndarray
    #: Total footprint in pages, including never-touched pages (used
    #: for mean-AVF reporting against the full footprint as in Fig. 2).
    footprint_pages: int = 0

    def __post_init__(self) -> None:
        n = len(self.pages)
        if not (len(self.reads) == len(self.writes) == len(self.avf) == n):
            raise ValueError("PageStats arrays must be parallel")
        if self.footprint_pages < n:
            self.footprint_pages = n

    def __len__(self) -> int:
        return len(self.pages)

    @property
    def hotness(self) -> np.ndarray:
        """Raw access counts (reads + writes), the paper's hotness."""
        return self.reads + self.writes

    @property
    def write_ratio(self) -> np.ndarray:
        """Wr ratio = writes / reads (paper Sec. 5.3); inf-safe."""
        return self.writes / np.maximum(self.reads, 1)

    @property
    def wr2_ratio(self) -> np.ndarray:
        """Wr^2 ratio = writes^2 / reads (paper Sec. 5.4.2)."""
        return self.writes.astype(np.float64) ** 2 / np.maximum(self.reads, 1)

    def mean_avf(self) -> float:
        """Mean AVF over the whole footprint (untouched pages are 0)."""
        if self.footprint_pages == 0:
            return 0.0
        return float(self.avf.sum() / self.footprint_pages)

    def index_of(self, pages) -> np.ndarray:
        """Positions of ``pages`` within this profile's arrays.

        Raises :class:`KeyError` if any of ``pages`` is not profiled.
        """
        idx = np.searchsorted(self.pages, pages)
        if not len(self.pages):
            if np.size(idx):
                raise KeyError("some pages are not in this profile")
            return idx
        idx = np.clip(idx, 0, len(self.pages) - 1)
        if not np.all(self.pages[idx] == pages):
            raise KeyError("some pages are not in this profile")
        return idx


def profile_trace(
    trace: Trace,
    times: np.ndarray,
    footprint_pages: int = 0,
    assume_live_at_start: bool = True,
) -> PageStats:
    """Compute per-page hotness and AVF for a full trace.

    ``times`` is the logical time of every request in ``[0, 1)``; the
    window length is 1, so per-line ACE time is already a per-line AVF
    and a page's AVF is the mean over its 64 lines.

    Everything comes from one line-sorted stream: it is page-sorted
    too, so lines and pages are runs, and per-line ACE, per-page AVF
    and per-page counts are run-length sums.
    :func:`repro.verify.reference.reference_profile_trace` is the
    oracle, bit for bit.
    """
    n = len(trace)
    with span("avf.profile_trace", requests=n):
        sl, _, sw, line_starts, contrib = _line_sorted_spans(
            trace.lines, times, trace.is_write, assume_live_at_start)
        line_pages = sl[line_starts] // LINES_PER_PAGE
        page_starts = _run_starts(line_pages)
        pages = line_pages[page_starts]

        # Per-page AVF: line ACE summed over the page (in line order)
        # / 64 lines / window(=1).
        avf = _run_sums(page_starts, _run_sums(line_starts, contrib))
        avf /= LINES_PER_PAGE

        # Per-page counts: each page is one run of the stream.
        page_bounds = line_starts[page_starts]
        writes = np.add.reduceat(sw, page_bounds, dtype=np.int64)
        reads = np.diff(page_bounds, append=n) - writes

    return PageStats(
        pages=pages,
        reads=reads,
        writes=writes,
        avf=np.clip(avf, 0.0, 1.0),
        footprint_pages=max(footprint_pages, len(pages)),
    )


@dataclass
class IntervalProfile:
    """Per-interval page statistics for dynamic SER accounting.

    ``interval_avf[i]`` maps page -> AVF accumulated during interval
    ``i`` (ACE time attributed to the interval containing the read).
    """

    num_intervals: int
    interval_avf: "list[dict[int, float]]" = field(default_factory=list)

    def total_avf(self, page: int) -> float:
        return sum(iv.get(page, 0.0) for iv in self.interval_avf)


def profile_intervals(
    trace: Trace,
    times: np.ndarray,
    boundaries: np.ndarray,
    assume_live_at_start: bool = True,
) -> IntervalProfile:
    """Reference oracle: per-interval page AVF by a per-span dict loop.

    Splits a trace at logical-time ``boundaries`` and computes each
    interval's per-page AVF contribution.  ACE spans crossing a
    boundary are attributed to the interval in which the read occurs —
    the same attribution the streaming tracker's
    :meth:`~repro.avf.tracker.AceTracker.reset_window` makes.

    Production code profiles intervals through
    :class:`IntervalProfileBuilder`; this loop is kept as its oracle,
    and the ``intervals`` differential-fuzz family holds the two
    bit-identical.
    """
    sl, st, _, _, contrib = _line_sorted_spans(
        trace.lines, times, trace.is_write, assume_live_at_start)
    interval_of = np.searchsorted(boundaries, st, side="right")
    n_intervals = len(boundaries) + 1
    page_of = sl // LINES_PER_PAGE

    profile = IntervalProfile(num_intervals=n_intervals,
                              interval_avf=[{} for _ in range(n_intervals)])
    active = contrib > 0
    for iv, page, c in zip(interval_of[active], page_of[active], contrib[active]):
        bucket = profile.interval_avf[iv]
        bucket[int(page)] = bucket.get(int(page), 0.0) + c / LINES_PER_PAGE
    return profile


class IntervalProfileBuilder:
    """Re-bucket one trace's ACE contributions for many boundary sets.

    The interval profiler every production path runs.  The
    boundary-independent analysis (the line sort dominates) happens
    once in ``__init__``; each boundary set then costs one grouped
    ``np.bincount`` instead of the oracle's per-span dict loop.  A
    :class:`~repro.sim.system.PreparedWorkload` caches one builder
    (:meth:`~repro.sim.system.PreparedWorkload.interval_builder`), so
    every migration point of a workload shares the sort.

    Parity: contributions are accumulated in the same line-sorted
    stream order as the oracle's dict loop (``np.bincount`` adds each
    bin's weights one at a time in index order), and keys come out in
    first-occurrence order, so :meth:`profile` returns interval dicts
    with bit-identical values *and* iteration order.
    :meth:`intervals_arrays` exposes the same data as ``(pages,
    values)`` array pairs for consumers that never need a dict.
    """

    def __init__(self, trace: Trace, times: np.ndarray,
                 assume_live_at_start: bool = True) -> None:
        with span("avf.interval_builder", requests=len(trace)):
            sl, st, _, _, contrib = _line_sorted_spans(
                trace.lines, times, trace.is_write, assume_live_at_start)
            active = contrib > 0
            #: Read time and scaled contribution per active span, in the
            #: oracle's line-sorted stream order.
            self._read_times = st[active]
            self._values = contrib[active] / LINES_PER_PAGE
            # The stream is line-sorted, so pages never decrease: dense
            # page codes come from one run-length pass, no sort.
            pages = sl[active] // LINES_PER_PAGE
            starts = _run_starts(pages)
            self._codes = _run_codes(starts, len(pages))
            self._uniq_pages = pages[starts]

    def intervals_arrays(
        self, boundaries: np.ndarray
    ) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Per-interval ``(pages, avf_values)`` for one boundary set.

        Pages appear in first-occurrence order (the oracle dicts'
        insertion order), which is ascending: page codes never
        decrease along the line-sorted stream, so the first span of a
        smaller code in any interval comes earlier.  Values carry the
        oracle's accumulation rounding exactly: one ``np.bincount``
        over combined ``(interval, page)`` codes adds each bin's
        contributions one at a time in stream order, the same float64
        sequence as the dict loop.
        """
        n_intervals = len(boundaries) + 1
        n_codes = len(self._uniq_pages)
        empty = (np.empty(0, dtype=np.int64), np.empty(0))
        if not n_codes:
            return [empty] * n_intervals
        with span("avf.interval_builder", intervals=n_intervals):
            interval_of = np.searchsorted(boundaries, self._read_times,
                                          side="right")
            combined = interval_of * n_codes + self._codes
            n_bins = n_intervals * n_codes
            sums = np.bincount(combined, weights=self._values,
                               minlength=n_bins)
            # A span count, not the sum, marks presence: a subnormal
            # span can scale to 0.0.
            counts = np.bincount(combined, minlength=n_bins)
            out: "list[tuple[np.ndarray, np.ndarray]]" = []
            for lo in range(0, n_bins, n_codes):
                present = np.flatnonzero(counts[lo:lo + n_codes])
                out.append((self._uniq_pages[present],
                            sums[lo:lo + n_codes][present])
                           if len(present) else empty)
        return out

    def profile(self, boundaries: np.ndarray) -> IntervalProfile:
        """An :class:`IntervalProfile` identical to the oracle's."""
        interval_avf = [
            dict(zip(pages.tolist(), values.tolist()))
            for pages, values in self.intervals_arrays(boundaries)
        ]
        return IntervalProfile(num_intervals=len(boundaries) + 1,
                               interval_avf=interval_avf)
