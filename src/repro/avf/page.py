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
from repro.avf.tracker import line_ace_times
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
        """Positions of ``pages`` within this profile's arrays."""
        idx = np.searchsorted(self.pages, pages)
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
    """
    lines = trace.lines.astype(np.int64)
    uline, ace = line_ace_times(
        lines, times, trace.is_write, assume_live_at_start=assume_live_at_start
    )
    line_pages = uline // LINES_PER_PAGE

    pages_all = trace.pages.astype(np.int64)
    unique_pages = np.unique(pages_all)

    # Per-page read/write counts.
    inverse = np.searchsorted(unique_pages, pages_all)
    reads = np.zeros(len(unique_pages), dtype=np.int64)
    writes = np.zeros(len(unique_pages), dtype=np.int64)
    np.add.at(reads, inverse[~trace.is_write], 1)
    np.add.at(writes, inverse[trace.is_write], 1)

    # Per-page AVF: sum line ACE over the page / 64 lines / window(=1).
    avf = np.zeros(len(unique_pages))
    page_idx = np.searchsorted(unique_pages, line_pages)
    np.add.at(avf, page_idx, ace)
    avf /= LINES_PER_PAGE

    return PageStats(
        pages=unique_pages,
        reads=reads,
        writes=writes,
        avf=np.clip(avf, 0.0, 1.0),
        footprint_pages=max(footprint_pages, len(unique_pages)),
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


def _ace_spans(
    trace: Trace, times: np.ndarray, assume_live_at_start: bool
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Line-sorted previous-access analysis of a trace.

    Returns ``(lines, times, contrib)`` in line-sorted (stable) order:
    ``contrib`` is each read's ACE span since the line's previous
    access (window start for a line's first access, 0 for writes).
    """
    lines = trace.lines.astype(np.int64)
    order = np.argsort(lines, kind="stable")
    sl, st, sw = lines[order], times[order], trace.is_write[order]
    first = np.empty(len(sl), dtype=bool)
    if len(sl):
        first[0] = True
        first[1:] = sl[1:] != sl[:-1]
    prev = np.empty_like(st)
    if len(sl):
        prev[1:] = st[:-1]
        prev[0] = 0.0
        prev[first] = 0.0
    contrib = np.where(~sw, st - prev, 0.0)
    if not assume_live_at_start:
        contrib[first & ~sw] = 0.0
    return sl, st, contrib


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
    sl, st, contrib = _ace_spans(trace, times, assume_live_at_start)
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
        sl, st, contrib = _ace_spans(trace, times, assume_live_at_start)
        active = contrib > 0
        #: Read time, page, and scaled contribution per active span, in
        #: the oracle's line-sorted stream order.
        self._read_times = st[active]
        self._pages = (sl[active] // LINES_PER_PAGE)
        self._values = contrib[active] / LINES_PER_PAGE
        # The stream is line-sorted, so pages are non-decreasing; dense
        # page codes therefore come from one run-length pass, no sort.
        pages = self._pages
        if len(pages):
            step = np.empty(len(pages), dtype=np.int64)
            step[0] = 0
            step[1:] = pages[1:] != pages[:-1]
            self._codes = np.add.accumulate(step)
            self._uniq_pages = pages[np.concatenate(
                ([0], np.flatnonzero(step[1:] != 0) + 1))]
        else:
            self._codes = np.empty(0, dtype=np.int64)
            self._uniq_pages = np.empty(0, dtype=np.int64)

    def intervals_arrays(
        self, boundaries: np.ndarray
    ) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Per-interval ``(pages, avf_values)`` for one boundary set.

        Pages appear in first-occurrence order (the oracle dicts'
        insertion order); values carry the oracle's accumulation
        rounding exactly: one ``np.bincount`` over combined
        ``(interval, page)`` codes adds each bin's contributions one at
        a time in stream order, the same float64 sequence as the dict
        loop.
        """
        n_intervals = len(boundaries) + 1
        n_codes = len(self._uniq_pages)
        empty = (np.empty(0, dtype=np.int64), np.empty(0))
        if not n_codes:
            return [empty] * n_intervals
        interval_of = np.searchsorted(boundaries, self._read_times,
                                      side="right")
        combined = interval_of * n_codes + self._codes
        n_bins = n_intervals * n_codes
        sums = np.bincount(combined, weights=self._values,
                           minlength=n_bins)
        # First-occurrence position per (interval, page): reversed
        # fancy assignment makes the earliest stream index win.
        first = np.full(n_bins, -1, dtype=np.int64)
        first[combined[::-1]] = np.arange(len(combined) - 1, -1, -1)
        out: "list[tuple[np.ndarray, np.ndarray]]" = []
        for i in range(n_intervals):
            lo = i * n_codes
            seg_first = first[lo:lo + n_codes]
            present = np.flatnonzero(seg_first >= 0)
            if not len(present):
                out.append(empty)
                continue
            by_stream = present[np.argsort(seg_first[present],
                                           kind="stable")]
            out.append((self._uniq_pages[by_stream],
                        sums[lo:lo + n_codes][by_stream]))
        return out

    def profile(self, boundaries: np.ndarray) -> IntervalProfile:
        """An :class:`IntervalProfile` identical to the oracle's."""
        interval_avf = [
            dict(zip(pages.tolist(), values.tolist()))
            for pages, values in self.intervals_arrays(boundaries)
        ]
        return IntervalProfile(num_intervals=len(boundaries) + 1,
                               interval_avf=interval_avf)
