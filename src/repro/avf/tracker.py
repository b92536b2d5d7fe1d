"""Per-cache-line ACE interval tracking (paper Section 4.1, Figure 3).

A memory line is *ACE* (Architecturally Correct Execution state) while
a particle strike on it would be consumed by the program: from a write
(or the window start, for data that was live before the measurement
window) up to the last read before the next write.  Time after the last
read of an epoch is dead — the value is either overwritten or never
used again — exactly as in the paper's Figure 3:

* (a) ``WR1 .. RD1 .. RD2 .. WR2``: ACE over ``[WR1, RD2]``.
* (b) a strike between two writes with no intervening read is masked.

Three equivalent implementations are provided:

* :class:`AceTracker` — an exact streaming tracker with explicit state
  transitions (reference semantics; heavily unit-tested),
* :func:`line_ace_times` — a vectorised batch computation over a full
  trace, on the same line-sorted pass (:func:`_line_sorted_spans`)
  as whole-workload AVF profiling, and
* :class:`WindowedAceTracker` — a chunk-batched tracker for the
  dynamic migration engine: each trace chunk is committed with the
  same sorted-by-line vectorised pass as :func:`line_ace_times`, with
  per-line boundary state (last access time, liveness) carried between
  chunks and across measurement windows.  Property tests assert all
  three agree bit-for-bit on random traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import metrics as _metrics


def _record_window_close(kind: str, window_total: float) -> None:
    """Telemetry tap on a measurement-window close; no-op when off."""
    registry = _metrics.get_registry()
    registry.counter(f"{kind}.window_resets").inc()
    registry.counter(f"{kind}.window_ace_seconds").inc(window_total)


@dataclass
class _LineState:
    """Streaming state for one line."""

    #: Time the current potential-ACE interval started (the last write,
    #: or the window start for lines that are read before any write).
    ace_start: float
    #: Accumulated ACE time already committed by reads.
    ace_time: float
    #: Time of the last access of any kind.
    last_access: float
    #: Whether the line has been accessed at all.
    touched: bool


class AceTracker:
    """Exact streaming ACE-time accumulator over cache lines.

    Parameters
    ----------
    assume_live_at_start:
        When True (the default, matching a measurement window cut from
        the middle of execution) a line whose first access is a read is
        treated as live since the window start, so ``[0, first read]``
        counts as ACE.
    """

    def __init__(self, assume_live_at_start: bool = True) -> None:
        self.assume_live_at_start = assume_live_at_start
        self._lines: "dict[int, _LineState]" = {}
        self._last_time = 0.0

    def access(self, line: int, time: float, is_write: bool) -> None:
        """Record one access. ``time`` must be non-decreasing."""
        if time < self._last_time:
            raise ValueError("accesses must be fed in time order")
        self._last_time = time

        state = self._lines.get(line)
        if state is None:
            if is_write:
                state = _LineState(ace_start=time, ace_time=0.0,
                                   last_access=time, touched=True)
            else:
                start = 0.0
                ace = time if self.assume_live_at_start else 0.0
                state = _LineState(ace_start=start, ace_time=ace,
                                   last_access=time, touched=True)
                state.ace_start = time  # committed up to this read
            self._lines[line] = state
            return

        if is_write:
            # Whatever lay between the last read and this write is dead.
            state.ace_start = time
        else:
            # The span since the last committed point is all ACE: it
            # either extends a write->read interval or chains reads.
            state.ace_time += time - state.ace_start
            state.ace_start = time
        state.last_access = time

    def ace_time(self, line: int) -> float:
        """Committed ACE time of ``line`` so far."""
        state = self._lines.get(line)
        return state.ace_time if state else 0.0

    def line_ace_times(self) -> "dict[int, float]":
        """All per-line committed ACE times."""
        return {line: s.ace_time for line, s in self._lines.items()}

    def touched_lines(self) -> "list[int]":
        return list(self._lines)

    def reset_window(self) -> "dict[int, float]":
        """Close the current measurement window.

        Returns per-line ACE time accumulated in the window and starts
        a new window: committed ACE resets to zero, while the liveness
        state (a pending write) carries over, so ACE spans crossing the
        boundary are attributed to the window in which the read occurs.
        """
        out = {}
        for line, state in self._lines.items():
            out[line] = state.ace_time
            state.ace_time = 0.0
        if _metrics.enabled():
            _record_window_close("ace.streaming", sum(out.values()))
        return out


class WindowedAceTracker:
    """Chunk-batched ACE accumulator, equivalent to :class:`AceTracker`.

    State lives in dense per-line arrays (window-committed ACE time,
    last access time, touched flag), grown geometrically on demand.
    :meth:`observe_chunk` commits a whole time-sorted chunk in one
    vectorised pass: requests are stably sorted by line, each read
    commits the span since the previous access of the same line —
    the in-chunk predecessor, or the carried last access time for the
    chunk's first occurrence of a line (``ace_start`` always equals
    ``last_access`` in the streaming tracker, so one carried array
    suffices) — and ``np.add.at`` folds the contributions per line in
    time order, reproducing the streaming tracker's float additions
    bit-for-bit.
    """

    def __init__(self, assume_live_at_start: bool = True) -> None:
        self.assume_live_at_start = assume_live_at_start
        self._last = np.zeros(1024)
        self._touched = np.zeros(1024, dtype=bool)
        self._ace = np.zeros(1024)
        self._last_time = 0.0

    def _ensure(self, max_line: int) -> None:
        size = len(self._last)
        if max_line < size:
            return
        while size <= max_line:
            size *= 2
        for name in ("_last", "_touched", "_ace"):
            old = getattr(self, name)
            new = np.zeros(size, dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, name, new)

    def access(self, line: int, time: float, is_write: bool) -> None:
        """Record one access (scalar convenience wrapper)."""
        self.observe_chunk(
            np.array([line], dtype=np.int64),
            np.array([time], dtype=np.float64),
            np.array([bool(is_write)]),
        )

    def observe_chunk(self, lines: np.ndarray, times: np.ndarray,
                      is_write: np.ndarray) -> None:
        """Commit one time-sorted chunk of accesses."""
        # Imported lazily: repro.core.__init__ pulls in avf.page, which
        # imports this module, so a top-level import would be circular.
        from repro.core.counters import check_parallel_arrays

        check_parallel_arrays("WindowedAceTracker.observe_chunk",
                              lines, times, is_write)
        lines = np.asarray(lines, dtype=np.int64)
        n = len(lines)
        if n == 0:
            return
        times = np.asarray(times, dtype=np.float64)
        if times[0] < self._last_time or np.any(np.diff(times) < 0):
            raise ValueError("accesses must be fed in time order")
        if lines.min() < 0:
            raise ValueError("line ids must be non-negative")
        writes = np.asarray(is_write, dtype=bool)
        self._ensure(int(lines.max()))

        order, sl = _sort_by_line(lines)  # ties keep time order
        st = times[order]
        sw = writes[order]

        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(sl[1:], sl[:-1], out=first[1:])
        first_lines = sl[first]
        carried = self._touched[first_lines]

        prev = np.empty(n)
        prev[1:] = st[:-1]
        # First occurrence in the chunk: continue from the carried last
        # access, or from the window start (0) for brand-new lines.
        prev[first] = np.where(carried, self._last[first_lines], 0.0)

        contrib = np.where(~sw, st - prev, 0.0)
        if not self.assume_live_at_start:
            never_seen = np.zeros(n, dtype=bool)
            never_seen[first] = ~carried
            contrib[never_seen & ~sw] = 0.0

        np.add.at(self._ace, sl, contrib)

        last = np.empty(n, dtype=bool)
        last[-1] = True
        np.not_equal(sl[1:], sl[:-1], out=last[:-1])
        self._last[sl[last]] = st[last]
        self._touched[first_lines] = True
        self._last_time = float(times[-1])

    def ace_time(self, line: int) -> float:
        """Committed ACE time of ``line`` in the current window."""
        if 0 <= line < len(self._ace) and self._touched[line]:
            return float(self._ace[line])
        return 0.0

    def line_ace_times(self) -> "dict[int, float]":
        """All per-line committed ACE times (current window)."""
        return {int(line): float(self._ace[line])
                for line in np.flatnonzero(self._touched)}

    def touched_lines(self) -> "list[int]":
        return np.flatnonzero(self._touched).tolist()

    def window_ace_of(self, lines: np.ndarray) -> np.ndarray:
        """Current-window ACE time per line, 0.0 for untouched lines."""
        lines = np.asarray(lines, dtype=np.int64)
        out = np.zeros(len(lines))
        valid = (lines >= 0) & (lines < len(self._ace))
        out[valid] = self._ace[lines[valid]]
        return out

    def reset_window(self) -> "dict[int, float]":
        """Close the window (same contract as
        :meth:`AceTracker.reset_window`)."""
        out = self.line_ace_times()
        if _metrics.enabled():
            _record_window_close("ace.windowed", float(self._ace.sum()))
        self._ace[:] = 0.0
        return out

    def clear_window(self) -> None:
        """Zero the window accumulator without building the dict."""
        self._ace[:] = 0.0


def _sort_by_line(lines: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``(order, sorted_lines)`` of an int64 line array.

    ``order`` is exactly ``np.argsort(lines, kind="stable")``: requests
    by line, ties in index (time) order.  Each request's line and index
    are packed into one int64 key, ``line << bits | index``; the keys
    are unique, so they have a single sorted order and numpy's unstable
    int64 sort, much faster than the stable argsort, finds it.  The low
    ``bits`` of the sorted keys are the permutation, the high ones the
    sorted lines.  A negative line, or one whose key could overflow
    int64, takes the stable argsort instead.
    """
    n = len(lines)
    bits = (n - 1).bit_length() if n > 1 else 0
    if n and (lines.min() < 0 or lines.max() >> (63 - bits)):
        order = np.argsort(lines, kind="stable")
        return order, lines[order]
    keys = lines << bits
    keys |= np.arange(n, dtype=np.int64)
    keys.sort()
    sorted_lines = keys >> bits
    keys &= (1 << bits) - 1
    return keys, sorted_lines


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal ``values``."""
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return np.flatnonzero(first)


def _run_codes(starts: np.ndarray, n: int) -> np.ndarray:
    """Dense run number of each of ``n`` elements, runs at ``starts``."""
    return np.repeat(np.arange(len(starts)), np.diff(starts, append=n))


def _run_sums(starts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Float64 sum of ``weights`` over each run, runs at ``starts``.

    ``np.bincount`` adds a run's weights one at a time in index order,
    the same float64 sequence as ``np.add.at`` over a monotone inverse
    (and as the streaming tracker's per-line additions).
    """
    sums = np.bincount(_run_codes(starts, len(weights)), weights=weights,
                       minlength=len(starts))
    return sums.astype(np.float64, copy=False)


def _line_sorted_spans(
    lines: np.ndarray,
    times: np.ndarray,
    is_write: np.ndarray,
    assume_live_at_start: bool,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Line-sorted previous-access analysis of a time-sorted trace.

    The one line sort behind :func:`line_ace_times`,
    :func:`~repro.avf.page.profile_trace` and the interval profilers.
    Returns ``(lines, times, is_write, starts, contrib)`` permuted into
    line order (ties in time order): ``starts`` indexes each line's
    first access, ``contrib`` is each read's ACE span since the line's
    previous access (the window start for a line's first access, 0 for
    writes and, unless ``assume_live_at_start``, for a first read).
    """
    if not (len(lines) == len(times) == len(is_write)):
        raise ValueError("parallel arrays must have equal length")
    times = np.asarray(times, dtype=np.float64)
    if np.any(times[1:] < times[:-1]):
        raise ValueError("trace must be time-sorted")
    order, sl = _sort_by_line(np.asarray(lines, dtype=np.int64))
    st = times[order]
    sw = np.asarray(is_write, dtype=bool)[order]
    starts = _run_starts(sl)

    contrib = np.empty_like(st)
    np.subtract(st[1:], st[:-1], out=contrib[1:])
    # A line's first access has no predecessor: its span starts at the
    # window start (time 0) if we assume pre-window liveness.
    contrib[starts] = st[starts] if assume_live_at_start else 0.0
    np.copyto(contrib, 0.0, where=sw)
    return sl, st, sw, starts, contrib


def line_ace_times(
    lines: np.ndarray,
    times: np.ndarray,
    is_write: np.ndarray,
    assume_live_at_start: bool = True,
) -> "tuple[np.ndarray, np.ndarray]":
    """Vectorised batch ACE computation.

    Parameters are parallel arrays describing a *time-sorted* trace.
    Returns ``(unique_lines, ace_time)``: per-line total ACE time.

    The rule is the streaming tracker's, restated per access: every
    read commits the interval since the previous access of the same
    line (or since the window start, if it is the line's first access
    and ``assume_live_at_start``); writes commit nothing.
    """
    sl, _, _, starts, contrib = _line_sorted_spans(
        lines, times, is_write, assume_live_at_start)
    return sl[starts], _run_sums(starts, contrib)
