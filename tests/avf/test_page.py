"""Unit tests for page-level AVF aggregation and interval profiling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.avf.page import (
    IntervalProfileBuilder,
    PageStats,
    profile_intervals,
    profile_trace,
)
from repro.avf.tracker import line_ace_times
from repro.config import LINE_SIZE, LINES_PER_PAGE, PAGE_SIZE
from repro.faults.ser import SerModel
from repro.obs.tracing import SpanRecorder, set_current_recorder
from repro.trace.record import Trace, TraceRecord
from repro.verify.reference import (
    reference_profile_trace,
    reference_ser_series,
)


def trace_of(entries):
    """entries: list of (page, line_in_page, is_write); times spread."""
    records = []
    times = np.linspace(0.05, 0.95, len(entries))
    for (page, line, w), t in zip(entries, times):
        records.append(TraceRecord(
            core=0, address=page * PAGE_SIZE + line * LINE_SIZE,
            is_write=w, gap_instructions=0,
        ))
    return Trace.from_records(records), times


class TestPageStats:
    def make(self):
        return PageStats(
            pages=np.array([1, 2, 3]),
            reads=np.array([10, 0, 5]),
            writes=np.array([2, 8, 5]),
            avf=np.array([0.5, 0.1, 0.2]),
            footprint_pages=10,
        )

    def test_parallel_validation(self):
        with pytest.raises(ValueError):
            PageStats(pages=np.array([1]), reads=np.array([1, 2]),
                      writes=np.array([1]), avf=np.array([0.1]))

    def test_hotness(self):
        s = self.make()
        assert list(s.hotness) == [12, 8, 10]

    def test_write_ratio_inf_safe(self):
        s = self.make()
        assert s.write_ratio[1] == 8.0  # 8 writes / max(0 reads, 1)

    def test_wr2_ratio(self):
        s = self.make()
        assert s.wr2_ratio[0] == pytest.approx(4 / 10)
        assert s.wr2_ratio[2] == pytest.approx(25 / 5)

    def test_mean_avf_over_full_footprint(self):
        s = self.make()
        assert s.mean_avf() == pytest.approx((0.5 + 0.1 + 0.2) / 10)

    def test_footprint_at_least_touched(self):
        s = PageStats(pages=np.array([1, 2]), reads=np.array([1, 1]),
                      writes=np.array([0, 0]), avf=np.array([0.1, 0.1]),
                      footprint_pages=0)
        assert s.footprint_pages == 2

    def test_index_of(self):
        s = self.make()
        assert list(s.index_of(np.array([2, 1]))) == [1, 0]

    def test_index_of_missing_raises(self):
        s = self.make()
        with pytest.raises(KeyError):
            s.index_of(np.array([99]))

    def test_index_of_empty_query(self):
        assert self.make().index_of(np.array([], dtype=np.int64)).size == 0

    def test_index_of_on_empty_profile_raises_keyerror(self):
        empty = profile_trace(Trace.empty(), np.empty(0))
        with pytest.raises(KeyError):
            empty.index_of(np.array([3]))

    def test_index_of_empty_query_on_empty_profile(self):
        empty = profile_trace(Trace.empty(), np.empty(0))
        assert empty.index_of(np.array([], dtype=np.int64)).size == 0

    def test_len(self):
        assert len(self.make()) == 3


class TestProfileTrace:
    def test_counts(self):
        trace, times = trace_of([(0, 0, True), (0, 1, False), (1, 0, False)])
        stats = profile_trace(trace, times)
        assert list(stats.pages) == [0, 1]
        assert list(stats.reads) == [1, 1]
        assert list(stats.writes) == [1, 0]

    def test_avf_bounds(self):
        trace, times = trace_of(
            [(0, i % 4, i % 3 == 0) for i in range(40)]
        )
        stats = profile_trace(trace, times)
        assert np.all(stats.avf >= 0)
        assert np.all(stats.avf <= 1)

    def test_page_avf_is_mean_over_64_lines(self):
        # One line written at t~0.05 and read at t~0.95: ACE ~ 0.9 on
        # that line; the page AVF divides by 64 lines.
        trace, times = trace_of([(0, 0, True), (0, 0, False)])
        stats = profile_trace(trace, times)
        expected = (times[1] - times[0]) / LINES_PER_PAGE
        assert stats.avf[0] == pytest.approx(expected)

    def test_write_only_page_has_zero_avf(self):
        trace, times = trace_of([(0, 0, True), (0, 1, True)])
        stats = profile_trace(trace, times)
        assert stats.avf[0] == 0.0

    def test_footprint_passthrough(self):
        trace, times = trace_of([(0, 0, False)])
        stats = profile_trace(trace, times, footprint_pages=100)
        assert stats.footprint_pages == 100


class TestUnsortedTimes:
    """Every line-sorted entry point rejects out-of-order times."""

    TIMES = np.array([0.5, 0.1, 0.9, 0.3])

    def _trace(self):
        trace, _ = trace_of([(0, 0, True), (0, 0, False), (1, 2, False),
                             (0, 0, False)])
        return trace

    def test_profile_trace(self):
        with pytest.raises(ValueError, match="time-sorted"):
            profile_trace(self._trace(), self.TIMES)

    def test_line_ace_times(self):
        trace = self._trace()
        with pytest.raises(ValueError, match="time-sorted"):
            line_ace_times(trace.lines, self.TIMES, trace.is_write)

    def test_interval_builder(self):
        with pytest.raises(ValueError, match="time-sorted"):
            IntervalProfileBuilder(self._trace(), self.TIMES)

    def test_profile_intervals(self):
        with pytest.raises(ValueError, match="time-sorted"):
            profile_intervals(self._trace(), self.TIMES, np.array([0.5]))


def _same_stats(got, want):
    for field in ("pages", "reads", "writes", "avf"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert a.tobytes() == b.tobytes(), field
    assert got.footprint_pages == want.footprint_pages


class TestProfileMatchesOracle:
    """The run-length profile vs the stable-sort ``np.add.at`` oracle."""

    @settings(max_examples=80, deadline=None)
    @given(
        entries=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7),
                                   st.booleans()), max_size=60),
        live=st.booleans(),
        footprint=st.integers(0, 10),
        high=st.booleans(),
    )
    def test_bit_identical(self, entries, live, footprint, high):
        if entries:
            trace, times = trace_of(entries)
        else:
            trace, times = Trace.empty(), np.empty(0)
        if high:  # huge line ids: the stable-sort fallback
            trace = Trace(core=trace.core,
                          address=trace.address | np.uint64(1 << 63),
                          is_write=trace.is_write, gap=trace.gap)
        _same_stats(profile_trace(trace, times, footprint, live),
                    reference_profile_trace(trace, times, footprint, live))

    def test_empty_dtypes(self):
        stats = profile_trace(Trace.empty(), np.empty(0))
        assert stats.pages.dtype == np.int64
        assert stats.reads.dtype == stats.writes.dtype == np.int64
        assert stats.avf.dtype == np.float64
        assert len(stats) == 0


class TestTelemetry:
    """Spans on the profiling layers; results equal with tracing on."""

    def test_on_off_identical_and_spans_named(self):
        entries = [(p, i % 8, i % 3 == 0) for i in range(40) for p in (0, 2)]
        trace, times = trace_of(entries)
        bounds = np.array([0.3, 0.6])
        off_stats = profile_trace(trace, times)
        off_pairs = IntervalProfileBuilder(trace, times).intervals_arrays(
            bounds)
        recorder = SpanRecorder()
        previous = set_current_recorder(recorder)
        try:
            on_stats = profile_trace(trace, times)
            on_pairs = IntervalProfileBuilder(trace, times).intervals_arrays(
                bounds)
        finally:
            set_current_recorder(previous)
        _same_stats(on_stats, off_stats)
        assert len(on_pairs) == len(off_pairs) == 3
        for (p_on, v_on), (p_off, v_off) in zip(on_pairs, off_pairs):
            assert p_on.tobytes() == p_off.tobytes()
            assert v_on.tobytes() == v_off.tobytes()
        spans = [(s.name, s.attrs) for s in recorder.spans]
        assert spans == [
            ("avf.profile_trace", {"requests": len(trace)}),
            ("avf.interval_builder", {"requests": len(trace)}),
            ("avf.interval_builder", {"intervals": 3}),
        ]


class TestProfileIntervals:
    def test_interval_sum_matches_total(self):
        entries = [(0, i % 8, i % 4 == 0) for i in range(50)] + \
                  [(1, i % 8, i % 3 == 0) for i in range(50)]
        trace, times = trace_of(entries)
        order = np.argsort(times)
        total = profile_trace(trace, times)
        boundaries = np.array([0.25, 0.5, 0.75])
        iv = profile_intervals(trace, times, boundaries)
        assert iv.num_intervals == 4
        for i, page in enumerate(total.pages):
            assert iv.total_avf(int(page)) == pytest.approx(
                float(total.avf[i]), abs=1e-12
            )

    def test_read_attributed_to_containing_interval(self):
        # Write at ~0.05 (interval 0), read at ~0.95 (interval 1): the
        # whole span lands in interval 1.
        trace, times = trace_of([(0, 0, True), (0, 0, False)])
        iv = profile_intervals(trace, times, np.array([0.5]))
        assert iv.interval_avf[0].get(0, 0.0) == 0.0
        assert iv.interval_avf[1][0] > 0.0

    def test_no_boundaries_single_interval(self):
        trace, times = trace_of([(0, 0, True), (0, 0, False)])
        iv = profile_intervals(trace, times, np.empty(0))
        assert iv.num_intervals == 1


def _bits(values):
    return [float(v).hex() for v in values]


class TestBuilderMatchesOracle:
    """The builder every production path runs vs the dict-loop oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7),
                                   st.booleans()), max_size=60),
        boundaries=st.lists(st.floats(-0.5, 1.5), max_size=5),
        live=st.booleans(),
        write_only=st.sets(st.integers(0, 5), max_size=3),
        resident_seed=st.integers(0, 2**16),
    )
    def test_profile_arrays_and_ser(self, entries, boundaries, live,
                                    write_only, resident_seed):
        entries = [(p, l, w or p in write_only) for p, l, w in entries]
        if entries:
            trace, times = trace_of(entries)
        else:
            trace, times = Trace.empty(), np.empty(0)
        bounds = np.sort(np.asarray(boundaries, dtype=np.float64))
        oracle = profile_intervals(trace, times, bounds,
                                   assume_live_at_start=live)
        builder = IntervalProfileBuilder(trace, times,
                                         assume_live_at_start=live)

        profile = builder.profile(bounds)
        assert profile.num_intervals == oracle.num_intervals
        for got, want in zip(profile.interval_avf, oracle.interval_avf):
            assert list(got) == list(want)  # key order
            assert _bits(got.values()) == _bits(want.values())

        pairs = builder.intervals_arrays(bounds)
        assert len(pairs) == oracle.num_intervals
        for (pages, values), want in zip(pairs, oracle.interval_avf):
            assert pages.tolist() == list(want)
            assert _bits(values) == _bits(want.values())

        rng = np.random.default_rng(resident_seed)
        residency = [{p for p in d if rng.random() < 0.5}
                     for d in oracle.interval_avf]
        model = SerModel(fit_fast_per_page=0.37, fit_slow_per_page=0.0123)
        assert _bits([model.ser_dynamic_arrays(pairs, residency)]) == \
            _bits([model.ser_dynamic(oracle, residency)])
        assert _bits(model.ser_dynamic_series(pairs, residency)) == \
            _bits(reference_ser_series(model, oracle, residency))

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 63),
                                   st.booleans()), max_size=120),
        boundaries=st.lists(st.floats(-0.5, 1.5), max_size=6),
        live=st.booleans(),
    )
    def test_interval_pages_ascend(self, entries, boundaries, live):
        if entries:
            trace, times = trace_of(entries)
        else:
            trace, times = Trace.empty(), np.empty(0)
        bounds = np.sort(np.asarray(boundaries, dtype=np.float64))
        builder = IntervalProfileBuilder(trace, times,
                                         assume_live_at_start=live)
        for pages, values in builder.intervals_arrays(bounds):
            assert len(pages) == len(values)
            assert np.all(pages[1:] > pages[:-1])
