"""The trace-replay engine: cores + HMA + optional migration.

:func:`replay_multi` drives one time-ordered multi-core memory trace
through the :class:`~repro.sim.cpu.ReplayCore` models and N system
configurations (:class:`ReplaySpec`: a
:class:`~repro.dram.hma.HeterogeneousMemory`, optionally with a
:class:`~repro.core.migration.MigrationMechanism` invoked at interval
boundaries); :func:`replay` is its single-spec form.  Interval
boundaries are expressed in the trace's logical time (the generator's
``[0, 1)`` window); migration bandwidth is charged to both devices at
the boundary, so migration-heavy intervals slow subsequent requests
down — the paper's migration cost model.

Two implementations of the same timing model:

* the compiled fast path (default) — page-table translation,
  channel/bank/row routing and the sequential core/bank/channel
  busy-until resolution run per request in the C kernel of
  :mod:`repro.sim._ckernel`.  Static specs (no mechanism, one
  interval) that share core count, clocking and device geometry are
  stacked along a config axis and replayed in one call; chunked specs
  (migration or multi-interval residency sampling) call the kernel
  once per chunk.
* ``scalar`` — the per-request call chain (``hma.service`` →
  ``MemoryDevice.service`` → ``Bank.service``), written directly
  against the component models.  It is the reference oracle for the
  differential fuzzer and the parity suites, and the fallback when the
  fast path cannot run: ``kernel="scalar"`` (or
  ``REPRO_REPLAY_KERNEL=scalar``), memory models without page tables
  (the DRAM-cache foil), or a host without a working C compiler.

The arithmetic of both mirrors operation for operation, so they
produce bit-identical :class:`~repro.sim.results.ReplayResult` timings
(enforced by ``tests/sim/test_parity.py`` and
``tests/sim/test_multirun_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import LINE_SIZE, LINES_PER_PAGE, PAGE_SIZE, SystemConfig
from repro.core.migration import MigrationMechanism
from repro.sim import _ckernel
from repro.dram.device import LINES_PER_ROW
from repro.dram.hma import (
    FAST,
    HeterogeneousMemory,
    flatten_bank_state,
    restore_bank_state,
)
from repro.obs import metrics as _metrics
from repro.obs.snapshots import replay_sink
from repro.obs.tracing import span
from repro.sim.cpu import ReplayCore
from repro.sim.results import DeviceUtilisation, ReplayResult
from repro.trace.record import Trace


def interval_boundaries(num_intervals: int) -> np.ndarray:
    """Equally spaced logical-time boundaries inside ``[0, 1)``."""
    if num_intervals < 1:
        raise ValueError("num_intervals must be >= 1")
    return np.arange(1, num_intervals) / num_intervals


#: Recognised values for ``kernel=``: ``"batched"`` is the compiled
#: fast path (the default), ``"scalar"`` the per-request oracle.
KERNELS = ("batched", "scalar")


def _resolve_kernel(kernel: "str | None") -> str:
    """The requested kernel: argument > ``REPRO_REPLAY_KERNEL`` > fast."""
    from repro.config import knob_value

    kernel = knob_value("replay_kernel", kernel)
    if kernel is None:
        return "batched"
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}")
    return kernel


def _residency_snapshot(hma) -> "set[int]":
    if hasattr(hma, "fast_pages_snapshot"):
        return hma.fast_pages_snapshot()
    return set(hma.pages_in(FAST))


def _page_list(seq) -> "list[int]":
    """Normalise a planner's page sequence (list or ndarray) to a list."""
    return seq.tolist() if isinstance(seq, np.ndarray) else list(seq)


def _plan_migration(
    mechanism: MigrationMechanism, hma, chunk: int, sub: int
) -> "tuple[list[int], list[int]]":
    """The (to_fast, to_slow) plan at the end of ``chunk``."""
    is_fc_boundary = (chunk + 1) % sub == 0
    if is_fc_boundary:
        to_fast, to_slow = mechanism.plan(hma)
        # Mechanisms that defer actual movement to the fine
        # unit still get their sub-plan run at this boundary.
        sub_fast, sub_slow = mechanism.plan_sub(hma) if sub > 1 else ([], [])
        return (_page_list(to_fast) + _page_list(sub_fast),
                _page_list(to_slow) + _page_list(sub_slow))
    to_fast, to_slow = mechanism.plan_sub(hma)
    return _page_list(to_fast), _page_list(to_slow)


def _build_result(
    config: SystemConfig,
    hma,
    trace: Trace,
    final: float,
    core_times: "list[float]",
    read_latency_total: float,
    read_count: int,
    residency: "list[set[int]]",
    bounds: np.ndarray,
    core_instructions: "list[int] | None" = None,
) -> ReplayResult:
    if core_instructions is None:
        core_instructions = [0] * config.num_cores
        core_ids_all = trace.core
        gaps_all = trace.gap
        for c in range(config.num_cores):
            sel = core_ids_all == c
            core_instructions[c] = int(gaps_all[sel].sum()) + int(sel.sum())
    per_core_ipc = [
        (core_instructions[c]
         / (core_times[c] * config.core.frequency_hz))
        if core_times[c] > 0 else 0.0
        for c in range(config.num_cores)
    ]
    utilisation = [
        DeviceUtilisation(
            name=device.config.name,
            reads=device.stats.reads,
            writes=device.stats.writes,
            busy_time=device.stats.busy_time,
            total_seconds=final * device.num_channels,
        )
        for device in (hma.fast, hma.slow)
    ]
    return ReplayResult(
        instructions=trace.total_instructions,
        requests=len(trace),
        total_seconds=final,
        core_frequency_hz=config.core.frequency_hz,
        mean_read_latency=read_latency_total / read_count if read_count else 0.0,
        migrations=hma.migration_stats,
        fast_residency=residency,
        interval_boundaries=bounds,
        device_utilisation=utilisation,
        per_core_ipc=per_core_ipc,
    )


def replay(
    config: SystemConfig,
    hma: HeterogeneousMemory,
    trace: Trace,
    times: "np.ndarray | None" = None,
    mechanism: "MigrationMechanism | None" = None,
    num_intervals: int = 1,
    core_windows: "list[int] | None" = None,
    kernel: "str | None" = None,
) -> ReplayResult:
    """Replay ``trace`` through ``hma``; returns timing results.

    ``times`` (logical time per request) is required when
    ``num_intervals > 1`` so interval boundaries can be located.  The
    residency of fast memory is snapshotted at the start of every
    sub-interval for dynamic SER accounting.  ``core_windows`` gives
    each core its workload's MLP-limited miss window.  ``kernel``
    selects the implementation (``"batched"``, the default, or
    ``"scalar"``); both produce identical results.  This is
    :func:`replay_multi` with a single spec.
    """
    spec = ReplaySpec(config=config, hma=hma, mechanism=mechanism,
                      num_intervals=num_intervals,
                      core_windows=core_windows)
    return replay_multi([spec], trace, times, kernel=kernel)[0]


def _record_run(result: ReplayResult, sink, requests: int,
                chunks: int) -> None:
    """Attach the epoch series and bump the replay counters (telemetry
    on only: ``sink`` is ``None`` otherwise)."""
    if sink is None:
        return
    result.snapshots = sink.series
    registry = _metrics.get_registry()
    registry.counter("replay.requests").inc(requests)
    registry.counter("replay.chunks").inc(chunks)
    registry.counter("replay.runs").inc()


# ---------------------------------------------------------------------------
# Scalar kernel (the reference oracle)
# ---------------------------------------------------------------------------

def _replay_scalar(
    spec: "ReplaySpec", trace: Trace, times: "np.ndarray | None",
    shared: "_TraceShared",
) -> ReplayResult:
    """One spec through the per-request call chain.

    Takes only the chunk bounds from ``shared`` and derives its own
    request arrays, so a fault in the fast paths' precompute cannot
    leak into the oracle.
    """
    config, hma, mechanism = spec.config, spec.hma, spec.mechanism
    core_windows = spec.core_windows
    if core_windows is not None and len(core_windows) != config.num_cores:
        raise ValueError("core_windows must have one entry per core")
    sub = mechanism.subintervals_per_interval if mechanism else 1
    total_chunks = _total_chunks(spec)
    starts, stops, bounds = shared.chunking(total_chunks, times)
    sink = replay_sink(hma)
    cores = [
        ReplayCore(
            config.core,
            window=core_windows[c] if core_windows is not None else None,
        )
        for c in range(config.num_cores)
    ]
    pages_arr = (trace.address // PAGE_SIZE).astype(np.int64)
    lines_arr = ((trace.address % PAGE_SIZE) // LINE_SIZE).astype(np.int64)

    residency: "list[set[int]]" = []
    read_latency_total = 0.0
    read_count = 0

    for chunk, (start, stop) in enumerate(zip(starts, stops)):
        residency.append(_residency_snapshot(hma))

        chunk_pages = pages_arr[start:stop]
        chunk_writes = trace.is_write[start:stop]
        if mechanism is not None and len(chunk_pages):
            chunk_times = times[start:stop] if times is not None else None
            mechanism.observe_chunk(chunk_pages, chunk_writes,
                                    times=chunk_times)

        # -- timed replay of the chunk --
        core_ids = trace.core[start:stop].tolist()
        gaps = trace.gap[start:stop].tolist()
        pages = chunk_pages.tolist()
        lines = lines_arr[start:stop].tolist()
        writes = chunk_writes.tolist()
        service = hma.service
        for i in range(len(pages)):
            core = cores[core_ids[i]]
            core.advance(gaps[i])
            if writes[i]:
                # Writes are posted but hold a store-buffer slot (the
                # shared miss window), so a saturated device back-
                # pressures the core instead of accumulating unbounded
                # write backlog.
                issue = core.ready_to_issue_read()
                done = service(pages[i], lines[i], issue, True)
                core.complete_read(done)
            else:
                issue = core.ready_to_issue_read()
                done = service(pages[i], lines[i], issue, False)
                core.complete_read(done)
                read_latency_total += done - issue
                read_count += 1

        # -- migration at the boundary --
        window_ace = 0.0
        if sink is not None and mechanism is not None:
            # Sampled before the plan: planning resets the window.
            window_ace = mechanism.window_ace_total()
        if mechanism is not None and chunk < total_chunks - 1:
            now = max(c.time for c in cores)
            to_fast, to_slow = _plan_migration(mechanism, hma, chunk, sub)
            if to_fast or to_slow:
                hma.migrate_pairs(to_fast, to_slow, now)

        if sink is not None:
            sink.on_epoch(chunk, hma.fast.stats.reads,
                          hma.fast.stats.writes, hma.slow.stats.reads,
                          hma.slow.stats.writes, window_ace)

    final = max(core.drain() for core in cores) if cores else 0.0
    result = _build_result(
        config, hma, trace, final, [core.time for core in cores],
        read_latency_total, read_count, residency, bounds,
    )
    _record_run(result, sink, len(trace), total_chunks)
    return result


# ---------------------------------------------------------------------------
# Config-batched multi-run engine
# ---------------------------------------------------------------------------

@dataclass
class ReplaySpec:
    """One configuration point for :func:`replay_multi`.

    The fields mirror the per-point :func:`replay` arguments; every
    spec replays the *same* trace, so only the system side varies.
    """

    config: SystemConfig
    hma: HeterogeneousMemory
    mechanism: "MigrationMechanism | None" = None
    num_intervals: int = 1
    core_windows: "list[int] | None" = None


class _TraceShared:
    """Trace-side precompute shared by every spec of one multi-run.

    Page/line decomposition, contiguous request arrays, per-core
    instruction tallies, and the ``gap * seconds_per_instruction``
    products depend only on the trace (and, for the last two, on
    scalars most specs share), so they are computed once per
    :func:`replay_multi` call and reused by every spec.  Only the fast
    paths read the request arrays; the scalar oracle derives its own.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.pages = (trace.address // PAGE_SIZE).astype(np.int64)
        self.lines = ((trace.address % PAGE_SIZE) // LINE_SIZE).astype(np.int64)
        self.core_i32 = np.ascontiguousarray(trace.core, dtype=np.int32)
        self.writes_u8 = np.ascontiguousarray(trace.is_write, dtype=np.uint8)
        self._dts: "dict[float, np.ndarray]" = {}
        self._instr: "dict[int, list[int]]" = {}
        self._chunking: "dict[int, tuple]" = {}

    def dts(self, spi: float) -> np.ndarray:
        """``gap * spi`` for the whole trace (slices match per-chunk
        ``np.multiply(gap[start:stop], spi)`` element for element)."""
        arr = self._dts.get(spi)
        if arr is None:
            arr = np.multiply(self.trace.gap, spi)
            self._dts[spi] = arr
        return arr

    def core_instructions(self, num_cores: int) -> "list[int]":
        """Per-core instruction totals (the :func:`_build_result` loop,
        which is config-independent)."""
        got = self._instr.get(num_cores)
        if got is None:
            core_ids_all = self.trace.core
            gaps_all = self.trace.gap
            counts = np.bincount(core_ids_all, minlength=num_cores)
            sums = np.bincount(core_ids_all, weights=gaps_all,
                               minlength=num_cores)
            if len(counts) == num_cores and float(sums.max(initial=0.0)) < 2.0 ** 53:
                # uint32 gaps summed in float64 stay exact integers
                # below 2^53, so this matches the per-core int sums.
                got = [int(s) + int(c) for s, c in zip(sums, counts)]
            else:
                got = [0] * num_cores
                for c in range(num_cores):
                    sel = core_ids_all == c
                    got[c] = int(gaps_all[sel].sum()) + int(sel.sum())
            self._instr[num_cores] = got
        return got

    def chunking(self, total_chunks: int, times: "np.ndarray | None"):
        """``(starts, stops, bounds)`` for a chunk count, memoised."""
        got = self._chunking.get(total_chunks)
        if got is None:
            if total_chunks > 1:
                if times is None:
                    raise ValueError(
                        "times required for interval-based replay")
                bounds = interval_boundaries(total_chunks)
                cut = np.searchsorted(times, bounds)
                starts = np.concatenate(([0], cut))
                stops = np.concatenate((cut, [len(self.trace)]))
            else:
                starts, stops = np.array([0]), np.array([len(self.trace)])
                bounds = np.empty(0)
            got = (starts, stops, bounds)
            self._chunking[total_chunks] = got
        return got


class _ChunkCounts:
    """Memoised per-chunk unique-page read/write tallies.

    When several specs replay the same chunking, mechanisms that accept
    pre-aggregated counts (``supports_observe_counts``) can share one
    ``np.unique`` pass per chunk instead of re-counting per spec.
    """

    def __init__(self, shared: _TraceShared, starts, stops) -> None:
        self._shared = shared
        self._starts = starts
        self._stops = stops
        self._memo: "dict[int, tuple]" = {}

    def get(self, chunk: int) -> tuple:
        got = self._memo.get(chunk)
        if got is None:
            start, stop = int(self._starts[chunk]), int(self._stops[chunk])
            pages = self._shared.pages[start:stop]
            writes = self._shared.trace.is_write[start:stop]
            pages_w, counts_w = np.unique(pages[writes], return_counts=True)
            pages_r, counts_r = np.unique(pages[~writes], return_counts=True)
            got = (pages_r, counts_r, pages_w, counts_w)
            self._memo[chunk] = got
        return got


def _spec_windows(spec: ReplaySpec) -> "list[int]":
    """The per-core miss windows for one spec (validated)."""
    num_cores = spec.config.num_cores
    if spec.core_windows is not None and len(spec.core_windows) != num_cores:
        raise ValueError("core_windows must have one entry per core")
    cap = spec.config.core.max_outstanding_misses
    windows = (
        [min(cap, w) for w in spec.core_windows]
        if spec.core_windows is not None else [cap] * num_cores
    )
    if any(w < 1 for w in windows):
        raise ValueError("miss window must be >= 1")
    return windows


def _group_signature(spec: ReplaySpec) -> tuple:
    """Stacking compatibility key: specs whose state arrays share a
    shape (and whose traces share ``dts``) can ride one kernel call."""
    fast, slow = spec.hma.fast, spec.hma.slow
    return (
        spec.config.num_cores,
        spec.config.core.issue_width,
        spec.config.core.frequency_hz,
        fast.num_channels, slow.num_channels,
        fast.banks_per_channel, slow.banks_per_channel,
        fast.num_banks_total, slow.num_banks_total,
    )


def replay_multi(
    specs: "list[ReplaySpec]",
    trace: Trace,
    times: "np.ndarray | None" = None,
    kernel: "str | None" = None,
) -> "list[ReplayResult]":
    """Replay one trace against N system configurations.

    Returns one :class:`ReplayResult` per spec, bit-identical to a
    ``kernel="scalar"`` replay of each spec in order (the parity suites
    and the differential fuzzer enforce it).

    Static specs (no mechanism, one interval) that share core count,
    clocking, and device geometry are stacked along a leading config
    axis and replayed in a single compiled pass; chunked specs
    (migration mechanisms or multi-interval residency sampling) replay
    one spec at a time but share the trace-side precompute.  A spec
    goes to the scalar oracle instead when ``kernel="scalar"``, when
    its memory has no page tables, or when the compiled kernel cannot
    be built (which warns once per process).
    """
    kernel = _resolve_kernel(kernel)
    fn = _ckernel.load() if kernel == "batched" else None
    shared = _TraceShared(trace)
    results: "list[ReplayResult | None]" = [None] * len(specs)
    static_groups: "dict[tuple, list[int]]" = {}
    by_chunks: "dict[int, list[int]]" = {}

    with span("replay_multi", specs=len(specs), requests=len(trace)):
        for i, spec in enumerate(specs):
            if fn is None or not hasattr(spec.hma, "page_tables"):
                with _spec_span("scalar", spec, trace):
                    results[i] = _replay_scalar(spec, trace, times, shared)
            elif spec.mechanism is None and spec.num_intervals == 1:
                static_groups.setdefault(_group_signature(spec),
                                         []).append(i)
            else:
                by_chunks.setdefault(_total_chunks(spec), []).append(i)

        for members in static_groups.values():
            with span("replay", kernel="static", specs=len(members),
                      requests=len(trace), chunks=1):
                group_results = _replay_multi_static(
                    fn, [specs[i] for i in members], trace, shared)
            for i, res in zip(members, group_results):
                results[i] = res

        for total_chunks, members in by_chunks.items():
            cache = None
            if len(members) > 1:
                starts, stops, _ = shared.chunking(total_chunks, times)
                cache = _ChunkCounts(shared, starts, stops)
            for i in members:
                with _spec_span("chunked", specs[i], trace):
                    results[i] = _replay_multi_chunked(
                        fn, specs[i], trace, times, shared, cache)
    return results


def _total_chunks(spec: ReplaySpec) -> int:
    sub = spec.mechanism.subintervals_per_interval if spec.mechanism else 1
    return spec.num_intervals * sub


def _spec_span(path: str, spec: ReplaySpec, trace: Trace):
    """The ``replay`` span of one spec; ``kernel`` names the path taken."""
    mechanism = spec.mechanism
    return span("replay", kernel=path, requests=len(trace),
                chunks=_total_chunks(spec),
                mechanism=mechanism.name if mechanism else None)


def _replay_multi_static(
    fn, specs: "list[ReplaySpec]", trace: Trace, shared: _TraceShared,
) -> "list[ReplayResult]":
    """Stacked single-chunk replay for static (no-migration) specs.

    All specs share one :func:`_group_signature`; their per-config
    state is stacked ``[K, ...]`` and the compiled multi kernel walks
    the shared request arrays once per config in a single call.
    """
    K = len(specs)
    config0 = specs[0].config
    num_cores = config0.num_cores
    spi = 1.0 / (config0.core.issue_width * config0.core.frequency_hz)
    n = len(trace)

    fast0, slow0 = specs[0].hma.fast, specs[0].hma.slow
    f_nc, s_nc = fast0.num_channels, slow0.num_channels
    f_bpc, s_bpc = fast0.banks_per_channel, slow0.banks_per_channel
    n_fast_banks = fast0.num_banks_total
    nbanks = n_fast_banks + slow0.num_banks_total
    nchan = f_nc + s_nc

    windows_np = np.empty((K, num_cores), dtype=np.int32)
    for k, spec in enumerate(specs):
        windows_np[k] = _spec_windows(spec)
    ringcap = int(windows_np.max())

    residency = [[_residency_snapshot(spec.hma)] for spec in specs]
    sinks = [replay_sink(spec.hma) for spec in specs]

    latconst = np.empty((K, 8))
    core_time = np.zeros((K, num_cores))
    ring = np.zeros((K, num_cores, ringcap))
    ring_head = np.zeros((K, num_cores), dtype=np.int32)
    ring_len = np.zeros((K, num_cores), dtype=np.int32)
    bank_busy = np.empty((K, nbanks))
    bank_open = np.empty((K, nbanks), dtype=np.int64)
    bank_hits = np.empty((K, nbanks), dtype=np.int64)
    bank_misses = np.empty((K, nbanks), dtype=np.int64)
    bank_conflicts = np.empty((K, nbanks), dtype=np.int64)
    chan_busy = np.empty((K, nchan))
    read_lat = np.empty((K, 2))
    busy_acc = np.empty((K, 2))
    read_total = np.zeros(K)
    dev_counts = np.zeros((K, 4), dtype=np.int64)

    if n:
        pt_len = int(shared.pages.max()) + 1
        ptd = np.empty((K, pt_len), dtype=np.int16)
        ptf = np.empty((K, pt_len), dtype=np.int64)

    for k, spec in enumerate(specs):
        hma = spec.hma
        fast, slow = hma.fast, hma.slow
        if n:
            # Fault unmapped pages into DDR in first-touch order, as
            # the per-point route would; the table copy then covers
            # every page the chunk can reference.
            hma.ensure_mapped(shared.pages)
            d_col, f_col = hma.page_tables()
            ptd[k] = d_col[:pt_len]
            ptf[k] = f_col[:pt_len]
        latconst[k] = (
            fast.hit_seconds, fast.miss_seconds, fast.conflict_seconds,
            fast.burst_seconds,
            slow.hit_seconds, slow.miss_seconds, slow.conflict_seconds,
            slow.burst_seconds,
        )
        bank_open_l, bank_busy_l, hits_l, misses_l, conflicts_l = \
            flatten_bank_state(fast, slow)
        bank_open[k] = bank_open_l
        bank_busy[k] = bank_busy_l
        bank_hits[k] = hits_l
        bank_misses[k] = misses_l
        bank_conflicts[k] = conflicts_l
        chan_busy[k] = (list(fast.channel_busy_until)
                        + list(slow.channel_busy_until))
        read_lat[k] = (fast.stats.total_read_latency,
                       slow.stats.total_read_latency)
        busy_acc[k] = (fast.stats.busy_time, slow.stats.busy_time)

    if n:
        _ckernel.MultiCall(
            fn, shared.core_i32, shared.dts(spi), shared.pages,
            shared.lines, shared.writes_u8,
            LINES_PER_PAGE, LINES_PER_ROW,
            f_nc, s_nc, f_bpc, s_bpc, n_fast_banks,
            latconst, core_time, windows_np,
            ring, ring_head, ring_len, ringcap, num_cores,
            bank_busy, bank_open, bank_hits, bank_misses,
            bank_conflicts, chan_busy, nbanks, nchan,
            read_lat, busy_acc, read_total, dev_counts,
        ).run(0, n, ptd, ptf, pt_len)

    bounds = np.empty(0)
    instr = shared.core_instructions(num_cores)
    out: "list[ReplayResult]" = []
    for k, spec in enumerate(specs):
        hma = spec.hma
        fast, slow = hma.fast, hma.slow
        core_times = core_time[k].tolist()
        final = 0.0
        for c in range(num_cores):
            t = core_times[c]
            live_n = int(ring_len[k, c])
            if live_n:
                h = int(ring_head[k, c])
                live = [float(ring[k, c, (h + j) % ringcap])
                        for j in range(live_n)]
                last = max(live)
                if last > t:
                    t = last
                core_times[c] = t
            if t > final:
                final = t
        restore_bank_state(
            fast, slow, bank_open[k].tolist(), bank_busy[k].tolist(),
            bank_hits[k].tolist(), bank_misses[k].tolist(),
            bank_conflicts[k].tolist())
        fast.channel_busy_until = chan_busy[k, :f_nc].tolist()
        slow.channel_busy_until = chan_busy[k, f_nc:].tolist()
        reads_f, reads_s, writes_f, writes_s = (
            int(x) for x in dev_counts[k])
        fast.stats.reads += reads_f
        slow.stats.reads += reads_s
        fast.stats.writes += writes_f
        slow.stats.writes += writes_s
        fast.stats.total_read_latency = float(read_lat[k, 0])
        slow.stats.total_read_latency = float(read_lat[k, 1])
        fast.stats.busy_time = float(busy_acc[k, 0])
        slow.stats.busy_time = float(busy_acc[k, 1])
        if sinks[k] is not None:
            sinks[k].on_epoch(0, fast.stats.reads, fast.stats.writes,
                              slow.stats.reads, slow.stats.writes)
        result = _build_result(
            spec.config, hma, trace, final, core_times,
            float(read_total[k]), reads_f + reads_s, residency[k], bounds,
            core_instructions=instr,
        )
        _record_run(result, sinks[k], n, 1)
        out.append(result)
    return out


def _replay_multi_chunked(
    fn, spec: ReplaySpec, trace: Trace, times: "np.ndarray | None",
    shared: _TraceShared, counts_cache: "_ChunkCounts | None",
) -> ReplayResult:
    """Chunked single-spec replay with compiled in-kernel routing.

    The structure of :func:`_replay_scalar` with every chunk's requests
    handed to the compiled kernel (config axis of one): the page table
    is re-fetched per chunk because migrations mutate it in place and
    ``ensure_mapped`` may reallocate it.
    """
    config, hma, mechanism = spec.config, spec.hma, spec.mechanism
    sub = mechanism.subintervals_per_interval if mechanism else 1
    total_chunks = _total_chunks(spec)
    starts, stops, bounds = shared.chunking(total_chunks, times)
    sink = replay_sink(hma)

    num_cores = config.num_cores
    spi = 1.0 / (config.core.issue_width * config.core.frequency_hz)
    windows_np = np.asarray(_spec_windows(spec), dtype=np.int32)
    ringcap = int(windows_np.max())
    core_time = np.zeros(num_cores)
    ring = np.zeros((num_cores, ringcap))
    ring_head = np.zeros(num_cores, dtype=np.int32)
    ring_len = np.zeros(num_cores, dtype=np.int32)

    fast, slow = hma.fast, hma.slow
    f_nc, s_nc = fast.num_channels, slow.num_channels
    f_bpc, s_bpc = fast.banks_per_channel, slow.banks_per_channel
    n_fast_banks = fast.num_banks_total
    nbanks = n_fast_banks + slow.num_banks_total
    nchan = f_nc + s_nc
    latconst = np.array([
        fast.hit_seconds, fast.miss_seconds, fast.conflict_seconds,
        fast.burst_seconds,
        slow.hit_seconds, slow.miss_seconds, slow.conflict_seconds,
        slow.burst_seconds,
    ])

    bank_open_l, bank_busy_l, hits_l, misses_l, conflicts_l = \
        flatten_bank_state(fast, slow)
    bank_open = np.asarray(bank_open_l, dtype=np.int64)
    bank_busy = np.asarray(bank_busy_l)
    bank_hits = np.asarray(hits_l, dtype=np.int64)
    bank_misses = np.asarray(misses_l, dtype=np.int64)
    bank_conflicts = np.asarray(conflicts_l, dtype=np.int64)
    chan_busy = np.array(list(fast.channel_busy_until)
                         + list(slow.channel_busy_until))
    seed_reads = (fast.stats.reads, slow.stats.reads)
    seed_writes = (fast.stats.writes, slow.stats.writes)
    read_lat = np.array([fast.stats.total_read_latency,
                         slow.stats.total_read_latency])
    busy_acc = np.array([fast.stats.busy_time, slow.stats.busy_time])
    read_total = np.zeros(1)
    dev_counts = np.zeros((1, 4), dtype=np.int64)
    dts_full = shared.dts(spi)
    use_counts = (counts_cache is not None and mechanism is not None
                  and mechanism.supports_observe_counts)
    # One pointer-cached binding serves every chunk; only the request
    # range and the page-table columns change between calls.
    call = _ckernel.MultiCall(
        fn, shared.core_i32, dts_full, shared.pages, shared.lines,
        shared.writes_u8,
        LINES_PER_PAGE, LINES_PER_ROW,
        f_nc, s_nc, f_bpc, s_bpc, n_fast_banks,
        latconst, core_time, windows_np,
        ring, ring_head, ring_len, ringcap, num_cores,
        bank_busy, bank_open, bank_hits, bank_misses,
        bank_conflicts, chan_busy, nbanks, nchan,
        read_lat, busy_acc, read_total, dev_counts,
    )

    def _sync_to_devices() -> None:
        fast.channel_busy_until = chan_busy[:f_nc].tolist()
        slow.channel_busy_until = chan_busy[f_nc:].tolist()
        fast.stats.reads = seed_reads[0] + int(dev_counts[0, 0])
        slow.stats.reads = seed_reads[1] + int(dev_counts[0, 1])
        fast.stats.writes = seed_writes[0] + int(dev_counts[0, 2])
        slow.stats.writes = seed_writes[1] + int(dev_counts[0, 3])
        fast.stats.total_read_latency = float(read_lat[0])
        slow.stats.total_read_latency = float(read_lat[1])
        fast.stats.busy_time = float(busy_acc[0])
        slow.stats.busy_time = float(busy_acc[1])

    residency: "list[set[int]]" = []

    for chunk in range(total_chunks):
        start, stop = int(starts[chunk]), int(stops[chunk])
        residency.append(_residency_snapshot(hma))

        chunk_pages = shared.pages[start:stop]
        if mechanism is not None and stop > start:
            if use_counts:
                mechanism.observe_counts(*counts_cache.get(chunk))
            else:
                chunk_times = times[start:stop] if times is not None else None
                mechanism.observe_chunk(
                    chunk_pages, trace.is_write[start:stop],
                    times=chunk_times)

        if stop > start:
            hma.ensure_mapped(chunk_pages)
            d_col, f_col = hma.page_tables()
            call.run(start, stop, d_col, f_col, len(d_col))

        window_ace = 0.0
        if sink is not None and mechanism is not None:
            # Sampled before the plan: planning resets the window.
            window_ace = mechanism.window_ace_total()
        if mechanism is not None and chunk < total_chunks - 1:
            now = float(core_time.max())
            to_fast, to_slow = _plan_migration(mechanism, hma, chunk, sub)
            if to_fast or to_slow:
                _sync_to_devices()
                hma.migrate_pairs(to_fast, to_slow, now)
                # In place: the kernel binding holds these pointers.
                chan_busy[:f_nc] = fast.channel_busy_until
                chan_busy[f_nc:] = slow.channel_busy_until
                busy_acc[0] = fast.stats.busy_time
                busy_acc[1] = slow.stats.busy_time

        if sink is not None:
            _sync_to_devices()
            sink.on_epoch(chunk, fast.stats.reads, fast.stats.writes,
                          slow.stats.reads, slow.stats.writes, window_ace)

    core_times = core_time.tolist()
    final = 0.0
    for c in range(num_cores):
        t = core_times[c]
        live_n = int(ring_len[c])
        if live_n:
            h = int(ring_head[c])
            live = [float(ring[c, (h + j) % ringcap]) for j in range(live_n)]
            last = max(live)
            if last > t:
                t = last
            core_times[c] = t
        if t > final:
            final = t

    restore_bank_state(fast, slow, bank_open.tolist(), bank_busy.tolist(),
                       bank_hits.tolist(), bank_misses.tolist(),
                       bank_conflicts.tolist())
    _sync_to_devices()
    result = _build_result(
        config, hma, trace, final, core_times,
        float(read_total[0]),
        int(dev_counts[0, 0] + dev_counts[0, 1]), residency, bounds,
        core_instructions=shared.core_instructions(num_cores),
    )
    _record_run(result, sink, len(trace), total_chunks)
    return result
