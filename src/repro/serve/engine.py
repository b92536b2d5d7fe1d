"""Per-session compute: assemble the streamed trace and replay it.

:func:`run_session` is the service's re-entrant core — pure function
of (spec, trace, times, shared model state), no module-level mutable
state — so any number of worker processes can run sessions
concurrently and a retried worker produces the identical result.  It
is also the *batch oracle*: the chaos harness and the ``serve``
differential-fuzzer family call it directly on the same assembled
trace and require the daemon's streamed answer to match bit for bit.

:func:`session_job` is the picklable worker entry point dispatched
through :func:`repro.harness.resilience.resilient_map`: it re-reads
the session's chunk checkpoints from disk (so a SIGKILL'd worker's
replacement resumes from durable state, not from the dead process's
memory) and resolves the shared model payload out of the attach-cached
shared-memory segment.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.serve.protocol import SessionSpec
from repro.trace.record import Trace


class SessionError(Exception):
    """A session's stream cannot be simulated (bad footprint, empty)."""


# ---------------------------------------------------------------------------
# Canonical replay digest
# ---------------------------------------------------------------------------


def replay_digest(result) -> dict:
    """JSON-native, exactly-comparable form of a ReplayResult.

    Same fields as the differential fuzzer's digest, but lists instead
    of tuples so the digest survives a JSON round-trip unchanged —
    ``digest == json.loads(json.dumps(digest))`` — which is what lets
    the socket transport carry it without loosening the bit-exactness
    guarantee (JSON floats round-trip float64 exactly).
    """
    return {
        "instructions": int(result.instructions),
        "requests": int(result.requests),
        "total_seconds": float(result.total_seconds),
        "ipc": float(result.ipc),
        "mean_read_latency": float(result.mean_read_latency),
        "per_core_ipc": [float(x) for x in result.per_core_ipc],
        "migrations": [result.migrations.migrations_to_fast,
                       result.migrations.migrations_to_slow,
                       float(result.migrations.migration_seconds)],
        "fast_residency": [sorted(int(p) for p in resident)
                           for resident in result.fast_residency],
        "interval_boundaries": [int(b)
                                for b in result.interval_boundaries],
        "devices": [[d.name, int(d.reads), int(d.writes),
                     float(d.busy_time)]
                    for d in result.device_utilisation],
    }


def digest_sha(digest: dict) -> str:
    """Stable fingerprint of a canonical digest."""
    blob = json.dumps(digest, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass
class SessionResult:
    """The terminal payload of one completed session."""

    tenant: str
    scheme: str
    requests: int
    ipc: float
    ser: float
    migrations: int
    mean_read_latency: float
    digest: dict = field(default_factory=dict)
    sha: str = ""

    def metrics(self) -> "dict[str, float]":
        """Scalar metrics for the session ledger."""
        return {
            "requests": float(self.requests),
            "ipc": self.ipc,
            "ser": self.ser,
            "migrations": float(self.migrations),
            "mean_read_latency": self.mean_read_latency,
        }

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant, "scheme": self.scheme,
            "requests": self.requests, "ipc": self.ipc, "ser": self.ser,
            "migrations": self.migrations,
            "mean_read_latency": self.mean_read_latency,
            "digest": self.digest, "sha": self.sha,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionResult":
        return cls(**{k: data[k] for k in (
            "tenant", "scheme", "requests", "ipc", "ser", "migrations",
            "mean_read_latency", "digest", "sha")})


# ---------------------------------------------------------------------------
# Session system construction
# ---------------------------------------------------------------------------


def build_session_config(spec: SessionSpec):
    """The tiny two-tier system a session's spec describes."""
    from repro.config import (
        CacheConfig,
        CoreConfig,
        DramTiming,
        HierarchyConfig,
        MemoryConfig,
        PAGE_SIZE,
        SystemConfig,
    )

    def memory(name, pages, channels, ecc, fast):
        timing = (DramTiming(tCL=5, tRCD=5, tRP=5, burst_cycles=2)
                  if fast else DramTiming())
        return MemoryConfig(
            name=name,
            capacity_bytes=pages * PAGE_SIZE,
            bus_frequency_hz=500e6 if fast else 800e6,
            bus_width_bits=128 if fast else 64,
            channels=channels,
            ecc=ecc,
            timing=timing,
            fit_multiplier=7.0 if fast else 1.0,
        )

    return SystemConfig(
        num_cores=spec.num_cores,
        core=CoreConfig(),
        caches=HierarchyConfig(
            l1i=CacheConfig(size_bytes=1024, associativity=2),
            l1d=CacheConfig(size_bytes=1024, associativity=2),
            l2=CacheConfig(size_bytes=8192, associativity=4),
        ),
        fast_memory=memory("HBM", spec.fast_pages, 4, "secded", True),
        slow_memory=memory("DDR3", spec.slow_pages, 2, "chipkill", False),
    )


def make_mechanism(name: "str | None"):
    from repro.core.migration import (
        CrossCountersMigration,
        OracleRiskMigration,
        PerformanceFocusedMigration,
        ReliabilityAwareFCMigration,
        ToleranceTieredMigration,
    )

    factories = {
        "perf-migration": PerformanceFocusedMigration,
        "fc-migration": ReliabilityAwareFCMigration,
        "cc-migration": CrossCountersMigration,
        "oracle-risk-migration": OracleRiskMigration,
        "tolerance-tiered": ToleranceTieredMigration,
    }
    if name is None:
        return None
    return factories[name]()


# ---------------------------------------------------------------------------
# The re-entrant session replay
# ---------------------------------------------------------------------------


def run_session(
    spec: SessionSpec,
    trace: Trace,
    times: np.ndarray,
    model: "dict | None" = None,
) -> SessionResult:
    """Replay one session's assembled trace; the batch oracle.

    ``model`` is the shared read-only model state for the spec's
    config (see :mod:`repro.serve.state`); when ``None`` the SER FIT
    rates are recomputed analytically — bit-identical either way,
    since the analytic fault simulator is deterministic.
    """
    from repro.avf.page import IntervalProfileBuilder, profile_trace
    from repro.core.placement import PerformanceFocusedPlacement
    from repro.dram.hma import HeterogeneousMemory
    from repro.faults.ser import SerModel
    from repro.sim.engine import replay

    if len(trace) == 0:
        raise SessionError("session stream holds no accesses")
    config = build_session_config(spec)
    footprint = int(trace.pages.max()) + 1
    if footprint > spec.slow_pages:
        raise SessionError(
            f"footprint of {footprint} pages exceeds the session's "
            f"{spec.slow_pages}-page slow tier")

    stats = profile_trace(trace, times)
    if model is not None:
        ser_model = SerModel(fit_fast_per_page=model["fit_fast_per_page"],
                             fit_slow_per_page=model["fit_slow_per_page"])
    else:
        ser_model = SerModel.for_system(config)

    capacity = config.fast_memory.num_pages
    fast_pages = PerformanceFocusedPlacement().select_fast_pages(
        stats, capacity)
    hma = HeterogeneousMemory(config)
    hma.install_placement(fast_pages, stats.pages)
    mechanism = make_mechanism(spec.mechanism)
    result = replay(
        config, hma, trace, times,
        mechanism=mechanism,
        num_intervals=spec.num_intervals if mechanism else 1,
    )
    if mechanism is not None:
        pairs = IntervalProfileBuilder(trace, times).intervals_arrays(
            result.interval_boundaries)
        ser = ser_model.ser_dynamic_arrays(pairs, result.fast_residency)
    else:
        ser = ser_model.ser_static(stats, fast_pages)
    digest = replay_digest(result)
    return SessionResult(
        tenant=spec.tenant,
        scheme=spec.mechanism or "static",
        requests=len(trace),
        ipc=float(result.ipc),
        ser=float(ser),
        migrations=hma.migration_stats.total,
        mean_read_latency=float(result.mean_read_latency),
        digest=digest,
        sha=digest_sha(digest),
    )


# ---------------------------------------------------------------------------
# Worker entry point
# ---------------------------------------------------------------------------


def session_job(payload) -> SessionResult:
    """Run one committed session inside a pool worker.

    ``payload`` is ``(session_dir, spec_dict, model_handle)``.  The
    trace is reassembled from the session's on-disk chunk checkpoints
    — never from daemon memory — so a respawned worker after a SIGKILL
    re-attaches to exactly the state the ingest path acknowledged.
    ``model_handle`` is whatever :func:`repro.harness.shm.
    share_payload` returned (a shared-memory handle or the plain
    payload); resolution is attach-cached per worker process.
    """
    from repro.harness.shm import resolve_payload
    from repro.serve.session import load_session_trace

    session_dir, spec_dict, model_handle = payload
    spec = SessionSpec.from_dict(spec_dict)
    trace, times = load_session_trace(session_dir)
    model = resolve_payload(model_handle)
    return run_session(spec, trace, times, model=model)
