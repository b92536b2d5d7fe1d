"""Wire protocol of the placement service: newline-JSON messages.

Every request and response is one JSON object per line.  The same
message dictionaries flow through both transports — the asyncio unix
socket (:mod:`repro.serve.socket`) and the in-process
:class:`~repro.serve.client.ServiceClient` — so a test driving the
client exercises exactly the parsing surface a remote tenant hits.

Requests (``op`` selects the handler)::

    {"op": "open",   "tenant": "t0", "spec": {...}}
    {"op": "append", "session": "t0-1", "seq": 0,
     "core": [...], "address": [...], "write": [...],
     "gap": [...], "times": [...]}
    {"op": "commit", "session": "t0-1"}
    {"op": "poll",   "session": "t0-1"}
    {"op": "stats"}

Responses always carry ``ok``.  Failure responses carry ``error`` (a
stable machine-readable code) and ``detail``; retryable ones add
``retry_after`` seconds — the *only* backpressure signal the service
ever emits: it never buffers without bound on a client's behalf.

Malformed input is a poison signal, not an operational error: a
request that fails validation quarantines the session it names (the
stream can no longer be trusted), while garbage that names no session
costs only an error response (or, on the socket, the connection).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from repro.trace.record import Trace

#: Protocol schema version, embedded in ``open`` responses.
PROTOCOL_VERSION = 1

#: Migration mechanisms a session may request (None = static placement).
SESSION_MECHANISMS = (None, "perf-migration", "fc-migration",
                      "cc-migration", "oracle-risk-migration",
                      "tolerance-tiered")

#: Stable error codes carried in failure responses.
ERR_PROTOCOL = "protocol"        # malformed message: session poisoned
ERR_ADMISSION = "admission"      # session shed at open (retryable)
ERR_RETRY = "retry"              # backpressure (retryable)
ERR_UNKNOWN_SESSION = "unknown-session"
ERR_STATE = "state"              # op illegal in the session's state
ERR_TOO_LARGE = "too-large"      # per-session hard cap exceeded
ERR_DRAINING = "draining"        # daemon is shutting down
ERR_INTERNAL = "internal"


class ProtocolError(Exception):
    """A request failed validation (malformed, out of spec bounds)."""


class RetryAfter(Exception):
    """Backpressure: retry the same request after ``retry_after`` s."""

    def __init__(self, retry_after: float, reason: str = "") -> None:
        super().__init__(reason or f"retry after {retry_after:.3f}s")
        self.retry_after = float(retry_after)
        self.reason = reason


# ---------------------------------------------------------------------------
# Session specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionSpec:
    """What a tenant asks the service to simulate for one stream.

    The geometry mirrors the differential fuzzer's scaled-down systems
    (:func:`repro.verify.cases.build_config`): a tiny two-tier HMA
    whose fast tier holds ``fast_pages`` 4 KB pages.  The session's
    trace must fit ``slow_pages`` (the DDR tier must be able to hold
    the whole footprint, since migration may demote every page).
    """

    tenant: str
    num_cores: int = 4
    fast_pages: int = 16
    slow_pages: int = 256
    mechanism: "str | None" = "fc-migration"
    num_intervals: int = 4

    def validate(self) -> None:
        if not isinstance(self.tenant, str) or not self.tenant \
                or len(self.tenant) > 64:
            raise ProtocolError("tenant must be a non-empty string (<= 64)")
        for name, value, lo, hi in (
                ("num_cores", self.num_cores, 1, 64),
                ("fast_pages", self.fast_pages, 1, 1 << 20),
                ("slow_pages", self.slow_pages, 1, 1 << 24),
                ("num_intervals", self.num_intervals, 1, 4096)):
            if not isinstance(value, int) or isinstance(value, bool) \
                    or not lo <= value <= hi:
                raise ProtocolError(
                    f"{name} must be an int in [{lo}, {hi}], "
                    f"got {value!r}")
        if self.mechanism not in SESSION_MECHANISMS:
            raise ProtocolError(
                f"mechanism must be one of {SESSION_MECHANISMS}, "
                f"got {self.mechanism!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data) -> "SessionSpec":
        if not isinstance(data, dict):
            raise ProtocolError("spec must be an object")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ProtocolError(f"unknown spec fields {sorted(unknown)}")
        try:
            spec = cls(**data)
        except TypeError as exc:
            raise ProtocolError(f"bad spec: {exc}") from exc
        spec.validate()
        return spec


# ---------------------------------------------------------------------------
# Chunk payloads
# ---------------------------------------------------------------------------


def chunk_to_payload(trace: Trace, times: np.ndarray) -> dict:
    """The wire fields of one trace chunk (JSON-native lists)."""
    return {
        "core": [int(c) for c in trace.core],
        "address": [int(a) for a in trace.address],
        "write": [bool(w) for w in trace.is_write],
        "gap": [int(g) for g in trace.gap],
        "times": [float(t) for t in times],
    }


def chunk_from_payload(msg: dict, num_cores: int) -> "tuple[Trace, np.ndarray]":
    """Validate and decode one chunk; raises :class:`ProtocolError`.

    JSON floats round-trip ``float64`` exactly and JSON ints are
    arbitrary precision, so a decoded chunk is bit-identical to the
    arrays the client serialised — the foundation of the service's
    streamed-equals-batch guarantee.
    """
    fields = {}
    for key in ("core", "address", "write", "gap", "times"):
        value = msg.get(key)
        if not isinstance(value, list):
            raise ProtocolError(f"chunk field {key!r} must be a list")
        fields[key] = value
    n = len(fields["address"])
    if n == 0:
        raise ProtocolError("empty chunk")
    if any(len(v) != n for v in fields.values()):
        raise ProtocolError("chunk arrays must have equal length")

    def ints(key, lo, hi):
        out = fields[key]
        for v in out:
            if not isinstance(v, int) or isinstance(v, bool) \
                    or not lo <= v <= hi:
                raise ProtocolError(
                    f"chunk field {key!r} must hold ints in "
                    f"[{lo}, {hi}], got {v!r}")
        return out

    core = ints("core", 0, num_cores - 1)
    address = ints("address", 0, 2**63 - 1)
    gap = ints("gap", 0, 2**32 - 1)
    for v in fields["write"]:
        if not isinstance(v, bool):
            raise ProtocolError("chunk field 'write' must hold booleans")
    times = fields["times"]
    prev = None
    for v in times:
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not 0.0 <= v < 1.0:
            raise ProtocolError(
                "chunk field 'times' must hold floats in [0, 1), "
                f"got {v!r}")
        if prev is not None and v < prev:
            raise ProtocolError("chunk 'times' must be non-decreasing")
        prev = v
    trace = Trace(
        core=np.array(core, dtype=np.uint16),
        address=np.array(address, dtype=np.uint64),
        is_write=np.array(fields["write"], dtype=bool),
        gap=np.array(gap, dtype=np.uint32),
    )
    return trace, np.array(times, dtype=np.float64)


# ---------------------------------------------------------------------------
# Line framing
# ---------------------------------------------------------------------------


#: Upper bound on the wire bytes one access adds to an ``append`` line:
#: its five list items (core, address, write, gap, times; at most ~70
#: characters of JSON with separators), with headroom.
MAX_ACCESS_BYTES = 96
#: Headroom for an ``append`` line's envelope (op, session, seq, keys).
LINE_ENVELOPE_BYTES = 64 * 1024


def line_limit(max_chunk_accesses: int) -> int:
    """The longest request line a daemon accepts: room for the largest
    legal ``append`` (``max_chunk_accesses`` accesses) and its envelope."""
    return max_chunk_accesses * MAX_ACCESS_BYTES + LINE_ENVELOPE_BYTES


def encode_message(msg: dict) -> bytes:
    """One protocol message as a newline-terminated JSON line."""
    return (json.dumps(msg, sort_keys=True) + "\n").encode("utf-8")


def decode_line(line: "bytes | str") -> dict:
    """Parse one protocol line; raises :class:`ProtocolError`."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"undecodable line: {exc}") from exc
    try:
        msg = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"bad JSON: {exc}") from exc
    if not isinstance(msg, dict):
        raise ProtocolError("message must be a JSON object")
    return msg


def error_response(code: str, detail: str = "",
                   retry_after: "float | None" = None) -> dict:
    resp = {"ok": False, "error": code, "detail": detail}
    if retry_after is not None:
        resp["retry_after"] = float(retry_after)
    return resp
