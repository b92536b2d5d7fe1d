"""Fault-tolerant execution primitives for the experiment harness.

The parallel runner (:mod:`repro.harness.runner`) fans multi-hour
figure runs across a process pool; this module supplies the machinery
that keeps those runs alive when individual pieces misbehave:

* :func:`resilient_map` — an order-preserving process-pool map with
  per-job timeouts, bounded retries (exponential backoff + jitter),
  ``BrokenProcessPool`` recovery (the pool is respawned and only
  unfinished jobs re-dispatched; repeated breakage degrades to a
  serial in-process loop), and a structured :class:`JobOutcome` per
  job instead of all-or-nothing results.
* :class:`RunManifest` — an append-only JSON journal of completed job
  keys and result locations, fsynced per entry, so an interrupted
  ``replicate`` / ``capacity_sweep`` / ``run_experiments`` resumes
  with ``--resume`` and reruns only unfinished work.
* :func:`checkpointed_map` — :func:`resilient_map` behind a manifest:
  completed keys are served from the journal, fresh completions are
  journaled the moment they finish.
* :func:`store_entry` / :func:`load_entry` — a checksummed on-disk
  entry format (JSON header with schema version + SHA-256 of the
  pickled payload).  Corrupt or stale entries are quarantined to a
  ``corrupt/`` sibling directory instead of crashing or silently
  poisoning a run.
* :class:`FaultPlan` — a deterministic fault-injection hook used by
  the chaos suite (``tests/harness/test_resilience.py``) to SIGKILL
  workers mid-job, hang jobs past their timeout, or raise in-job.

Environment knobs (CLI flags take precedence where both exist):

* ``REPRO_JOB_TIMEOUT`` — default per-job timeout in seconds
* ``REPRO_RETRIES`` — default retry budget per job
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import os
import pickle
import random
import re
import signal
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

#: Job outcome statuses.
OK = "ok"                # succeeded on the first attempt
RETRIED = "retried"      # succeeded after at least one failed attempt
TIMEOUT = "timeout"      # exhausted retries, last attempt timed out
FAILED = "failed"        # exhausted retries, last attempt raised/crashed
CACHED = "cached"        # served from a resume manifest, not re-executed

#: Schema version embedded in every checksummed on-disk entry.
ENTRY_FORMAT = 1
_ENTRY_MAGIC = "repro-entry"

#: Journal schema version for :class:`RunManifest`.
MANIFEST_VERSION = 1


# ---------------------------------------------------------------------------
# Environment knobs
# ---------------------------------------------------------------------------

def resolve_jobs(jobs: "int | None" = None) -> int:
    """Worker count via the ``jobs`` knob (argument > scoped override >
    ``REPRO_JOBS``), else CPU count."""
    from repro.config import knob_value

    jobs = knob_value("jobs", jobs)
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def resolve_job_timeout(timeout: "float | None" = None) -> "float | None":
    """Per-job timeout via the ``job_timeout`` knob (argument > scoped
    override > ``REPRO_JOB_TIMEOUT``), else off.

    Non-positive values disable the timeout.
    """
    from repro.config import knob_value

    timeout = knob_value("job_timeout", timeout)
    if timeout is not None and timeout <= 0:
        return None
    return timeout


def resolve_retries(retries: "int | None" = None) -> int:
    """Retry budget via the ``retries`` knob (argument > scoped
    override > ``REPRO_RETRIES``), else 0."""
    from repro.config import knob_value

    retries = knob_value("retries", retries)
    return max(0, int(retries or 0))


# ---------------------------------------------------------------------------
# Fault injection (chaos-test hook)
# ---------------------------------------------------------------------------

class FaultInjected(RuntimeError):
    """Raised (or simulated) by a :class:`FaultPlan` directive."""


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault schedule for chaos tests.

    ``plan`` maps a job key to a sequence of per-attempt directives,
    consumed in attempt order; attempts past the end of the sequence
    run clean.  Directives:

    * ``"kill"`` — SIGKILL the worker process mid-job (pool mode);
    * ``"fail"`` — raise :class:`FaultInjected` inside the job;
    * ``"hang:<seconds>"`` — sleep that long before running the job,
      so a configured timeout fires first.

    In serial (in-process) execution ``kill``/``hang`` are converted
    to :class:`FaultInjected` failures — killing or stalling the
    caller's own process would defeat the harness under test.
    """

    plan: "Mapping[str, Sequence[str]]" = field(default_factory=dict)

    def directive(self, key: str, attempt: int) -> "str | None":
        seq = self.plan.get(key)
        if seq is None or attempt >= len(seq):
            return None
        return seq[attempt] or None


def _apply_directive(directive: "str | None", in_process: bool) -> None:
    if not directive:
        return
    if directive == "fail":
        raise FaultInjected("injected failure")
    if directive == "kill":
        if in_process:
            raise FaultInjected("injected kill (serial mode)")
        os.kill(os.getpid(), signal.SIGKILL)
    elif directive.startswith("hang:"):
        if in_process:
            raise FaultInjected("injected hang (serial mode)")
        time.sleep(float(directive.split(":", 1)[1]))
    else:
        raise ValueError(f"unknown fault directive {directive!r}")


def _invoke(payload):
    """Worker-side wrapper: apply the fault directive, then the job."""
    func, item, directive = payload
    _apply_directive(directive, in_process=False)
    return func(item)


# ---------------------------------------------------------------------------
# Structured job outcomes
# ---------------------------------------------------------------------------

@dataclass
class JobOutcome:
    """Terminal record of one job's execution."""

    key: str
    index: int
    status: str              # ok | retried | timeout | failed | cached
    attempts: int
    result: object = None
    error: "str | None" = None

    @property
    def succeeded(self) -> bool:
        return self.status in (OK, RETRIED, CACHED)


@dataclass
class MapReport:
    """Per-job outcomes of one :func:`resilient_map` invocation."""

    outcomes: "list[JobOutcome]"
    pool_respawns: int = 0
    degraded_serial: bool = False

    @property
    def results(self) -> list:
        """Results in item order; ``None`` for failed jobs."""
        return [o.result for o in self.outcomes]

    @property
    def failed(self) -> "list[JobOutcome]":
        return [o for o in self.outcomes if not o.succeeded]

    @property
    def ok(self) -> bool:
        return not self.failed

    def outcome(self, key: str) -> JobOutcome:
        for o in self.outcomes:
            if o.key == key:
                return o
        raise KeyError(key)

    def summary(self) -> str:
        counts: "dict[str, int]" = {}
        for o in self.outcomes:
            counts[o.status] = counts.get(o.status, 0) + 1
        parts = [f"{counts[s]} {s}" for s in (OK, CACHED, RETRIED, TIMEOUT,
                                              FAILED) if s in counts]
        line = f"{len(self.outcomes)} jobs: " + ", ".join(parts)
        if self.pool_respawns:
            line += f" (pool respawned {self.pool_respawns}x)"
        if self.degraded_serial:
            line += " (degraded to serial execution)"
        return line

    def raise_if_failed(self) -> None:
        if self.failed:
            raise PartialResultError(self)


class PartialResultError(RuntimeError):
    """Some jobs failed after retries; completed results are preserved.

    ``.report`` holds the full :class:`MapReport` — callers can salvage
    every successful job instead of losing the whole run.
    """

    def __init__(self, report: MapReport):
        self.report = report
        failed = "; ".join(
            f"{o.key} [{o.status} after {o.attempts} attempt(s)]: {o.error}"
            for o in report.failed)
        done = len(report.outcomes) - len(report.failed)
        super().__init__(
            f"{len(report.failed)} of {len(report.outcomes)} jobs failed "
            f"({done} completed results preserved in .report): {failed}")


# ---------------------------------------------------------------------------
# Resilient process-pool map
# ---------------------------------------------------------------------------

class _Job:
    __slots__ = ("index", "key", "item", "attempts", "outcome", "deadline",
                 "not_before", "suspect")

    def __init__(self, index, key, item):
        self.index = index
        self.key = key
        self.item = item
        self.attempts = 0
        self.outcome: "JobOutcome | None" = None
        self.deadline: "float | None" = None
        self.not_before = 0.0
        self.suspect = False  # charged in a breakage: retry in isolation


def _jitter_rng() -> random.Random:
    """A backoff-jitter stream seeded from the unified ``seed`` knob.

    One private stream per :func:`resilient_map` invocation, seeded via
    ``repro.config`` rather than drawn from the process-global
    ``random`` module: chaos runs replay with identical backoff timing
    (same ``--seed`` / ``REPRO_SEED``), and the harness never perturbs
    the global stream that trace synthesis may be consuming.
    """
    from repro.config import knob_value

    return random.Random(int(knob_value("seed") or 0))


def _backoff_delay(backoff: float, attempts: int,
                   rng: random.Random) -> float:
    if backoff <= 0:
        return 0.0
    return min(backoff * 2 ** (attempts - 1), 30.0) * (1 + 0.25 * rng.random())


def _fork_context():
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return None


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcefully end a pool generation, hung workers included."""
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.kill()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def resilient_map(
    func: Callable,
    items: Iterable,
    *,
    jobs: "int | None" = None,
    timeout: "float | None" = None,
    retries: "int | None" = None,
    backoff: float = 0.5,
    keys: "Sequence[str] | None" = None,
    fault_plan: "FaultPlan | None" = None,
    max_pool_respawns: int = 4,
    on_result: "Callable[[JobOutcome], None] | None" = None,
    isolate: bool = False,
) -> MapReport:
    """Order-preserving map that survives crashes, hangs, and errors.

    Never raises for job-level failures: every job ends in a terminal
    :class:`JobOutcome` (``ok``/``retried``/``timeout``/``failed``)
    and the caller decides what a partial result means (see
    :meth:`MapReport.raise_if_failed`).

    * ``timeout`` bounds each attempt's execution (pool mode only —
      the serial fallback cannot preempt in-process work).  The
      attempt's clock starts at dispatch; submission is windowed to
      the worker count so queue wait never counts against a job.
    * ``retries`` failed or timed-out attempts are retried with
      exponential backoff (``backoff * 2**n``, 25% jitter).
    * A worker crash breaks the whole ``ProcessPoolExecutor``; the
      pool is respawned and only unfinished jobs re-dispatched.  The
      culprit is unknowable from the parent, so every in-flight job is
      charged one attempt (a poison job therefore still exhausts its
      budget) — but charged jobs retry one at a time in single-worker
      quarantine generations, so an innocent sibling pays at most one
      collateral attempt while a poison job can only break pools
      containing itself.  After ``max_pool_respawns`` teardowns the
      remaining jobs run serially in-process as a last resort.
    * ``on_result`` fires in the parent as each job *succeeds* —
      checkpointing hooks use it to journal results incrementally.
    * ``isolate`` forces the process-pool path even for a single job
      (which would otherwise run serially in-process): the job gets
      real crash/hang isolation, timeout preemption, and kill/respawn
      recovery — what the placement service needs when dispatching one
      session at a time.
    """
    items = list(items)
    if keys is None:
        keys = [str(i) for i in range(len(items))]
    else:
        keys = [str(k) for k in keys]
        if len(keys) != len(items):
            raise ValueError("keys and items length mismatch")
        if len(set(keys)) != len(keys):
            raise ValueError("job keys must be unique")
    timeout = resolve_job_timeout(timeout)
    retries = resolve_retries(retries)
    state = [_Job(i, keys[i], item) for i, item in enumerate(items)]

    jobs = min(resolve_jobs(jobs), max(1, len(items)))
    context = _fork_context()
    report = MapReport(outcomes=[])
    pending = deque(state)
    rng = _jitter_rng()
    if items and context is not None and (jobs > 1 or isolate):
        pending = _run_pool(pending, func, jobs, context, timeout, retries,
                            backoff, fault_plan, max_pool_respawns, report,
                            on_result, rng)
        if pending:
            report.degraded_serial = True
    _run_serial(pending, func, retries, backoff, fault_plan, report,
                on_result, rng)
    report.outcomes = sorted((j.outcome for j in state),
                             key=lambda o: o.index)
    return report


def _finish(job: _Job, report: MapReport, status: str, result=None,
            error=None, on_result=None) -> None:
    job.outcome = JobOutcome(key=job.key, index=job.index, status=status,
                             attempts=job.attempts, result=result,
                             error=error)
    if on_result is not None and job.outcome.succeeded:
        on_result(job.outcome)


def _charge(job: _Job, error: str, retries: int, backoff: float,
            report: MapReport, timed_out: bool, on_result, rng) -> bool:
    """Record a failed attempt; return True if the job may retry."""
    job.attempts += 1
    if job.attempts > retries:
        _finish(job, report, TIMEOUT if timed_out else FAILED, error=error,
                on_result=on_result)
        return False
    job.not_before = time.monotonic() + _backoff_delay(backoff, job.attempts,
                                                       rng)
    return True


def _run_serial(pending, func, retries, backoff, fault_plan, report,
                on_result, rng) -> None:
    """In-process fallback: no isolation, no timeout preemption."""
    for job in pending:
        while job.outcome is None:
            directive = (fault_plan.directive(job.key, job.attempts)
                         if fault_plan else None)
            try:
                _apply_directive(directive, in_process=True)
                result = func(job.item)
            except Exception as exc:  # noqa: BLE001 — outcome, not crash
                if _charge(job, repr(exc), retries, backoff, report,
                           timed_out=False, on_result=on_result, rng=rng):
                    delay = job.not_before - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                continue
            status = OK if job.attempts == 0 else RETRIED
            job.attempts += 1
            _finish(job, report, status, result=result, on_result=on_result)


def _run_pool(pending, func, jobs, context, timeout, retries, backoff,
              fault_plan, max_pool_respawns, report, on_result, rng):
    """Pool generations until all jobs are terminal or respawns run out.

    Returns jobs still pending (non-empty only when the respawn budget
    is exhausted — the caller degrades them to serial execution).

    Jobs charged in a breakage (crash or teardown after a hang) become
    *suspects* and retry one at a time in single-worker quarantine
    generations before any other work is dispatched.  A poison job can
    therefore only break pools containing itself: an innocent sibling
    pays at most one collateral attempt — for the mixed generation in
    which the first breakage happened — and its quarantine rerun
    settles it for good.
    """
    while pending:
        if report.pool_respawns > max_pool_respawns:
            return pending
        culprit = next((j for j in pending if j.suspect), None)
        if culprit is not None:
            queue = deque([culprit])
            rest = deque(j for j in pending if j is not culprit)
            window = 1
        else:
            queue, rest = pending, deque()
            window = jobs
        pool = ProcessPoolExecutor(max_workers=min(window, len(queue)),
                                   mp_context=context)
        broken = False
        inflight: "dict[object, _Job]" = {}
        try:
            while queue or inflight:
                now = time.monotonic()
                # Windowed submission: at most `window` in flight, so
                # the timeout clock starts at true dispatch, not enqueue.
                while queue and len(inflight) < window:
                    job = queue[0]
                    if job.not_before > now:
                        break
                    directive = (fault_plan.directive(job.key, job.attempts)
                                 if fault_plan else None)
                    future = pool.submit(_invoke, (func, job.item, directive))
                    # Dequeue only once submitted: a submit() that raises
                    # BrokenProcessPool leaves the job queued for the next
                    # generation instead of dropping it.
                    queue.popleft()
                    job.deadline = (now + timeout) if timeout else None
                    inflight[future] = job
                if not inflight:
                    # Everything eligible is backing off; sleep it out.
                    time.sleep(max(0.0, min(j.not_before for j in queue)
                                   - time.monotonic()))
                    continue
                tick = _next_tick(inflight, queue)
                done, _ = wait(inflight, timeout=tick,
                               return_when=FIRST_COMPLETED)
                for future in done:
                    job = inflight.pop(future)
                    exc = future.exception()
                    if exc is None:
                        status = OK if job.attempts == 0 else RETRIED
                        job.attempts += 1
                        _finish(job, report, status, result=future.result(),
                                on_result=on_result)
                    elif isinstance(exc, BrokenProcessPool):
                        broken = True
                        job.suspect = True
                        if _charge(job, "worker process died (pool broken)",
                                   retries, backoff, report, timed_out=False,
                                   on_result=on_result, rng=rng):
                            queue.append(job)
                    else:
                        if _charge(job, repr(exc), retries, backoff, report,
                                   timed_out=False, on_result=on_result,
                                   rng=rng):
                            queue.append(job)
                if broken:
                    _drain_broken(inflight, queue, retries, backoff,
                                  report, on_result, rng)
                    break
                expired = [f for f, j in inflight.items()
                           if j.deadline is not None
                           and time.monotonic() >= j.deadline]
                if expired:
                    # A hung worker cannot be cancelled individually:
                    # tear the generation down, charge only the expired
                    # jobs (quarantining their reruns), and re-dispatch
                    # the innocent in-flight ones uncharged.
                    for future, job in inflight.items():
                        if future in expired:
                            job.suspect = True
                            if _charge(job, f"timed out after {timeout}s",
                                       retries, backoff, report,
                                       timed_out=True, on_result=on_result,
                                       rng=rng):
                                queue.append(job)
                        else:
                            queue.append(job)
                    inflight.clear()
                    broken = True
                    break
        except BrokenProcessPool:
            # Breakage surfaced through submit() rather than a future.
            broken = True
            _drain_broken(inflight, queue, retries, backoff, report,
                          on_result, rng)
        finally:
            if broken:
                report.pool_respawns += 1
                _kill_pool(pool)
            else:
                pool.shutdown(wait=True)
        queue.extend(rest)
        pending = queue
    return pending


def _drain_broken(inflight, pending, retries, backoff, report,
                  on_result, rng) -> None:
    """Settle in-flight jobs after a pool breakage.

    Jobs whose future completed cleanly before the breakage keep their
    result; the rest are charged one attempt (the culprit is
    unknowable from the parent) and re-dispatched if budget remains —
    in quarantine, so only the true culprit can be charged twice.
    """
    for future, job in inflight.items():
        if future.done() and future.exception() is None:
            status = OK if job.attempts == 0 else RETRIED
            job.attempts += 1
            _finish(job, report, status, result=future.result(),
                    on_result=on_result)
        else:
            job.suspect = True
            if _charge(job, "worker process died (pool broken)", retries,
                       backoff, report, timed_out=False, on_result=on_result,
                       rng=rng):
                pending.append(job)
    inflight.clear()


def _next_tick(inflight, pending) -> float:
    """Sleep horizon: nearest job deadline or backoff expiry, capped."""
    now = time.monotonic()
    horizon = 0.25
    marks = [j.deadline for j in inflight.values() if j.deadline is not None]
    marks += [j.not_before for j in pending if j.not_before > now]
    if marks:
        horizon = min(horizon, max(0.0, min(marks) - now))
    return max(0.01, horizon)


# ---------------------------------------------------------------------------
# Checksummed on-disk entries + quarantine
# ---------------------------------------------------------------------------

class CacheIntegrityError(Exception):
    """An on-disk entry is corrupt, truncated, or from another schema."""


def dumps_entry(obj) -> bytes:
    """Serialise ``obj`` with an integrity header.

    Layout: one JSON header line (magic, schema version, payload length,
    SHA-256 of the payload) followed by the pickled payload.  A bit flip
    anywhere in the payload fails the checksum; truncation fails the
    length check; header damage fails the JSON/magic check.
    """
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps({
        "magic": _ENTRY_MAGIC,
        "format": ENTRY_FORMAT,
        "length": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }, sort_keys=True).encode("ascii")
    return header + b"\n" + payload


def loads_entry(blob: bytes):
    """Inverse of :func:`dumps_entry`; raises :class:`CacheIntegrityError`."""
    head, sep, payload = blob.partition(b"\n")
    if not sep:
        raise CacheIntegrityError("missing entry header")
    try:
        header = json.loads(head.decode("ascii"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CacheIntegrityError(f"unreadable entry header: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != _ENTRY_MAGIC:
        raise CacheIntegrityError("bad entry magic")
    if header.get("format") != ENTRY_FORMAT:
        raise CacheIntegrityError(
            f"entry schema v{header.get('format')} != v{ENTRY_FORMAT}")
    if header.get("length") != len(payload):
        raise CacheIntegrityError(
            f"payload truncated: {len(payload)} != {header.get('length')}")
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise CacheIntegrityError("payload checksum mismatch")
    try:
        return pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 — any unpickling defect
        raise CacheIntegrityError(f"payload unpickling failed: {exc}") from exc


def store_entry(path: str, obj) -> None:
    """Atomically write a checksummed entry (racing writers both win)."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(dumps_entry(obj))
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def quarantine_entry(path: str, reason: str = "") -> "str | None":
    """Move a corrupt entry aside so it never poisons another run."""
    qdir = os.path.join(os.path.dirname(path) or ".", "corrupt")
    try:
        os.makedirs(qdir, exist_ok=True)
        dest = os.path.join(qdir, os.path.basename(path))
        os.replace(path, dest)
        return dest
    except OSError:
        try:
            os.unlink(path)
        except OSError:
            pass
        return None


def load_entry(path: str, quarantine: bool = True):
    """Load a checksummed entry; quarantine and re-raise on corruption.

    Raises :class:`FileNotFoundError` for a missing entry and
    :class:`CacheIntegrityError` for a damaged one (after moving the
    file to ``<dir>/corrupt/`` when ``quarantine`` is set).
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return loads_entry(blob)
    except CacheIntegrityError:
        if quarantine:
            quarantine_entry(path)
        raise


# ---------------------------------------------------------------------------
# Run manifest: checkpoint / resume journal
# ---------------------------------------------------------------------------

def run_key(**params) -> str:
    """Stable digest of the run parameters a manifest is valid for."""
    blob = json.dumps(params, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _safe_filename(key: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", key)[:48]
    return f"{slug}-{hashlib.sha256(key.encode()).hexdigest()[:8]}"


class RunManifest:
    """Append-only JSON journal of a run's completed jobs.

    One line per record, fsynced on write, so a SIGKILL at any point
    loses at most the in-progress line — which the loader skips as
    truncated JSON.  Record types:

    * ``meta`` — run parameters digest; a resume against a manifest
      written with different parameters starts fresh instead of mixing
      incompatible results.
    * ``done`` — a completed job key plus its result, inline JSON
      (``value``) or a checksummed pickle path (``path``).
    * ``outcome`` — execution audit trail (status + attempts) for every
      job actually run, so a resumed run can prove it skipped finished
      work.
    """

    def __init__(self, directory: str, run_key: str = "",
                 resume: bool = False) -> None:
        self.directory = directory
        self.path = os.path.join(directory, "manifest.jsonl")
        self.run_key = run_key
        os.makedirs(directory, exist_ok=True)
        self._completed: "dict[str, dict]" = {}
        loaded = self._load() if resume else None
        if loaded is None:
            if os.path.exists(self.path):
                os.replace(self.path, self.path + ".old")
            self._append({"type": "meta", "version": MANIFEST_VERSION,
                          "run_key": run_key})
        else:
            self._completed = loaded
            if not os.path.exists(self.path):
                self._append({"type": "meta", "version": MANIFEST_VERSION,
                              "run_key": run_key})

    # -- journal I/O ---------------------------------------------------

    def _load(self) -> "dict[str, dict] | None":
        """Completed records, or None when the journal is unusable."""
        try:
            with open(self.path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError:
            return None
        entries: "dict[str, dict]" = {}
        saw_meta = False
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # truncated tail from a mid-write kill
            if not isinstance(record, dict):
                continue
            kind = record.get("type")
            if kind == "meta":
                if record.get("run_key") != self.run_key:
                    return None  # parameters changed: start fresh
                saw_meta = True
            elif kind == "done" and isinstance(record.get("key"), str):
                entries[record["key"]] = record
        return entries if saw_meta else None

    def _append(self, record: dict) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    # -- recording -----------------------------------------------------

    def record_value(self, key: str, value) -> None:
        """Journal an inline JSON-serialisable result."""
        record = {"type": "done", "key": key, "value": value}
        self._append(record)
        self._completed[key] = record

    def record_result(self, key: str, obj) -> None:
        """Journal a result stored as a checksummed pickle on disk."""
        rel = os.path.join("results", _safe_filename(key) + ".pkl")
        store_entry(os.path.join(self.directory, rel), obj)
        record = {"type": "done", "key": key, "path": rel}
        self._append(record)
        self._completed[key] = record

    def record_outcome(self, outcome: JobOutcome) -> None:
        """Journal an execution audit record (no result payload)."""
        self._append({"type": "outcome", "key": outcome.key,
                      "status": outcome.status,
                      "attempts": outcome.attempts,
                      "error": outcome.error})

    # -- queries -------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._completed

    def completed_keys(self) -> "set[str]":
        return set(self._completed)

    def result(self, key: str):
        """Load a journaled result; raises on a damaged result file."""
        record = self._completed[key]
        if "path" in record:
            return load_entry(os.path.join(self.directory, record["path"]))
        return record["value"]

    def forget(self, key: str) -> None:
        """Drop a key (e.g. its result file went bad) so it reruns."""
        self._completed.pop(key, None)


# ---------------------------------------------------------------------------
# Checkpointed map
# ---------------------------------------------------------------------------

def checkpointed_map(
    func: Callable,
    items: Sequence,
    *,
    keys: "Sequence[str]",
    manifest: "RunManifest | None",
    store: str = "pickle",
    jobs: "int | None" = None,
    timeout: "float | None" = None,
    retries: "int | None" = None,
    backoff: float = 0.5,
    fault_plan: "FaultPlan | None" = None,
) -> MapReport:
    """:func:`resilient_map` with journaled results and resume.

    Keys already completed in ``manifest`` are served from the journal
    (outcome status ``cached``) without re-executing; fresh completions
    are journaled the moment they finish, so a kill at any point loses
    at most the jobs still in flight.  ``store`` selects the result
    encoding: ``"json"`` inlines the value into the journal,
    ``"pickle"`` writes a checksummed sidecar file.  A journaled result
    that fails its integrity check is quarantined and the job simply
    reruns.
    """
    if store not in ("json", "pickle"):
        raise ValueError("store must be 'json' or 'pickle'")
    keys = [str(k) for k in keys]
    if manifest is None:
        return resilient_map(func, items, jobs=jobs, timeout=timeout,
                             retries=retries, backoff=backoff, keys=keys,
                             fault_plan=fault_plan)
    cached: "dict[int, JobOutcome]" = {}
    todo: "list[int]" = []
    for i, key in enumerate(keys):
        if key in manifest:
            try:
                value = manifest.result(key)
            except (OSError, CacheIntegrityError):
                manifest.forget(key)
                todo.append(i)
                continue
            cached[i] = JobOutcome(key=key, index=i, status=CACHED,
                                   attempts=0, result=value)
        else:
            todo.append(i)

    def journal(outcome: JobOutcome) -> None:
        if store == "json":
            manifest.record_value(outcome.key, outcome.result)
        else:
            manifest.record_result(outcome.key, outcome.result)

    sub = resilient_map(
        func, [items[i] for i in todo], jobs=jobs, timeout=timeout,
        retries=retries, backoff=backoff, keys=[keys[i] for i in todo],
        fault_plan=fault_plan, on_result=journal,
    )
    for outcome in sub.outcomes:
        manifest.record_outcome(outcome)
    merged: "list[JobOutcome]" = []
    by_key = {o.key: o for o in sub.outcomes}
    for i, key in enumerate(keys):
        if i in cached:
            merged.append(cached[i])
        else:
            outcome = by_key[key]
            outcome.index = i
            merged.append(outcome)
    return MapReport(outcomes=merged, pool_respawns=sub.pool_respawns,
                     degraded_serial=sub.degraded_serial)
