"""Parallel experiment fan-out and on-disk workload caching.

The expensive part of every figure run is :func:`prepare_workload`:
trace synthesis, flat-memory profiling, and the all-DDR baseline
replay.  All of it is deterministic in ``(workload, scale,
accesses_per_core, seed, config)``, so this module adds two
orthogonal accelerators used by ``experiments.py``, ``sweeps.py``,
``replication.py``, and the ``benchmarks/`` harness:

* :func:`prepare_workload_cached` — a cache of checksummed pickles on
  disk keyed by a digest of the preparation inputs (including a hash
  of the system config), so repeated figure runs skip synthesis
  entirely.  Writes are atomic (`os.replace`), so concurrent workers
  racing on the same key are safe; every entry embeds a schema
  version and SHA-256 of its payload, and a corrupt, truncated, or
  stale entry is quarantined to ``<cache>/corrupt/`` and recomputed
  (see :mod:`repro.harness.resilience`).
* :func:`parallel_map` — an order-preserving ``ProcessPoolExecutor``
  map with a ``fork`` start method, so worker functions defined in
  non-importable modules (pytest benchmark files) still unpickle in
  the children.  ``jobs <= 1`` or an unavailable ``fork`` degrades to
  a serial in-process loop with identical semantics.  Built on
  :func:`repro.harness.resilience.resilient_map`, it optionally
  enforces per-job timeouts and bounded retries, survives worker
  crashes (``BrokenProcessPool``), and can return the structured
  per-job outcome report instead of raising.

On top of those, :func:`prefetch_workloads` warms a cache directory
for a whole workload list across cores, and :func:`run_experiments`
fans complete experiment ids (``fig05``, ``table2``, ...) out across
processes with optional checkpoint/resume through a
:class:`~repro.harness.resilience.RunManifest`.

Fan-outs whose job items all carry the same prepared workloads (the
capacity sweep is the canonical case) hand the arrays to workers
zero-copy through :mod:`repro.harness.shm` (re-exported here):
:func:`share_payload` hoists them into one shared-memory segment and
:func:`resolve_payload` maps it read-only in each worker, gated by the
``shm_handoff`` knob (``REPRO_SHM_HANDOFF``) with a transparent
pickle fallback.

Environment knobs (CLI flags take precedence where both exist):

* ``REPRO_JOBS`` — default worker count for ``parallel_map``
* ``REPRO_CACHE_DIR`` — default on-disk cache directory
* ``REPRO_JOB_TIMEOUT`` — default per-job timeout in seconds
* ``REPRO_RETRIES`` — default retry budget per job
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Callable, Iterable, Sequence

from repro.config import scaled_config
from repro.harness.resilience import (
    CacheIntegrityError,
    FaultPlan,
    MapReport,
    PartialResultError,
    RunManifest,
    checkpointed_map,
    load_entry,
    quarantine_entry,
    resilient_map,
    resolve_job_timeout,
    resolve_jobs,
    resolve_retries,
    run_key,
    store_entry,
)
from repro.harness.shm import (
    release_payload,
    resolve_payload,
    share_payload,
    shared_handoff,
)
from repro.sim.system import DEFAULT_SCALE, PreparedWorkload, prepare_workload

__all__ = [
    "CACHE_VERSION", "FaultPlan", "MapReport", "PartialResultError",
    "parallel_map", "prefetch_workloads", "prepare_workload_cached",
    "release_payload", "resolve_cache_dir", "resolve_job_timeout",
    "resolve_jobs", "resolve_payload", "resolve_retries",
    "run_experiments", "share_payload", "shared_handoff",
    "workload_cache_key",
]

#: Bump to invalidate every on-disk entry when the pickle layout changes.
#: v2: entries carry an integrity header (schema version + checksum).
#: v3: WorkloadTrace gained core_mlps + tolerance (frontier workloads).
CACHE_VERSION = 3


# ---------------------------------------------------------------------------
# Cache-dir resolution
# ---------------------------------------------------------------------------

def resolve_cache_dir(cache_dir: "str | None" = None) -> "str | None":
    """Cache directory via the ``cache_dir`` knob (argument > scoped
    override > ``REPRO_CACHE_DIR``)."""
    from repro.config import knob_value

    return knob_value("cache_dir", cache_dir)


# ---------------------------------------------------------------------------
# On-disk PreparedWorkload cache
# ---------------------------------------------------------------------------

def workload_cache_key(
    workload: str,
    scale: float,
    accesses_per_core: int,
    seed: int,
    config=None,
    ser_model=None,
) -> str:
    """Digest of everything :func:`prepare_workload` depends on.

    ``config`` and ``ser_model`` are dataclasses with value-style
    ``repr``; hashing the repr keys the cache on the full parameter
    set without inventing a parallel serialisation.  Knobs that do not
    change a preparation are deliberately NOT part of the key:
    ``cache_kernel`` (preparation never runs the cache filter) and
    ``shm_handoff`` (it only changes how prepared workloads travel to
    workers, never their contents).
    """
    payload = "|".join([
        f"v{CACHE_VERSION}",
        str(workload),
        repr(float(scale)),
        str(int(accesses_per_core)),
        str(int(seed)),
        repr(config),
        repr(ser_model),
    ])
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def _cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"prep-{key}.pkl")


def _load_pickle(path: str):
    """Load a raw pickle; a malformed file is deleted, not just skipped.

    Malformed pickle streams raise far more than ``UnpicklingError``
    (``ValueError``/``IndexError`` from bad opcodes, ``MemoryError``
    from absurd length prefixes, ``AttributeError``/``ImportError``
    from stale class paths); all of them mean the file is useless, and
    leaving it in place would re-raise on every subsequent run.
    """
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, MemoryError, ValueError, IndexError, TypeError):
        try:
            os.unlink(path)
        except OSError:
            pass
        return None


def _load_cache_entry(path: str) -> "PreparedWorkload | None":
    """A verified cache entry, or None (damaged entries quarantined)."""
    try:
        entry = load_entry(path)  # checksum + schema verified
    except FileNotFoundError:
        return None
    except (OSError, CacheIntegrityError):
        return None  # load_entry already quarantined the file
    if isinstance(entry, PreparedWorkload):
        return entry
    quarantine_entry(path)  # valid container, stale payload type
    return None


def prepare_workload_cached(
    workload: str,
    scale: float = DEFAULT_SCALE,
    accesses_per_core: int = 20_000,
    seed: int = 0,
    ser_model=None,
    cache_dir: "str | None" = None,
) -> PreparedWorkload:
    """:func:`prepare_workload` behind an on-disk pickle cache.

    With no cache directory (argument or ``REPRO_CACHE_DIR``) this is
    a plain pass-through.  Every entry is written with an integrity
    header (schema version + SHA-256); a corrupt, truncated, bit-flipped,
    or stale entry is quarantined to ``<cache>/corrupt/`` and
    transparently recomputed.
    """
    cache_dir = resolve_cache_dir(cache_dir)
    if cache_dir is None:
        return prepare_workload(
            workload, scale=scale, accesses_per_core=accesses_per_core,
            seed=seed, ser_model=ser_model,
        )
    key = workload_cache_key(workload, scale, accesses_per_core, seed,
                             config=scaled_config(scale),
                             ser_model=ser_model)
    path = _cache_path(cache_dir, key)
    prep = _load_cache_entry(path)
    if prep is not None:
        return prep
    prep = prepare_workload(
        workload, scale=scale, accesses_per_core=accesses_per_core,
        seed=seed, ser_model=ser_model,
    )
    store_entry(path, prep)  # atomic: racing writers both win
    return prep


# ---------------------------------------------------------------------------
# Process-pool map
# ---------------------------------------------------------------------------

def parallel_map(
    func: Callable,
    items: Iterable,
    jobs: "int | None" = None,
    *,
    timeout: "float | None" = None,
    retries: "int | None" = None,
    backoff: float = 0.5,
    keys: "Sequence[str] | None" = None,
    fault_plan: "FaultPlan | None" = None,
    return_report: bool = False,
):
    """Order-preserving map over a fault-tolerant process pool.

    Serial fallback when ``jobs <= 1``, when there is at most one
    item, or when the platform has no ``fork`` start method (forking
    is what lets workers unpickle functions from pytest-collected
    modules).

    Built on :func:`repro.harness.resilience.resilient_map`: each job
    gets a per-attempt ``timeout`` (``REPRO_JOB_TIMEOUT``) and
    ``retries`` retry budget (``REPRO_RETRIES``) with exponential
    backoff, and a crashed worker breaks only its own job — the pool
    is respawned and unfinished siblings re-dispatched.  By default
    any job that still fails raises :class:`PartialResultError` (a
    ``RuntimeError`` carrying the full per-job outcome report, so
    completed results are never lost); with ``return_report=True`` the
    :class:`MapReport` is returned instead and nothing raises.
    """
    report = resilient_map(func, items, jobs=jobs, timeout=timeout,
                           retries=retries, backoff=backoff, keys=keys,
                           fault_plan=fault_plan)
    if return_report:
        return report
    report.raise_if_failed()
    return report.results


# ---------------------------------------------------------------------------
# Workload prefetch (ALL_WORKLOADS x one parameter set)
# ---------------------------------------------------------------------------

def _prefetch_one(item) -> "tuple[str, PreparedWorkload]":
    name, scale, accesses, seed, ser_model, cache_dir = item
    prep = prepare_workload_cached(
        name, scale=scale, accesses_per_core=accesses, seed=seed,
        ser_model=ser_model, cache_dir=cache_dir,
    )
    return name, prep


def prefetch_workloads(
    names: Sequence[str],
    scale: float = DEFAULT_SCALE,
    accesses_per_core: int = 20_000,
    seed: int = 0,
    ser_model=None,
    cache_dir: "str | None" = None,
    jobs: "int | None" = None,
) -> "dict[str, PreparedWorkload]":
    """Prepare many workloads across cores; returns ``{name: prep}``.

    With a cache directory, the children also warm it on disk so the
    work is never repeated in later runs.
    """
    cache_dir = resolve_cache_dir(cache_dir)
    items = [(name, scale, accesses_per_core, seed, ser_model, cache_dir)
             for name in names]
    return dict(parallel_map(_prefetch_one, items, jobs=jobs))


# ---------------------------------------------------------------------------
# Whole-experiment fan-out (for the CLI and export harness)
# ---------------------------------------------------------------------------

def _run_experiment_worker(item):
    import inspect

    (name, accesses, scale, seed, cache_dir, fault_trials,
     policy_kernel, cache_kernel, telemetry, obs_dir) = item
    # Imported lazily so forked workers reuse the parent's modules and
    # fresh processes pay the import only once each.
    from repro.config import knob_overrides
    from repro.harness.experiments import EXPERIMENTS, WorkloadCache
    from repro.obs import run_context
    from repro.sim.points import point_table

    cache = WorkloadCache(accesses_per_core=accesses, scale=scale,
                          seed=seed, cache_dir=cache_dir)
    func = EXPERIMENTS[name]
    kwargs = {}
    if "cache" in inspect.signature(func).parameters:
        kwargs["cache"] = cache
    # Scoped overrides, not os.environ: each worker gets exactly the
    # knobs the CLI passed for *this* run, and nothing leaks into later
    # runs or sibling workers.  The point table is the caller's when it
    # runs in-process, else one per experiment.
    with knob_overrides(fault_trials=fault_trials,
                        policy_kernel=policy_kernel,
                        cache_kernel=cache_kernel), point_table():
        with run_context(
                name,
                config={"experiment": name, "accesses": accesses,
                        "scale": scale, "seed": seed},
                obs_dir=obs_dir,
                enabled=True if telemetry else None) as ctx:
            result = func(**kwargs)
            if ctx is not None and getattr(result, "summary", None):
                ctx.add_metrics(result.summary)
    return name, result


def run_experiments(
    names: Sequence[str],
    accesses_per_core: int = 20_000,
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    cache_dir: "str | None" = None,
    jobs: "int | None" = None,
    checkpoint_dir: "str | None" = None,
    resume: bool = False,
    job_timeout: "float | None" = None,
    retries: "int | None" = None,
    return_report: bool = False,
    fault_trials: "int | None" = None,
    policy_kernel: "str | None" = None,
    cache_kernel: "str | None" = None,
    telemetry: bool = False,
    obs_dir: "str | None" = None,
):
    """Run experiment ids across cores; ``[(name, FigureResult)]``.

    Results come back in the order of ``names``.  Experiments that
    share workloads benefit from ``cache_dir``: the first worker to
    prepare a workload persists it for every other worker and run.

    ``checkpoint_dir`` journals each completed experiment (a
    checksummed pickle per result) the moment it finishes; a later
    call with ``resume=True`` serves finished experiments from the
    journal and reruns only the rest.  ``job_timeout``/``retries``
    bound each experiment's execution (see :func:`parallel_map`).
    A failing experiment raises :class:`PartialResultError` carrying
    every completed result — or set ``return_report=True`` to get the
    structured :class:`MapReport` (``.results`` holds the
    ``(name, FigureResult)`` tuples) without raising.
    """
    cache_dir = resolve_cache_dir(cache_dir)
    items = [(name, accesses_per_core, scale, seed, cache_dir, fault_trials,
              policy_kernel, cache_kernel, telemetry, obs_dir)
             for name in names]
    manifest = None
    if checkpoint_dir is not None:
        manifest = RunManifest(
            checkpoint_dir,
            # fault_trials/policy_kernel/cache_kernel change (or could
            # change) the numbers, so they are part of the run key: a
            # resume with different knobs reruns instead of serving
            # stale checkpointed results.
            run_key=run_key(kind="experiments", accesses=accesses_per_core,
                            scale=scale, seed=seed,
                            fault_trials=fault_trials,
                            policy_kernel=policy_kernel,
                            cache_kernel=cache_kernel),
            resume=resume)
    report = checkpointed_map(
        _run_experiment_worker, items, keys=list(names), manifest=manifest,
        store="pickle", jobs=jobs, timeout=job_timeout, retries=retries)
    if return_report:
        return report
    report.raise_if_failed()
    return report.results
