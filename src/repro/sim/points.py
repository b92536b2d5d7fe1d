"""A run-scoped table of evaluated points, keyed by value.

The paper scores every scheme against its performance-focused
counterpart, and every migration run starts from the oracular static
placement, so one harness run asks for the same (workload, scheme,
config) point from figure after figure.  :func:`point_table` opens a
table for the extent of a run; while one is open, the evaluation
bodies in :mod:`repro.sim.system` look each point up before replaying
it and store what they compute.  Outside a scope nothing is cached:
library calls, parity suites and benchmarks measure real replays.

A point's key is built from values only — never ``id()``:

* the kind (``static``, ``migration``, ``annotations``);
* the prep's identity by value: a digest of its trace arrays, times,
  page profile and layout, computed once per prep
  (:func:`prep_digest`), plus its name and all-DDR baseline;
* ``repr`` of the effective :class:`~repro.config.SystemConfig` and
  :class:`~repro.faults.ser.SerModel`, as the prepared-workload cache
  keys them;
* the policy or mechanism class plus its constructor arguments, with
  arrays keyed by a SHA-256 of their bytes (:func:`component_key`);
* the remaining point arguments (interval count, the effective
  initial placement, the annotation AVF quantile).

Three rules keep the table safe:

* a component without a value key (a locally defined class, an
  argument of unknown type) is computed, not cached;
* a mechanism instance the table has already seen is never served
  from it — mechanisms are stateful, so a second evaluation of one
  instance is a different point;
* the table holds results only (``ExperimentResult``,
  ``AnnotationPlan``, and the epoch series under telemetry), never a
  prep or a trace array, so a shared-memory segment backing a prep can
  always close.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import weakref
from contextlib import contextmanager

import numpy as np

from repro.obs import current_run, metrics

__all__ = ["PointTable", "active_table", "component_key", "lookup",
           "point_table", "prep_digest", "prep_key", "telemetry_key",
           "value_key"]


class PointTable:
    """Results of the points evaluated in one scope, by value key."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.hits = 0
        self.misses = 0
        self._results: dict = {}
        self._seen = weakref.WeakSet()

    def claim(self, mechanism) -> bool:
        """Record that ``mechanism`` was passed in; False if seen before."""
        if mechanism in self._seen:
            return False
        self._seen.add(mechanism)
        return True


_active: "PointTable | None" = None


def active_table() -> "PointTable | None":
    """The table open in this process, if any."""
    table = _active
    return table if table is not None and table.pid == os.getpid() else None


@contextmanager
def point_table(table: "PointTable | None" = None):
    """Evaluate the body's points through a table.

    With no argument, joins the table already open in this process or
    opens a fresh one; a table inherited across ``fork`` belongs to
    the parent and is never joined, so a forked worker starts its own.
    Passing ``table`` activates that table for the body, which lets an
    owner (``repro.verify``'s evaluation bundle) keep one across calls.
    """
    global _active
    outer = _active
    if table is None:
        table = active_table()
        if table is None:
            table = PointTable()
    _active = table
    try:
        yield table
    finally:
        _active = outer


# ---------------------------------------------------------------------------
# Value keys
# ---------------------------------------------------------------------------

def _array_key(arr) -> tuple:
    arr = np.ascontiguousarray(arr)
    return ("ndarray", arr.dtype.str, arr.shape,
            hashlib.sha256(memoryview(arr).cast("B")).hexdigest())


def value_key(value):
    """A hashable value key of one argument, or ``None`` if it has none."""
    if value is None or isinstance(value, (bool, int, float, str,
                                           np.generic)):
        return (type(value).__name__, repr(value))
    if isinstance(value, np.ndarray):
        return _array_key(value)
    if isinstance(value, (tuple, list)):
        parts = tuple(value_key(v) for v in value)
        if any(part is None for part in parts):
            return None
        return (type(value).__name__, parts)
    return None


_signatures: dict = {}


def component_key(obj):
    """Class plus constructor arguments of a policy or mechanism.

    The arguments are the ones the base classes record at construction
    (``_init_args``), bound to the constructor's signature with its
    defaults applied, so ``Cls()`` and ``Cls(x=default)`` key alike.
    ``None`` when the class is defined locally or an argument has no
    value key.
    """
    cls = type(obj)
    captured = obj.__dict__.get("_init_args")
    if captured is None or "<locals>" in cls.__qualname__:
        return None
    init = cls.__init__
    if init is object.__init__:
        if captured != ((), {}):
            return None
        arguments = {}
    else:
        signature = _signatures.get(init)
        if signature is None:
            signature = _signatures[init] = inspect.signature(init)
        try:
            bound = signature.bind(None, *captured[0], **captured[1])
        except TypeError:
            return None
        bound.apply_defaults()
        arguments = dict(list(bound.arguments.items())[1:])  # drop self
    args = []
    for name, value in arguments.items():
        key = value_key(value)
        if key is None:
            return None
        args.append((name, key))
    return (cls.__module__, cls.__qualname__, getattr(obj, "name", None),
            tuple(args), getattr(obj, "policy_kernel", None))


def prep_digest(prep) -> "str | None":
    """Digest of what a prepared workload's evaluations read.

    Covers the trace arrays, request times, page profile, footprint,
    per-core MLP and region layout, and the tolerance classes; computed
    once per prep and dropped on pickling.  ``None`` when the prep
    carries a tolerance object without per-page classes.
    """
    cached = prep.__dict__.get("_point_digest", False)
    if cached is not False:
        return cached
    wt = prep.workload_trace
    stats = prep.stats
    digest = hashlib.sha256()
    for arr in (wt.trace.core, wt.trace.address, wt.trace.is_write,
                wt.trace.gap, wt.times, stats.pages, stats.reads,
                stats.writes, stats.avf):
        digest.update(repr(_array_key(arr)).encode())
    tolerance = getattr(wt, "tolerance", None)
    page_class = getattr(tolerance, "page_class", None)
    if tolerance is not None and page_class is None:
        value = None
    else:
        if page_class is not None:
            digest.update(repr(_array_key(page_class)).encode())
        digest.update(repr((
            wt.workload_name, wt.footprint_pages, stats.footprint_pages,
            wt.core_mlp, wt.core_benchmarks, wt.core_layouts,
        )).encode())
        value = digest.hexdigest()
    prep._point_digest = value
    return value


def prep_key(prep, config=None, ser_model=None) -> "tuple | None":
    """The prep-and-system part of a point key, or ``None``."""
    digest = prep_digest(prep)
    if digest is None:
        return None
    return (digest, prep.name,
            repr(prep.config if config is None else config),
            repr(prep.ser_model if ser_model is None else ser_model),
            repr(prep.ddr_baseline))


def telemetry_key() -> tuple:
    """Telemetry state a migration point was evaluated under.

    Under telemetry a migration point carries its epoch series, so a
    point computed with telemetry off cannot serve one asked for with
    it on (and vice versa).
    """
    return (metrics.enabled(), current_run() is not None)


# ---------------------------------------------------------------------------
# Lookup
# ---------------------------------------------------------------------------

def lookup(items, key_of, compute):
    """Values of ``items``, computing only what the table lacks.

    ``key_of(table, item)`` is an item's point key, or ``None`` to
    compute it uncached; ``compute(items)`` evaluates a list of items
    in one batch and returns their values in order.  With no table open
    every item is computed and no key is built.
    """
    table = active_table()
    if table is None:
        return compute(items)
    keys = [key_of(table, item) for item in items]
    results = table._results
    out = [results.get(key) if key is not None else None for key in keys]
    todo = [i for i, value in enumerate(out) if value is None]
    if todo:
        for i, value in zip(todo, compute([items[i] for i in todo])):
            out[i] = value
            if keys[i] is not None:
                results[keys[i]] = value
    hits = len(items) - len(todo)
    table.hits += hits
    table.misses += len(todo)
    registry = metrics.get_registry()
    registry.counter("points.hits").inc(hits)
    registry.counter("points.misses").inc(len(todo))
    return out
