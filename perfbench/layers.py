"""Per-layer tracing from outside the program.

The benchmark never edits ``src/repro``.  Instead :func:`install`
replaces the public entry points of each layer with timing wrappers,
on every name a caller binds: a function imported by name into another
module (``repro.sim.system.replay``) is a separate binding from its
definition (``repro.sim.engine.replay``), so each module of the
``repro`` package is scanned for the original object and every
binding is swapped.  Methods are wrapped on the class that defines
them, which covers every caller at once.

Seconds are *self* time: a wrapper's elapsed time minus the elapsed
time of wrapped calls nested inside it, so the per-layer seconds of a
run add up to the traced wall time less an untraced residual.  The
tracer keeps one call stack and is meant for single-threaded code;
the benchmark traces nothing else.

Layer names are the module names under ``src/repro``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

#: Experiment ids of ``repro-hma list`` at the time the benchmark was
#: defined; every one gets a ``harness.exp.<id>_s`` metric.
EXPERIMENT_IDS = (
    "table1", "table2", "fig01", "fig02", "fig03", "fig04", "fig05",
    "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
    "fig13", "fig14", "fig15", "fig16", "fig17", "table3", "hwcost",
    "workload-frontier", "ecc-pareto", "sweep-capacity", "sweep-fit",
    "sweep-mlp",
)

#: Self-time layers: metric stem -> what it times.
TIME_LAYERS = (
    "avf.profile_intervals", "avf.interval_builder", "avf.profile_trace",
    "sim.replay", "sim.replay_multi", "harness.prepare", "cache.filter",
    "core.plan", "core.observe", "core.placement", "core.annotations",
    "trace.generate", "workloads.generate", "dram.install", "faults.ser",
    "faults.model",
) + tuple(f"harness.exp.{name}" for name in EXPERIMENT_IDS)

#: Counters reported as-is (``count`` unit).
COUNT_METRICS = (
    "avf.profile_intervals_calls", "sim.replay_calls",
    "sim.replay_multi_specs", "harness.points", "harness.points_distinct",
    "cache.requests_in", "cache.requests_out",
)


class Tracer:
    """Self-time and count ledger filled by the installed wrappers."""

    def __init__(self) -> None:
        self.self_s: "defaultdict[str, float]" = defaultdict(float)
        self.counts: Counter = Counter()
        self.replayed_requests = 0
        self.point_keys: "list[tuple]" = []
        self._stack: "list[list]" = []   # [layer, child seconds]

    def timed(self, layer: str, fn, on_call=None):
        """Wrap ``fn`` so its self time lands on ``layer``.

        ``on_call(args, kwargs, result, outermost)`` records counts;
        ``outermost`` is false when a call of the same layer group
        (``sim``, ``avf``, ...) encloses this one, so a layer that
        starts delegating to another of its group is not counted twice.
        """
        group = layer.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            outermost = all(not f[0].startswith(group + ".") for f in stack)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_call is not None:
                on_call(args, kwargs, result, outermost)
            return result

        return wrapper

    def counted(self, fn, on_call):
        """Wrap ``fn`` for counts only; its time stays with the caller."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_call(args, kwargs, result, True)
            return result

        return wrapper

    # -- report ---------------------------------------------------------

    def metrics(self, wall_s: float) -> "dict[str, float]":
        """Per-layer metrics of one traced unit of work of ``wall_s``."""
        out = {f"{layer}_s": self.self_s.get(layer, 0.0)
               for layer in TIME_LAYERS}
        for name in COUNT_METRICS:
            out[name] = float(self.counts.get(name, 0))
        points = len(self.point_keys)
        distinct = len(set(self.point_keys))
        out["harness.points"] = float(points)
        out["harness.points_distinct"] = float(distinct)
        out["harness.point_reuse"] = (1.0 - distinct / points) if points \
            else 0.0
        replay_s = out["sim.replay_s"] + out["sim.replay_multi_s"]
        out["sim.ns_per_request"] = (replay_s * 1e9 / self.replayed_requests
                                     if self.replayed_requests else 0.0)
        out["bench.residual_s"] = wall_s - sum(self.self_s.values())
        return out


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------

def _rebind(original, wrapper) -> None:
    """Swap every module-level binding of ``original`` in ``repro``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _subclasses(cls) -> list:
    seen, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def _wrap_methods(tracer, base, names, layer, on_call=None) -> None:
    """Wrap ``names`` on ``base`` and on each subclass defining them."""
    for cls in _subclasses(base):
        for name in names:
            raw = cls.__dict__.get(name)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.timed(layer, raw.__func__,
                                                   on_call))
            else:
                wrapped = tracer.timed(layer, raw, on_call)
            setattr(cls, name, wrapped)


def _obj_key(obj) -> tuple:
    """A coarse value key: type plus scalar attributes."""
    if obj is None:
        return (None,)
    scalars = tuple(sorted(
        (k, v) for k, v in getattr(obj, "__dict__", {}).items()
        if isinstance(v, (int, float, str, bool, type(None)))))
    return (type(obj).__name__,) + scalars


def _point_recorder(tracer, fn, kind):
    """``on_call`` that keys each evaluation point of ``fn``.

    The key is (kind, workload, config, SER model, policy or mechanism
    and the remaining arguments); a ``*_multi`` call adds one key per
    spec, keyed exactly as the per-point call of that spec would be.
    """
    signature = inspect.signature(fn)

    def key(prep, fields):
        config = fields.pop("config", None)
        ser_model = fields.pop("ser_model", None)
        rest = tuple(sorted((k, _obj_key(v) if hasattr(v, "__dict__")
                             else v) for k, v in fields.items()))
        return (kind, prep.name,
                repr(prep.config if config is None else config),
                repr(prep.ser_model if ser_model is None else ser_model),
                rest)

    def record(args, kwargs, result, outermost):
        params = _arguments(signature, args, kwargs)
        prep = params.pop("prep")
        specs = params.pop("specs", None)
        if specs is None:
            tracer.point_keys.append(key(prep, params))
        else:
            tracer.point_keys.extend(key(prep, dict(vars(spec)))
                                     for spec in specs)

    return record


def _arguments(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


def install(tracer: Tracer) -> None:
    """Install every layer wrapper into the loaded ``repro`` package."""
    import repro.harness.cli  # noqa: F401  (binds the CLI's names)
    import repro.harness.runner  # noqa: F401
    import repro.harness.sweeps  # noqa: F401
    import repro.serve.engine  # noqa: F401
    import repro.workloads  # noqa: F401
    from repro.avf import page
    from repro.cache import hierarchy
    from repro.core import annotations, migration, placement
    from repro.dram.hma import HeterogeneousMemory
    from repro.faults.ser import SerModel
    from repro.harness import experiments
    from repro.sim import engine, system
    from repro.trace.workloads import Workload
    from repro.workloads.frontier import FrontierWorkload

    counts = tracer.counts
    replay_sig = inspect.signature(engine.replay)
    multi_sig = inspect.signature(engine.replay_multi)
    filter_sig = inspect.signature(hierarchy.filter_trace)

    def on_intervals(args, kwargs, result, outermost):
        counts["avf.profile_intervals_calls"] += 1

    def on_replay(args, kwargs, result, outermost):
        counts["sim.replay_calls"] += 1
        if outermost:
            trace = _arguments(replay_sig, args, kwargs)["trace"]
            tracer.replayed_requests += len(trace)

    def on_replay_multi(args, kwargs, result, outermost):
        params = _arguments(multi_sig, args, kwargs)
        counts["sim.replay_multi_specs"] += len(params["specs"])
        if outermost:
            tracer.replayed_requests += \
                len(params["trace"]) * len(params["specs"])

    def on_filter(args, kwargs, result, outermost):
        trace = _arguments(filter_sig, args, kwargs)["trace"]
        counts["cache.requests_in"] += len(trace)
        counts["cache.requests_out"] += len(result)

    functions = (
        (page.profile_intervals, "avf.profile_intervals", on_intervals),
        (page.profile_trace, "avf.profile_trace", None),
        (engine.replay, "sim.replay", on_replay),
        (engine.replay_multi, "sim.replay_multi", on_replay_multi),
        (system.prepare_workload, "harness.prepare", None),
        (hierarchy.filter_trace, "cache.filter", on_filter),
        (annotations.plan_annotations, "core.annotations", None),
    )
    for fn, layer, on_call in functions:
        _rebind(fn, tracer.timed(layer, fn, on_call))

    for name in ("evaluate_static", "evaluate_migration",
                 "evaluate_annotations", "evaluate_annotation_migration",
                 "evaluate_static_multi", "evaluate_migration_multi"):
        fn = getattr(system, name)
        kind = name.replace("evaluate_", "").replace("_multi", "")
        _rebind(fn, tracer.counted(fn, _point_recorder(tracer, fn, kind)))

    for exp_id, fn in list(experiments.EXPERIMENTS.items()):
        experiments.EXPERIMENTS[exp_id] = tracer.timed(
            f"harness.exp.{exp_id}", fn)

    _wrap_methods(tracer, page.IntervalProfileBuilder,
                  ("__init__", "intervals_arrays"), "avf.interval_builder")
    _wrap_methods(tracer, migration.MigrationMechanism,
                  ("plan", "plan_sub"), "core.plan")
    _wrap_methods(tracer, migration.MigrationMechanism,
                  ("observe_chunk", "observe_counts"), "core.observe")
    _wrap_methods(tracer, placement.PlacementPolicy,
                  ("select_fast_pages", "select_ranking"), "core.placement")
    _wrap_methods(tracer, Workload, ("generate",), "trace.generate")
    _wrap_methods(tracer, FrontierWorkload, ("generate",),
                  "workloads.generate")
    _wrap_methods(tracer, HeterogeneousMemory,
                  ("__init__", "install_placement"), "dram.install")
    _wrap_methods(tracer, SerModel,
                  ("ser_static", "ser_ddr_only", "ser_dynamic",
                   "ser_dynamic_arrays", "ser_dynamic_series"), "faults.ser")
    _wrap_methods(tracer, SerModel, ("for_system", "for_systems"),
                  "faults.model")
