"""Experiment orchestration: workload -> profile -> placement -> results.

This module wires the substrates together the way the paper's
methodology does:

1. generate the 16-core memory trace (``repro.trace``),
2. profile it on a flat memory for per-page hotness and AVF
   (``repro.avf``) — the paper's prior profiling run,
3. compute per-page uncorrected FIT rates for both memories
   (``repro.faults``),
4. install a placement / run a migration mechanism and replay the
   trace against the two-level DRAM model (``repro.dram``,
   ``repro.sim.engine``),
5. compose IPC and SER (= FIT x AVF) for the scheme.

:class:`PreparedWorkload` caches steps 1-3 plus the all-DDR baseline so
that sweeps over many schemes reuse them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.avf.page import IntervalProfileBuilder, PageStats, profile_trace
from repro.config import SystemConfig, scaled_config
from repro.core.annotations import AnnotationPlan, plan_annotations
from repro.core.migration import MigrationMechanism
from repro.core.placement import PerformanceFocusedPlacement, PlacementPolicy
from repro.dram.hma import HeterogeneousMemory
from repro.faults.ser import SerModel
from repro.obs import current_run
from repro.sim import points
from repro.sim.engine import replay
from repro.sim.results import ExperimentResult
from repro.trace.workloads import Workload, WorkloadTrace

#: Default evaluation scale: 1 MB "HBM" against 16 MB "DDR3" with
#: proportionally shrunk footprints (see ``repro.config.scaled_config``).
DEFAULT_SCALE = 1 / 1024


@dataclass
class PreparedWorkload:
    """Everything reusable across schemes for one workload."""

    workload: Workload
    config: SystemConfig
    workload_trace: WorkloadTrace
    stats: PageStats
    ser_model: SerModel
    ddr_baseline: ExperimentResult

    @property
    def capacity_pages(self) -> int:
        return self.config.fast_memory.num_pages

    @property
    def name(self) -> str:
        return self.workload.name

    def interval_builder(self) -> IntervalProfileBuilder:
        """The trace's :class:`~repro.avf.page.IntervalProfileBuilder`.

        Built on first use and cached: it depends only on the trace and
        times, so every migration point of this workload re-buckets one
        line-sorted analysis.  The cache (like the evaluation-point
        digest of :func:`repro.sim.points.prep_digest`) is dropped on
        pickling, so the prepared-workload cache and worker handoffs
        carry only inputs.
        """
        builder = self.__dict__.get("_interval_builder")
        if builder is None:
            wt = self.workload_trace
            builder = IntervalProfileBuilder(wt.trace, wt.times)
            self._interval_builder = builder
        return builder

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_interval_builder", None)
        state.pop("_point_digest", None)
        return state


def resolve_workload(name: str):
    """Resolve a workload name: ``mix*`` tables, frontier server
    generators, or a homogeneous SPEC-style benchmark spec."""
    # Imported lazily: repro.workloads pulls in core.annotations, which
    # this module's callers don't always need.
    from repro.workloads import frontier_workload, is_frontier

    if is_frontier(name):
        return frontier_workload(name)
    if name.startswith("mix"):
        return Workload.mix(name)
    return Workload.spec(name)


def prepare_workload(
    workload: "Workload | str",
    config: "SystemConfig | None" = None,
    scale: float = DEFAULT_SCALE,
    accesses_per_core: int = 20_000,
    seed: "int | None" = None,
    ser_model: "SerModel | None" = None,
    ecc_budget: "float | None" = None,
) -> PreparedWorkload:
    """Generate, profile, and baseline one workload.

    ``ecc_budget`` (uncorrected FIT per page) re-derives both tiers'
    ECC via :func:`repro.faults.selector.select_system_ecc` before the
    SER model is built, so a system can be specified by a reliability
    ceiling instead of hard-coded schemes.
    """
    if isinstance(workload, str):
        workload = resolve_workload(workload)
    if config is None:
        config = scaled_config(scale)
    if ecc_budget is not None:
        from repro.faults.selector import select_system_ecc

        config = select_system_ecc(config, ecc_budget)
    wt = workload.generate(
        scale=scale, accesses_per_core=accesses_per_core, seed=seed
    )
    stats = profile_trace(wt.trace, wt.times, footprint_pages=wt.footprint_pages)
    if ser_model is None:
        ser_model = SerModel.for_system(config)

    # All-DDR baseline replay.
    hma = HeterogeneousMemory(config)
    hma.install_placement([], stats.pages)
    result = replay(config, hma, wt.trace, wt.times, core_windows=wt.core_mlp)
    ddr_ser = ser_model.ser_ddr_only(stats)
    baseline = ExperimentResult(
        workload=workload.name,
        scheme="ddr-only",
        ipc=result.ipc,
        ser=ddr_ser,
        ipc_vs_ddr=1.0,
        ser_vs_ddr=1.0,
        mean_read_latency=result.mean_read_latency,
    )
    return PreparedWorkload(
        workload=workload,
        config=config,
        workload_trace=wt,
        stats=stats,
        ser_model=ser_model,
        ddr_baseline=baseline,
    )


def evaluate_static(
    prep: PreparedWorkload, policy: PlacementPolicy
) -> ExperimentResult:
    """IPC and SER of one static placement on a prepared workload.

    The single-spec case of :func:`evaluate_static_multi`.
    """
    return _evaluate_static_multi(prep, [StaticSpec(policy)])[0]


def _dynamic_ser(prep: PreparedWorkload, result, pairs):
    """Dynamic SER of one migration replay from its interval arrays,
    and the replay's epoch series.

    With telemetry on (the replay carries epoch snapshots), the
    per-epoch SER series computed from the same arrays annotates the
    snapshot series; :func:`_attach_series` hands it to the active run.
    """
    ser_model = prep.ser_model
    ser = ser_model.ser_dynamic_arrays(pairs, result.fast_residency)
    series = result.snapshots
    if current_run() is not None and series is not None:
        ser_series = ser_model.ser_dynamic_series(pairs,
                                                  result.fast_residency)
        if len(ser_series) == len(series):
            series.annotate("ser", ser_series)
    return ser, series


def _attach_series(tag: str, series) -> None:
    ctx = current_run()
    if ctx is not None:
        ctx.add_series(tag, series)


def evaluate_migration(
    prep: PreparedWorkload,
    mechanism: MigrationMechanism,
    num_intervals: int = 16,
    initial_policy: "PlacementPolicy | None" = None,
) -> ExperimentResult:
    """IPC and SER of one dynamic migration scheme.

    Per the paper, the run starts from a good placement (the oracular
    static placement of the corresponding flavour) to avoid cold-start
    effects, then migrates at every interval boundary.  The
    single-spec case of :func:`evaluate_migration_multi`.
    """
    spec = MigrationSpec(mechanism, num_intervals=num_intervals,
                         initial_policy=initial_policy)
    return _evaluate_migration_multi(prep, [spec])[0]


# ---------------------------------------------------------------------------
# Config-batched multi-run evaluation
# ---------------------------------------------------------------------------

@dataclass
class StaticSpec:
    """One static-placement point for :func:`evaluate_static_multi`.

    ``config`` overrides the prepared workload's config (e.g. a smaller
    fast memory in a capacity sweep); ``ser_model`` overrides its SER
    model (e.g. a different raw-FIT multiplier).  ``None`` means "use
    the prep's".
    """

    policy: PlacementPolicy
    config: "SystemConfig | None" = None
    ser_model: "SerModel | None" = None


@dataclass
class MigrationSpec:
    """One dynamic-migration point for :func:`evaluate_migration_multi`."""

    mechanism: MigrationMechanism
    num_intervals: int = 16
    initial_policy: "PlacementPolicy | None" = None


def _select_fast_pages(policy, stats, capacity_pages, memo):
    """``policy.select_fast_pages`` with the ranking shared across
    capacities.

    Policies exposing a capacity-independent ranking
    (:meth:`~repro.core.placement.PlacementPolicy.select_ranking`) rank
    once per (policy, workload) and answer every capacity with a prefix
    slice — by the policies' prefix contract that slice is exactly what
    ``select_fast_pages`` returns.
    """
    got = memo.get(id(policy))
    if got is None:
        ranking = policy.select_ranking(stats)
        got = (False, None) if ranking is None else (True, ranking)
        memo[id(policy)] = got
    ranked, ranking = got
    if ranked:
        return ranking[: policy.ranked_take(capacity_pages)]
    return policy.select_fast_pages(stats, capacity_pages)


def _replay_dedup_key(config: SystemConfig, fast_pages):
    """Hashable identity of one static replay, or ``None``.

    The fault-model-only fields — ``fit_multiplier`` and ``ecc`` — are
    neutralised so sweeps that vary nothing else (the FIT sweep, the
    ECC-Pareto scheme sweep) collapse to a single replay; every other
    config field may affect timing and stays in the key.  Returns
    ``None`` (no deduplication) for exotic configs that do not tuplify.
    """
    try:
        neutral = dataclasses.replace(
            config,
            fast_memory=dataclasses.replace(config.fast_memory,
                                            fit_multiplier=1.0,
                                            ecc="none"),
            slow_memory=dataclasses.replace(config.slow_memory,
                                            fit_multiplier=1.0,
                                            ecc="none"),
        )
        cfg_key = dataclasses.astuple(neutral)
        hash(cfg_key)
    except (TypeError, ValueError):
        return None
    return (cfg_key, np.asarray(fast_pages, dtype=np.int64).tobytes())


def evaluate_static_multi(
    prep: PreparedWorkload, specs: "list[StaticSpec]"
) -> "list[ExperimentResult]":
    """:func:`evaluate_static` for N configuration points in one pass.

    All specs replay the prepared workload's trace; the replays are
    batched through :func:`repro.sim.engine.replay_multi` (deduplicated
    when specs differ only in fault model) and each result is composed
    with the spec's SER model.  Results are element-wise bit-identical
    to :func:`repro.verify.reference.reference_static`, the per-point
    oracle built from the reference implementation of every stage.
    """
    return _evaluate_static_multi(prep, specs)


def _evaluate_static_multi(prep, specs):
    # The body behind both public static evaluators; they call it, not
    # each other, so an outside wrapper sees every point exactly once.
    # Under an open point table, only points it lacks are computed.
    def key_of(table, spec):
        base = points.prep_key(prep, spec.config, spec.ser_model)
        policy = points.component_key(spec.policy)
        if base is None or policy is None:
            return None
        return ("static", base, policy)

    return points.lookup(list(specs), key_of,
                         lambda todo: _compute_static(prep, todo))


def _compute_static(prep, specs):
    from repro.sim.engine import ReplaySpec, replay_multi

    wt = prep.workload_trace
    rankings: dict = {}
    placements = []
    for spec in specs:
        config = spec.config if spec.config is not None else prep.config
        fast_pages = _select_fast_pages(
            spec.policy, prep.stats, config.fast_memory.num_pages, rankings)
        placements.append((config, fast_pages))

    replay_specs: "list[ReplaySpec]" = []
    slot_of: "list[int]" = []
    seen: dict = {}
    for config, fast_pages in placements:
        key = _replay_dedup_key(config, fast_pages)
        slot = seen.get(key) if key is not None else None
        if slot is None:
            hma = HeterogeneousMemory(config)
            hma.install_placement(fast_pages, prep.stats.pages)
            slot = len(replay_specs)
            replay_specs.append(ReplaySpec(
                config=config, hma=hma, core_windows=wt.core_mlp))
            if key is not None:
                seen[key] = slot
        slot_of.append(slot)

    replays = replay_multi(replay_specs, wt.trace, wt.times)

    base = prep.ddr_baseline
    out = []
    for spec, (config, fast_pages), slot in zip(specs, placements, slot_of):
        result = replays[slot]
        ser_model = (spec.ser_model if spec.ser_model is not None
                     else prep.ser_model)
        ser = ser_model.ser_static(prep.stats, fast_pages)
        out.append(ExperimentResult(
            workload=prep.name,
            scheme=spec.policy.name,
            ipc=result.ipc,
            ser=ser,
            ipc_vs_ddr=result.ipc / base.ipc if base.ipc else 0.0,
            ser_vs_ddr=ser / base.ser if base.ser else 0.0,
            mean_read_latency=result.mean_read_latency,
        ))
    return out


def evaluate_migration_multi(
    prep: PreparedWorkload, specs: "list[MigrationSpec]"
) -> "list[ExperimentResult]":
    """:func:`evaluate_migration` for N mechanism points in one pass.

    One :func:`repro.sim.engine.replay_multi` call covers every spec,
    and the prep's cached :meth:`PreparedWorkload.interval_builder`
    serves the dynamic-SER accounting of every interval count.  Results
    are element-wise bit-identical to
    :func:`repro.verify.reference.reference_migration`.
    """
    return _evaluate_migration_multi(prep, specs)


def _evaluate_migration_multi(prep, specs):
    # The body behind both public migration evaluators (see
    # _evaluate_static_multi).  A hit re-attaches the point's stored
    # epoch series, so every run holds the series it asked for.
    def key_of(table, spec):
        if not table.claim(spec.mechanism):
            return None
        base = points.prep_key(prep)
        parts = (points.component_key(spec.mechanism),
                 points.component_key(_initial_policy(spec)),
                 points.value_key(spec.num_intervals))
        if base is None or any(part is None for part in parts):
            return None
        return ("migration", base, parts, points.telemetry_key())

    entries = points.lookup(list(specs), key_of,
                            lambda todo: _compute_migration(prep, todo))
    out = []
    for spec, (result, series) in zip(specs, entries):
        _attach_series(f"{prep.name}:{spec.mechanism.name}", series)
        out.append(result)
    return out


def _initial_policy(spec: MigrationSpec) -> PlacementPolicy:
    if spec.initial_policy is not None:
        return spec.initial_policy
    return PerformanceFocusedPlacement()


def _compute_migration(prep, specs):
    """``(ExperimentResult, epoch series or None)`` per spec."""
    from repro.sim.engine import ReplaySpec, replay_multi

    wt = prep.workload_trace
    rankings: dict = {}
    replay_specs = []
    for spec in specs:
        policy = _initial_policy(spec)
        fast_pages = _select_fast_pages(
            policy, prep.stats, prep.capacity_pages, rankings)
        hma = HeterogeneousMemory(prep.config)
        hma.install_placement(fast_pages, prep.stats.pages)
        replay_specs.append(ReplaySpec(
            config=prep.config, hma=hma, mechanism=spec.mechanism,
            num_intervals=spec.num_intervals, core_windows=wt.core_mlp))

    replays = replay_multi(replay_specs, wt.trace, wt.times)

    builder = prep.interval_builder()
    pairs_memo: dict = {}
    base = prep.ddr_baseline
    out = []
    for spec, rspec, result in zip(specs, replay_specs, replays):
        bounds = result.interval_boundaries
        key = bounds.tobytes()
        pairs = pairs_memo.get(key)
        if pairs is None:
            pairs = pairs_memo[key] = builder.intervals_arrays(bounds)
        ser, series = _dynamic_ser(prep, result, pairs)
        out.append((ExperimentResult(
            workload=prep.name,
            scheme=spec.mechanism.name,
            ipc=result.ipc,
            ser=ser,
            ipc_vs_ddr=result.ipc / base.ipc if base.ipc else 0.0,
            ser_vs_ddr=ser / base.ser if base.ser else 0.0,
            migrations=rspec.hma.migration_stats.total,
            mean_read_latency=result.mean_read_latency,
        ), series))
    return out


def evaluate_annotations(
    prep: PreparedWorkload, avf_quantile: float = 0.7
) -> "tuple[ExperimentResult, AnnotationPlan]":
    """IPC/SER of the program-annotation placement (paper Section 7)."""
    def key_of(table, quantile):
        base = points.prep_key(prep)
        quantile = points.value_key(quantile)
        if base is None or quantile is None:
            return None
        return ("annotations", base, quantile)

    return points.lookup(
        [avf_quantile], key_of,
        lambda todo: [_compute_annotations(prep, q) for q in todo])[0]


def _compute_annotations(prep, avf_quantile):
    plan = plan_annotations(
        prep.workload_trace, prep.stats, prep.capacity_pages,
        avf_quantile=avf_quantile,
    )
    hma = HeterogeneousMemory(prep.config)
    hma.install_placement(plan.pinned_pages, prep.stats.pages)
    hma.pin(plan.pinned_pages)
    wt = prep.workload_trace
    result = replay(prep.config, hma, wt.trace, wt.times, core_windows=wt.core_mlp)
    ser = prep.ser_model.ser_static(prep.stats, plan.pinned_pages)
    base = prep.ddr_baseline
    return (
        ExperimentResult(
            workload=prep.name,
            scheme="annotations",
            ipc=result.ipc,
            ser=ser,
            ipc_vs_ddr=result.ipc / base.ipc if base.ipc else 0.0,
            ser_vs_ddr=ser / base.ser if base.ser else 0.0,
            mean_read_latency=result.mean_read_latency,
        ),
        plan,
    )


def evaluate_annotation_migration(
    prep: PreparedWorkload,
    mechanism: MigrationMechanism,
    num_intervals: int = 16,
    avf_quantile: float = 0.7,
    pin_fraction: float = 0.5,
) -> "tuple[ExperimentResult, AnnotationPlan]":
    """The paper's Section 7 closing suggestion, implemented.

    "Supplementing such an annotation-driven static data placement
    scheme with a reliability-aware migration mechanism could
    potentially further improve the overall reliability."

    Annotated structures are pinned into ``pin_fraction`` of the HBM
    frames (exempt from migration); the mechanism manages the
    remaining frames dynamically.
    """
    if not 0 < pin_fraction <= 1:
        raise ValueError("pin_fraction must be in (0, 1]")
    pin_capacity = max(1, int(prep.capacity_pages * pin_fraction))
    plan = plan_annotations(
        prep.workload_trace, prep.stats, pin_capacity,
        avf_quantile=avf_quantile,
    )
    hma = HeterogeneousMemory(prep.config)
    hma.install_placement(plan.pinned_pages, prep.stats.pages)
    hma.pin(plan.pinned_pages)

    wt = prep.workload_trace
    result = replay(
        prep.config, hma, wt.trace, wt.times,
        mechanism=mechanism, num_intervals=num_intervals,
        core_windows=wt.core_mlp,
    )
    pairs = prep.interval_builder().intervals_arrays(
        result.interval_boundaries)
    ser, series = _dynamic_ser(prep, result, pairs)
    _attach_series(f"{prep.name}:annotations+{mechanism.name}", series)
    base = prep.ddr_baseline
    return (
        ExperimentResult(
            workload=prep.name,
            scheme=f"annotations+{mechanism.name}",
            ipc=result.ipc,
            ser=ser,
            ipc_vs_ddr=result.ipc / base.ipc if base.ipc else 0.0,
            ser_vs_ddr=ser / base.ser if base.ser else 0.0,
            migrations=hma.migration_stats.total,
            mean_read_latency=result.mean_read_latency,
        ),
        plan,
    )


def run_placement_experiment(
    workload: "Workload | str",
    policy: PlacementPolicy,
    config: "SystemConfig | None" = None,
    scale: float = DEFAULT_SCALE,
    accesses_per_core: int = 20_000,
    seed: "int | None" = None,
) -> ExperimentResult:
    """One-shot convenience wrapper: prepare + evaluate a placement."""
    prep = prepare_workload(
        workload, config=config, scale=scale,
        accesses_per_core=accesses_per_core, seed=seed,
    )
    return evaluate_static(prep, policy)


def run_migration_experiment(
    workload: "Workload | str",
    mechanism: MigrationMechanism,
    config: "SystemConfig | None" = None,
    scale: float = DEFAULT_SCALE,
    accesses_per_core: int = 20_000,
    num_intervals: int = 16,
    seed: "int | None" = None,
    initial_policy: "PlacementPolicy | None" = None,
) -> ExperimentResult:
    """One-shot convenience wrapper: prepare + evaluate a migration."""
    prep = prepare_workload(
        workload, config=config, scale=scale,
        accesses_per_core=accesses_per_core, seed=seed,
    )
    return evaluate_migration(
        prep, mechanism, num_intervals=num_intervals,
        initial_policy=initial_policy,
    )
